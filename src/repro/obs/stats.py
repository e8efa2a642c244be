"""Counters and histograms for the observability layer.

The serving simulations are single-threaded and deterministic, so the
implementations favour simplicity: a histogram keeps its raw observations
and computes nearest-rank percentiles on demand. At simulation scale
(thousands of steps) this is far below the cost of a single engine run,
which keeps the recorder's overhead negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import AnalysisError


@dataclass(frozen=True)
class HistogramSummary:
    """Point-in-time summary of one histogram."""

    name: str
    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


@dataclass
class Histogram:
    """A histogram of float observations.

    ``observe(value)`` records one occurrence of ``value`` in O(1);
    percentiles sort lazily.
    """

    name: str
    _values: list[float] = field(default_factory=list, repr=False)

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def observe_each(self, values: Iterable[float]) -> None:
        """Record one occurrence of each value, in order.

        Equivalent to ``observe(value)`` per value, in one call.
        """
        self._values.extend(map(float, values))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def empty(self) -> bool:
        return not self._values

    def mean(self) -> float:
        if self.empty:
            raise AnalysisError(f"histogram {self.name} is empty")
        return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        return self._percentiles((p,))[0]

    def _percentiles(self, ps: tuple[float, ...]) -> list[float]:
        """:meth:`percentile` for each of ``ps`` over one sort."""
        if not all(0.0 <= p <= 100.0 for p in ps):
            raise AnalysisError("percentile must be in [0, 100]")
        if self.empty:
            raise AnalysisError(f"histogram {self.name} is empty")
        ordered = sorted(self._values)
        n = len(ordered)
        # The first value whose 1-based rank reaches p% of n.
        return [ordered[max(math.ceil(p / 100.0 * float(n)), 1) - 1]
                for p in ps]

    def summary(self) -> HistogramSummary:
        p50, p90, p99 = self._percentiles((50, 90, 99))
        return HistogramSummary(
            name=self.name,
            count=self.count,
            mean=self.mean(),
            minimum=min(self._values),
            maximum=max(self._values),
            p50=p50,
            p90=p90,
            p99=p99,
        )


@dataclass
class CounterSet:
    """A named set of monotonically increasing counters."""

    _counts: dict[str, float] = field(default_factory=dict, repr=False)

    def add(self, name: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise AnalysisError(f"counter {name}: amount must be non-negative")
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._counts)
