"""Counters and weighted histograms for the observability layer.

The serving simulations are single-threaded and deterministic, so the
implementations favour simplicity: a histogram keeps its raw (value, weight)
observations and computes weighted nearest-rank percentiles on demand. At
simulation scale (thousands of steps) this is far below the cost of a single
engine run, which keeps the recorder's overhead negligible.
"""

from __future__ import annotations

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
    """A weighted histogram of float observations.

    ``observe(value, count)`` records ``count`` occurrences of ``value`` in
    O(1); percentiles sort lazily. Weights let per-step observations stand in
    for per-request ones (a decode step contributes one time-between-tokens
    sample per active sequence).
    """

    name: str
    _values: list[float] = field(default_factory=list, repr=False)
    _weights: list[float] = field(default_factory=list, repr=False)

    def observe(self, value: float, count: float = 1.0) -> None:
        if count <= 0:
            raise AnalysisError(f"histogram {self.name}: count must be positive")
        self._values.append(float(value))
        self._weights.append(float(count))

    def observe_each(self, values: Iterable[float]) -> None:
        """Record one occurrence of each value, in order.

        Equivalent to ``observe(value)`` per value, in one call.
        """
        start = len(self._values)
        self._values.extend(map(float, values))
        self._weights.extend([1.0] * (len(self._values) - start))

    @property
    def count(self) -> float:
        return sum(self._weights)

    @property
    def empty(self) -> bool:
        return not self._values

    def mean(self) -> float:
        return self._mean(self.count)

    def _mean(self, count: float) -> float:
        if self.empty:
            raise AnalysisError(f"histogram {self.name} is empty")
        total = sum(v * w for v, w in zip(self._values, self._weights))
        return total / count

    def percentile(self, p: float) -> float:
        """Weighted nearest-rank percentile; ``p`` in [0, 100]."""
        return self._percentiles((p,))[0]

    def _percentiles(self, ps: tuple[float, ...]) -> list[float]:
        """:meth:`percentile` for each of ``ps`` over one sort."""
        if not all(0.0 <= p <= 100.0 for p in ps):
            raise AnalysisError("percentile must be in [0, 100]")
        if self.empty:
            raise AnalysisError(f"histogram {self.name} is empty")
        pairs = sorted(zip(self._values, self._weights))
        total = sum(w for _, w in pairs)
        results = []
        for p in ps:
            rank = p / 100.0 * total
            cumulative = 0.0
            for value, weight in pairs:
                cumulative += weight
                if cumulative >= rank:
                    results.append(value)
                    break
            else:
                results.append(pairs[-1][0])
        return results

    def summary(self) -> HistogramSummary:
        count = self.count
        p50, p90, p99 = self._percentiles((50, 90, 99))
        return HistogramSummary(
            name=self.name,
            count=int(count),
            mean=self._mean(count),
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
