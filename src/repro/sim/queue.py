"""Deterministic event queue.

A min-heap of ``(time, seq)`` entries. ``seq`` is a monotonically increasing
insertion counter, so two events scheduled for the same instant pop in the
order they were pushed — simulation results never depend on heap internals,
which is what makes multi-process runs (and their traces) reproducible.

``__slots__`` keeps :class:`EventQueue` lean, and
:class:`~repro.sim.core.SimCore` drains ``_heap`` directly in its hot loop
(saving a method call and tuple re-pack per event). Any subclass, such as
:class:`PerturbedEventQueue`, steers the core onto its generic loop, which
pops through :meth:`EventQueue.pop_entry`.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError


class EventQueue:
    """Time-ordered event queue with FIFO tie-breaking."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time_ns: float, item: Any) -> None:
        """Schedule ``item`` at ``time_ns``."""
        if time_ns < 0:
            raise SimulationError("event time must be non-negative")
        heapq.heappush(self._heap, (time_ns, self._seq, item))
        self._seq += 1

    def pop_entry(self) -> tuple[float, int, Any]:
        """Remove and return the earliest ``(time, tie, item)`` entry.

        ``tie`` is the monotone insertion sequence number that broke any
        same-time tie — the metadata the causality log records so the
        happens-before pass (rule H002) can prove pop order never fell
        through to comparing heap items.
        """
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Earliest scheduled time without popping."""
        if not self._heap:
            raise SimulationError("peek into an empty event queue")
        return self._heap[0][0]


class PerturbedEventQueue(EventQueue):
    """Adversarial tie-break queue for determinism certification.

    Orders same-time events LIFO instead of FIFO by negating the insertion
    sequence number. Time order is untouched, so a perturbed run is
    *causally equivalent* to the baseline — any behavioral dependency the
    two runs disagree on was a dependency on the tie-break itself, which is
    exactly what ``repro check hb --certify`` hunts (rule H008).

    Being a subclass (not ``EventQueue`` itself) automatically steers
    :class:`~repro.sim.core.SimCore` off its direct-heap fast path onto the
    generic loop.
    """

    def push(self, time_ns: float, item: Any) -> None:
        if time_ns < 0:
            raise SimulationError("event time must be non-negative")
        heapq.heappush(self._heap, (time_ns, -self._seq, item))
        self._seq += 1
