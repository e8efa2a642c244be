"""Trace container.

A :class:`Trace` is the unit of exchange between the execution engine (which
produces traces) and SKIP (which consumes them). It holds CPU-side events
(operators and runtime calls) and GPU-side kernel events, plus iteration
boundary marks so analyses can work per-forward-pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.trace.events import (
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    TraceEvent,
)


@dataclass
class IterationMark:
    """Marks one profiled iteration (forward pass) inside a trace."""

    index: int
    ts: float
    ts_end: float

    def __post_init__(self) -> None:
        if self.ts_end < self.ts:
            raise TraceError(f"iteration {self.index} ends before it starts")


@dataclass
class Trace:
    """A profiled run: CPU operator/runtime events plus GPU kernel events.

    Events are kept in separate, time-sorted lists. ``metadata`` carries
    provenance (platform/model/mode names) for reports; it never affects
    analysis results.
    """

    operators: list[OperatorEvent] = field(default_factory=list)
    runtime_calls: list[RuntimeEvent] = field(default_factory=list)
    kernels: list[KernelEvent] = field(default_factory=list)
    iterations: list[IterationMark] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, event: TraceEvent) -> None:
        """Append an event to the appropriate list (kept sorted lazily)."""
        if isinstance(event, OperatorEvent):
            self.operators.append(event)
        elif isinstance(event, RuntimeEvent):
            self.runtime_calls.append(event)
        elif isinstance(event, KernelEvent):
            self.kernels.append(event)
        else:
            raise TraceError(f"unknown event type: {type(event).__name__}")

    def mark_iteration(self, ts: float, ts_end: float) -> None:
        """Record the time span of one profiled iteration."""
        self.iterations.append(IterationMark(len(self.iterations), ts, ts_end))

    def sort(self) -> None:
        """Sort all event lists by begin timestamp (stable on program order)."""
        self.operators.sort(key=lambda e: (e.ts, e.seq, e.event_id))
        self.runtime_calls.sort(key=lambda e: (e.ts, e.event_id))
        self.kernels.sort(key=lambda e: (e.ts, e.event_id))
        self.iterations.sort(key=lambda m: m.ts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def launches(self) -> list[RuntimeEvent]:
        """All kernel-launching runtime calls, in time order."""
        return [r for r in self.runtime_calls if r.is_launch]

    @property
    def span(self) -> tuple[float, float]:
        """(first begin, last end) over every event in the trace."""
        events = self.all_events()
        if not events:
            raise TraceError("trace is empty")
        begin = min(e.ts for e in events)
        end = max(e.ts_end for e in events)
        return begin, end

    def all_events(self) -> list[TraceEvent]:
        """All events (CPU + GPU) in one list, unsorted."""
        out: list[TraceEvent] = []
        out.extend(self.operators)
        out.extend(self.runtime_calls)
        out.extend(self.kernels)
        return out

    def cpu_events(self) -> list[TraceEvent]:
        """Operators and runtime calls merged and time-sorted."""
        events: list[TraceEvent] = [*self.operators, *self.runtime_calls]
        events.sort(key=lambda e: (e.ts, e.event_id))
        return events

    def kernels_by_correlation(self) -> dict[int, KernelEvent]:
        """Map correlation id -> kernel event.

        Kernels enqueued by a CUDA-graph replay carry negative correlation
        ids (they have no individual launch call) and are excluded.

        Raises:
            TraceError: if two kernels share a non-negative correlation id.
        """
        out: dict[int, KernelEvent] = {}
        for kernel in self.kernels:
            if kernel.correlation_id < 0:
                continue
            if kernel.correlation_id in out:
                raise TraceError(
                    f"duplicate correlation id {kernel.correlation_id} "
                    f"({out[kernel.correlation_id].name!r} vs {kernel.name!r})"
                )
            out[kernel.correlation_id] = kernel
        return out

    def validate(self) -> None:
        """Check internal consistency; raises :class:`TraceError` on problems."""
        correlated = self.kernels_by_correlation()
        launch_ids = {r.correlation_id for r in self.runtime_calls if r.is_launch}
        orphans = [cid for cid in correlated if cid not in launch_ids]
        if orphans:
            raise TraceError(f"kernels without launch calls: {sorted(orphans)[:5]}")
        for launch in self.runtime_calls:
            # A cudaGraphLaunch enqueues many kernels that carry negative
            # correlation ids; only individual cudaLaunchKernel calls must
            # pair 1:1 with kernels.
            if (launch.name == LAUNCH_KERNEL and launch.is_launch
                    and launch.correlation_id not in correlated):
                raise TraceError(
                    f"launch {launch.correlation_id} at {launch.ts} has no kernel"
                )

    def merged(self, other: "Trace") -> "Trace":
        """Return a new trace containing events from both traces."""
        out = Trace(metadata={**self.metadata, **other.metadata})
        for event_list in (self.all_events(), other.all_events()):
            for event in event_list:
                out.add(event)
        for mark in [*self.iterations, *other.iterations]:
            out.iterations.append(mark)
        out.iterations = [
            IterationMark(i, m.ts, m.ts_end)
            for i, m in enumerate(sorted(out.iterations, key=lambda m: m.ts))
        ]
        out.sort()
        return out

