"""TraceTape — the flat record form SKIP metrics are computed from.

Sweeps and serving latency lookups run thousands of engine simulations and
keep nothing but the :class:`~repro.skip.metrics.SkipMetrics` of each.
Building a full :class:`~repro.trace.trace.Trace` for every one of them —
one ``OperatorEvent``/``RuntimeEvent``/``KernelEvent`` dataclass per event,
a global sort, a validation pass, then a dependency-graph reconstruction —
is most of their wall time.

:class:`TapeBuilder` is a drop-in substitute for
:class:`~repro.trace.builder.TraceBuilder` (the execution processes call it
through the identical method surface) that records flat tuples instead of
event objects. :meth:`TraceTape.from_trace` turns an existing trace
(simulated or imported) into the same records. The resulting
:class:`TraceTape` carries exactly the information SKIP metrics and kernel
segments consume. ``repro.skip.metrics.metrics_from_tape`` is the one
implementation of the metrics and ``repro.skip.proximity.tape_segments``
the one segment reader: ``compute_metrics(trace)`` and
``kernel_segments(trace)`` are each of them over
``TraceTape.from_trace(trace)``.

A tape run's metrics are **bit-identical** to those of the equivalent full
trace because of two invariants, both locked by the fast-path parity suite
(``tests/perf/test_fastpath_parity.py``):

* **Id parity.** ``TraceBuilder`` draws event ids from a global counter in
  a fixed pattern (operator: one id; ``launch_kernel``: call id then kernel
  id; ``runtime_call``/graph kernel: one id). The tape replays the same
  pattern from a local counter, so *relative* event-id order — the only
  thing any SKIP sort key uses — is identical.
* **Order parity.** Every float sum in the metrics pipeline iterates in the
  order induced by those sort keys, so identical orders give identical
  floating-point results, not merely close ones.

Runtime calls that launch nothing (synchronizes, ``cudaGraphLaunch``
markers) consume an id but are not recorded: operator nesting/root
detection depends only on operator events (a runtime call never pushes the
operator stack, and the pop scan is monotone in ``ts``), and non-launch
calls feed no metric.
"""

from __future__ import annotations

from repro.errors import TraceError
from repro.trace.events import LAUNCH_KERNEL
from repro.trace.trace import IterationMark, Trace

#: Operator record layout: [ts, dur, tid, seq, event_id] (dur patched by
#: ``end_operator``).
OP_TS, OP_DUR, OP_TID, OP_SEQ, OP_ID = range(5)

#: Launch record layout: (call_ts, call_event_id, kernel_name, kernel_ts,
#: kernel_dur, device). A tape lists its launches in launch order.
L_CALL_TS, L_CALL_ID, L_NAME, L_TS, L_DUR, L_DEVICE = range(6)

#: Graph-kernel record layout: (ts, event_id, name, dur, device).
G_TS, G_ID, G_NAME, G_DUR, G_DEVICE = range(5)


class TraceTape:
    """Flat event tuples from one engine run — the metrics-only trace."""

    __slots__ = ("ops", "launches", "graph_kernels", "iterations", "metadata")

    def __init__(self, metadata: dict | None = None) -> None:
        self.ops: list[list] = []
        self.launches: list[tuple] = []
        self.graph_kernels: list[tuple] = []
        self.iterations: list[IterationMark] = []
        self.metadata: dict = dict(metadata or {})

    def __len__(self) -> int:
        return len(self.ops) + len(self.launches) + len(self.graph_kernels)

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceTape":
        """The tape records of a trace: its operators, its launch calls
        paired with their kernels, its graph-replayed kernels and its
        iteration marks.

        Launches are listed in correlation-id order, the profiler's launch
        order, which :class:`TapeBuilder` also appends in. A Chrome round
        trip keeps correlation ids but renumbers event ids, so event ids
        cannot stand in for it.

        Raises:
            TraceError: when a launch call has no matching kernel, or two
                kernels share a correlation id.
        """
        tape = cls(trace.metadata)
        tape.ops = [[op.ts, op.dur, op.tid, op.seq, op.event_id]
                    for op in trace.operators]
        kernels = trace.kernels_by_correlation()
        # Graph launches (negative ids) are skipped; their kernels are
        # recorded below.
        calls = sorted((call for call in trace.runtime_calls
                        if call.is_launch and call.correlation_id >= 0),
                       key=lambda call: call.correlation_id)
        for call in calls:
            kernel = kernels.get(call.correlation_id)
            if kernel is None:
                raise TraceError(
                    f"launch correlation {call.correlation_id} has no kernel")
            tape.launches.append((call.ts, call.event_id, kernel.name,
                                  kernel.ts, kernel.dur, kernel.device))
        tape.graph_kernels = [(k.ts, k.event_id, k.name, k.dur, k.device)
                              for k in trace.kernels if k.correlation_id < 0]
        tape.iterations = list(trace.iterations)
        return tape


class TapeBuilder:
    """``TraceBuilder``-compatible sink writing a :class:`TraceTape`.

    Validation is intentionally minimal: the execution processes driving it
    are the same ones the validating ``TraceBuilder`` accepts on the slow
    path, and the parity suite runs both.
    """

    __slots__ = ("_tape", "_tid", "_next_id", "_seq", "_open", "_iteration_start")

    def __init__(self, metadata: dict | None = None, tid: int = 1) -> None:
        self._tape = TraceTape(metadata)
        self._tid = tid
        self._next_id = 1  # local stand-in for the global event-id counter
        self._seq = 0
        self._open = 0
        self._iteration_start: float | None = None

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def begin_operator(self, name: str, ts: float,
                       tid: int | None = None) -> list:
        record = [ts, 0.0, self._tid if tid is None else tid,
                  self._seq, self._next_id]
        self._next_id += 1
        self._seq += 1
        self._open += 1
        self._tape.ops.append(record)
        return record

    def end_operator(self, record: list, ts_end: float) -> None:
        record[OP_DUR] = ts_end - record[OP_TS]
        self._open -= 1

    # ------------------------------------------------------------------
    # Runtime calls & kernels
    # ------------------------------------------------------------------
    def launch_kernel(
        self,
        call_ts: float,
        call_dur: float,
        kernel_name: str,
        kernel_ts: float,
        kernel_dur: float,
        stream: int = 7,
        device: int = 0,
        tid: int | None = None,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
        call_name: str = LAUNCH_KERNEL,
    ) -> None:
        call_id = self._next_id
        self._next_id += 2  # call event id, then kernel event id
        self._tape.launches.append(
            (call_ts, call_id, kernel_name, kernel_ts, kernel_dur, device))

    def runtime_call(self, name: str, ts: float, dur: float,
                     tid: int | None = None) -> None:
        # Consumes an id (id parity with TraceBuilder) but feeds no metric.
        self._next_id += 1

    def enqueue_graph_kernel(
        self,
        kernel_name: str,
        kernel_ts: float,
        kernel_dur: float,
        stream: int = 7,
        device: int = 0,
        flops: float = 0.0,
        bytes_moved: float = 0.0,
    ) -> None:
        kernel_id = self._next_id
        self._next_id += 1
        self._tape.graph_kernels.append(
            (kernel_ts, kernel_id, kernel_name, kernel_dur, device))

    # ------------------------------------------------------------------
    # Iterations
    # ------------------------------------------------------------------
    def begin_iteration(self, ts: float) -> None:
        if self._iteration_start is not None:
            raise TraceError("iteration already open")
        self._iteration_start = ts

    def end_iteration(self, ts_end: float) -> None:
        if self._iteration_start is None:
            raise TraceError("no open iteration")
        marks = self._tape.iterations
        marks.append(IterationMark(len(marks), self._iteration_start, ts_end))
        self._iteration_start = None

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finish(self) -> TraceTape:
        if self._open:
            raise TraceError(f"unclosed operator scopes: {self._open}")
        if self._iteration_start is not None:
            raise TraceError("unclosed iteration")
        self._tape.iterations.sort(key=lambda m: m.ts)
        return self._tape
