"""SKIP's fine-grained kernel metrics (Section III-A of the paper).

All metrics are computed per profiled iteration and averaged:

* **TKLQT** (Eq. 2) — sum over kernels of launch-call begin to kernel begin.
* **AKD** (Eq. 3) — mean kernel duration.
* **IL** (Eq. 4) — end of last kernel minus begin of first parent operator.
* **GPU idle** (Eq. 5) — IL minus total kernel execution time.
* **CPU idle** — IL minus CPU busy time (top-level operator durations).
* **Top-k kernels** — the most frequently launched kernels with their
  aggregate duration and offload tax.

:func:`metrics_from_tape` is the one implementation. It reads the flat
records of a :class:`~repro.trace.tape.TraceTape`, which an engine run
writes directly (``run(..., tape=True)``) and :func:`compute_metrics`
builds from a :class:`~repro.trace.trace.Trace` with
:meth:`~repro.trace.tape.TraceTape.from_trace`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

from repro.errors import AnalysisError
from repro.trace.tape import (
    G_DEVICE, G_DUR, G_ID, G_NAME, G_TS,
    L_CALL_ID, L_CALL_TS, L_DEVICE, L_DUR, L_NAME, L_TS,
    OP_DUR, OP_ID, OP_SEQ, OP_TID, OP_TS,
    TraceTape,
)
from repro.trace.trace import Trace


@dataclass(frozen=True)
class KernelAggregate:
    """Per-kernel-name aggregate used for top-k tracking."""

    name: str
    count: int
    total_duration_ns: float
    total_launch_queue_ns: float

    @property
    def mean_duration_ns(self) -> float:
        return self.total_duration_ns / self.count

    @property
    def mean_launch_queue_ns(self) -> float:
        return self.total_launch_queue_ns / self.count


@dataclass(frozen=True)
class DeviceMetrics:
    """Per-GPU-device SKIP metrics, averaged over profiled iterations.

    Multi-device (tensor-parallel) traces carry kernels from several GPU
    ordinals; partitioning TKLQT/AKD/idle by device shows whether the CPU
    dispatch bottleneck hits all devices equally (single dispatch thread) or
    is spread out (per-device dispatch). Device TKLQT values sum to the
    aggregate TKLQT (each launch belongs to exactly one device).
    """

    device: int
    tklqt_ns: float
    akd_ns: float
    gpu_busy_ns: float
    gpu_idle_ns: float
    kernel_launches: float

    @property
    def mean_launch_queue_ns(self) -> float:
        """Average per-kernel ``t_l`` on this device."""
        return self.tklqt_ns / self.kernel_launches if self.kernel_launches else 0.0


@dataclass(frozen=True)
class IterationMetrics:
    """Metrics for one profiled iteration."""

    index: int
    tklqt_ns: float
    akd_ns: float
    inference_latency_ns: float
    gpu_idle_ns: float
    cpu_idle_ns: float
    cpu_busy_ns: float
    gpu_busy_ns: float
    kernel_launches: int
    min_launch_overhead_ns: float

    @property
    def queuing_ns(self) -> float:
        """TKLQT in excess of the unqueued launch floor."""
        return self.tklqt_ns - self.kernel_launches * self.min_launch_overhead_ns


@dataclass
class SkipMetrics:
    """Averaged SKIP metrics for a trace, plus per-iteration detail."""

    iterations: list[IterationMetrics]
    top_kernels: list[KernelAggregate] = field(default_factory=list)
    devices: list[DeviceMetrics] = field(default_factory=list)

    def _mean(self, attr: str) -> float:
        values = [getattr(it, attr) for it in self.iterations]
        return sum(values) / len(values)

    @property
    def tklqt_ns(self) -> float:
        return self._mean("tklqt_ns")

    @property
    def akd_ns(self) -> float:
        return self._mean("akd_ns")

    @property
    def inference_latency_ns(self) -> float:
        return self._mean("inference_latency_ns")

    @property
    def gpu_idle_ns(self) -> float:
        return self._mean("gpu_idle_ns")

    @property
    def cpu_idle_ns(self) -> float:
        return self._mean("cpu_idle_ns")

    @property
    def cpu_busy_ns(self) -> float:
        return self._mean("cpu_busy_ns")

    @property
    def gpu_busy_ns(self) -> float:
        return self._mean("gpu_busy_ns")

    @property
    def kernel_launches(self) -> float:
        return self._mean("kernel_launches")

    @property
    def queuing_ns(self) -> float:
        return self._mean("queuing_ns")

    @property
    def mean_launch_queue_ns(self) -> float:
        """Average per-kernel ``t_l``."""
        launches = self.kernel_launches
        return self.tklqt_ns / launches if launches else 0.0

    def top_k(self, k: int = 10) -> list[KernelAggregate]:
        """The k most frequently launched kernels."""
        return self.top_kernels[:k]

    def device(self, index: int) -> DeviceMetrics:
        """Metrics for one GPU ordinal."""
        for device in self.devices:
            if device.device == index:
                return device
        raise AnalysisError(f"no kernels from device {index} in this trace")


def compute_metrics(trace: Trace) -> SkipMetrics:
    """Compute SKIP metrics from a trace.

    The trace must contain at least one iteration mark; the engine always
    emits them, and imported Chrome traces carry ``ProfilerStep`` annotations.

    Raises:
        TraceError: when a launch call has no matching kernel.
        AnalysisError: when the trace has no iterations or an iteration has
            no kernels or no operators.
    """
    return metrics_from_tape(TraceTape.from_trace(trace))


def metrics_from_tape(tape: TraceTape) -> SkipMetrics:
    """Compute SKIP metrics from a :class:`~repro.trace.tape.TraceTape`.

    Launches are sorted by launch-call begin and event id, graph-replayed
    kernels by begin and event id, and each thread's top-level operators by
    begin, once; each iteration ``[ts, ts_end)`` is then cut out of them by
    bisection. Every float sum iterates in that order, so a tape run and the
    equivalent full trace give bit-identical metrics; the fast-path parity
    suite locks the equivalence.

    Raises:
        AnalysisError: when the tape has no iterations or an iteration has
            no kernels or no operators.
    """
    if not tape.iterations:
        raise AnalysisError("trace has no iteration marks; cannot compute metrics")

    # Root detection, replicating DependencyGraph.from_trace; mirrored by
    # repro.engine.pricing.price_step, so change the two together. Runtime
    # calls are absent from the tape but cannot change which operators are
    # roots (they never push the containment stack and the pop scan is
    # monotone in ts), nor the roots' order (roots come only from operator
    # records, in per-tid scan order). Each thread's roots begin in
    # non-decreasing ts order, so an iteration's roots are one slice per
    # thread, concatenated in thread order.
    ops = sorted(tape.ops, key=lambda r: (r[OP_TS], r[OP_SEQ], r[OP_ID]))
    threads: dict[int, list[list]] = {}
    for record in ops:
        threads.setdefault(record[OP_TID], []).append(record)
    thread_roots: list[tuple[list[list], list[float]]] = []
    for tid_events in threads.values():
        tid_events.sort(key=lambda r: (r[OP_TS], -r[OP_DUR], r[OP_ID]))
        roots: list[list] = []
        stack: list[list] = []
        for record in tid_events:
            ts = record[OP_TS]
            while stack and ts >= stack[-1][OP_TS] + stack[-1][OP_DUR]:
                stack.pop()
            if not stack:
                roots.append(record)
            stack.append(record)
        thread_roots.append((roots, [r[OP_TS] for r in roots]))

    launches = sorted(tape.launches,
                      key=lambda r: (r[L_CALL_TS], r[L_CALL_ID]))
    launch_ts = [r[L_CALL_TS] for r in launches]
    graph_kernels = sorted(tape.graph_kernels,
                           key=lambda k: (k[G_TS], k[G_ID]))
    graph_ts = [k[G_TS] for k in graph_kernels]

    per_iteration: list[IterationMetrics] = []
    name_stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    # device -> [tklqt, busy, launches], accumulated across iterations.
    # Kept separate from the aggregate sums above so adding the per-device
    # breakdown cannot perturb the aggregate floating-point results.
    device_stats: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])

    for mark in tape.iterations:
        ts0, ts1 = mark.ts, mark.ts_end
        marked = launches[bisect_left(launch_ts, ts0):
                          bisect_left(launch_ts, ts1)]
        marked_graph = graph_kernels[bisect_left(graph_ts, ts0):
                                     bisect_left(graph_ts, ts1)]
        n_kernels = len(marked) + len(marked_graph)
        if not n_kernels:
            raise AnalysisError(f"iteration {mark.index} launched no kernels")

        tklqt = sum(r[L_TS] - r[L_CALL_TS] for r in marked)
        # One chained sum over launches-then-graph-kernels.
        gpu_busy = sum(chain((r[L_DUR] for r in marked),
                             (k[G_DUR] for k in marked_graph)))
        akd = gpu_busy / n_kernels

        roots_in = [r for roots, starts in thread_roots
                    for r in roots[bisect_left(starts, ts0):
                                   bisect_left(starts, ts1)]]
        if not roots_in:
            raise AnalysisError(f"iteration {mark.index} has no operators")
        first_parent_ts = min(r[OP_TS] for r in roots_in)
        last_kernel_end = max(chain((r[L_TS] + r[L_DUR] for r in marked),
                                    (k[G_TS] + k[G_DUR] for k in marked_graph)))
        il = last_kernel_end - first_parent_ts

        cpu_busy = sum(r[OP_DUR] for r in roots_in)
        min_overhead = (min(r[L_TS] - r[L_CALL_TS] for r in marked)
                        if marked else 0.0)

        per_iteration.append(IterationMetrics(
            index=mark.index,
            tklqt_ns=tklqt,
            akd_ns=akd,
            inference_latency_ns=il,
            gpu_idle_ns=il - gpu_busy,
            cpu_idle_ns=max(0.0, il - cpu_busy),
            cpu_busy_ns=cpu_busy,
            gpu_busy_ns=gpu_busy,
            kernel_launches=n_kernels,
            min_launch_overhead_ns=min_overhead,
        ))

        for record in marked:
            stats = name_stats[record[L_NAME]]
            stats[0] += 1
            stats[1] += record[L_DUR]
            stats[2] += record[L_TS] - record[L_CALL_TS]
        for kernel in marked_graph:
            stats = name_stats[kernel[G_NAME]]
            stats[0] += 1
            stats[1] += kernel[G_DUR]

        for record in marked:
            stats = device_stats[record[L_DEVICE]]
            stats[0] += record[L_TS] - record[L_CALL_TS]
            stats[1] += record[L_DUR]
            stats[2] += 1
        for kernel in marked_graph:
            stats = device_stats[kernel[G_DEVICE]]
            stats[1] += kernel[G_DUR]
            stats[2] += 1

    aggregates = [
        KernelAggregate(name, int(count), total_dur, total_lq)
        for name, (count, total_dur, total_lq) in name_stats.items()
    ]
    aggregates.sort(key=lambda a: (-a.count, -a.total_duration_ns, a.name))

    n_iterations = len(per_iteration)
    mean_il = (sum(it.inference_latency_ns for it in per_iteration)
               / n_iterations)
    device_metrics = [
        DeviceMetrics(
            device=device,
            tklqt_ns=tklqt / n_iterations,
            akd_ns=busy / count if count else 0.0,
            gpu_busy_ns=busy / n_iterations,
            gpu_idle_ns=mean_il - busy / n_iterations,
            kernel_launches=count / n_iterations,
        )
        for device, (tklqt, busy, count) in sorted(device_stats.items())
    ]

    # The full per-name population is kept (it is small — tens of distinct
    # names); top_k() slices on demand and diffing needs all of it.
    return SkipMetrics(iterations=per_iteration, top_kernels=aggregates,
                       devices=device_metrics)
