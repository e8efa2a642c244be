"""``compute_metrics`` against the per-iteration reference, bit for bit.

``compute_metrics`` reads a trace through its tape form and cuts each
iteration out of launches, graph-replayed kernels and per-thread roots that
are sorted once. :func:`reference_metrics` is the form it replaced: it
builds the dependency graph and filters every launch, graph kernel and root
against every iteration. The two must agree to the last bit on any sorted
trace, so the comparison is on ``repr`` (shortest round-trip floats), not
on approximate equality.

The hand-built traces put everything the cut must get right into each
draw: several dispatch threads whose roots interleave in time, launch calls
on two threads at one timestamp, operators nested at their parent's start,
graph-replayed kernels, and launches, roots and graph kernels exactly at an
iteration boundary.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.skip import DependencyGraph, compute_metrics
from repro.skip.metrics import (
    DeviceMetrics,
    IterationMetrics,
    KernelAggregate,
    SkipMetrics,
)
from repro.trace import (
    GRAPH_LAUNCH,
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    Trace,
)


def reference_metrics(trace: Trace) -> SkipMetrics:
    """SKIP metrics recomputed per iteration over the dependency graph."""
    graph = DependencyGraph.from_trace(trace)
    if not trace.iterations:
        raise AnalysisError("trace has no iteration marks; cannot compute metrics")

    per_iteration: list[IterationMetrics] = []
    name_stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    device_stats: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])

    for mark in trace.iterations:
        launches = [r for r in graph.launches
                    if mark.ts <= r.call.ts < mark.ts_end]
        graph_kernels = [k for k in graph.graph_kernels
                         if mark.ts <= k.ts < mark.ts_end]
        kernels = [r.kernel for r in launches] + graph_kernels
        if not kernels:
            raise AnalysisError(f"iteration {mark.index} launched no kernels")

        tklqt = sum(r.launch_and_queue_ns for r in launches)
        gpu_busy = sum(k.dur for k in kernels)
        akd = gpu_busy / len(kernels)

        roots = [n for n in graph.roots if mark.ts <= n.event.ts < mark.ts_end]
        if not roots:
            raise AnalysisError(f"iteration {mark.index} has no operators")
        first_parent_ts = min(r.event.ts for r in roots)
        last_kernel_end = max(k.ts_end for k in kernels)
        il = last_kernel_end - first_parent_ts

        cpu_busy = sum(r.event.dur for r in roots)
        min_overhead = (min(r.launch_and_queue_ns for r in launches)
                        if launches else 0.0)

        per_iteration.append(IterationMetrics(
            index=mark.index,
            tklqt_ns=tklqt,
            akd_ns=akd,
            inference_latency_ns=il,
            gpu_idle_ns=il - gpu_busy,
            cpu_idle_ns=max(0.0, il - cpu_busy),
            cpu_busy_ns=cpu_busy,
            gpu_busy_ns=gpu_busy,
            kernel_launches=len(kernels),
            min_launch_overhead_ns=min_overhead,
        ))

        for record in launches:
            stats = name_stats[record.kernel.name]
            stats[0] += 1
            stats[1] += record.kernel.dur
            stats[2] += record.launch_and_queue_ns
        for kernel in graph_kernels:
            stats = name_stats[kernel.name]
            stats[0] += 1
            stats[1] += kernel.dur

        for record in launches:
            stats = device_stats[record.kernel.device]
            stats[0] += record.launch_and_queue_ns
            stats[1] += record.kernel.dur
            stats[2] += 1
        for kernel in graph_kernels:
            stats = device_stats[kernel.device]
            stats[1] += kernel.dur
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
    return SkipMetrics(iterations=per_iteration, top_kernels=aggregates,
                       devices=device_metrics)


def assert_bit_identical(trace: Trace) -> None:
    """``compute_metrics`` equals the reference, float bits included."""
    expected = reference_metrics(trace)
    actual = compute_metrics(trace)
    assert actual == expected
    assert repr(actual) == repr(expected)


#: Timestamps sit on a coarse grid so that threads and iteration
#: boundaries share them.
GRID = 8.0


def build_sorted_trace(seed: int) -> Trace:
    """A sorted multi-thread trace of 5-7 back-to-back iterations.

    Built from a seeded generator rather than from one Hypothesis draw per
    value, which keeps a draw cheap. Durations are twelfths, which binary
    floats cannot hold exactly, so every summation order shows in the low
    bits.
    """
    rng = random.Random(seed)

    def duration() -> float:
        return rng.randint(1, 93) / 12

    threads = rng.randint(2, 4)
    correlation = itertools.count()
    graph_correlation = itertools.count(-2, -1)
    seq = itertools.count()
    trace = Trace()
    start = 0.0
    for _ in range(rng.randint(5, 7)):
        ends = []
        for tid in range(1, threads + 1):
            # Threads 1 and 2 begin the iteration together, so their first
            # launch calls share a timestamp with each other and with the
            # previous iteration's end.
            cursor = start if tid <= 2 else start + rng.randint(0, 3) * GRID
            for _ in range(rng.randint(1, 3)):
                slots = rng.randint(2, 5)
                trace.add(OperatorEvent("aten::linear", cursor,
                                        (slots - 1) * GRID + duration(),
                                        tid=tid, seq=next(seq)))
                if rng.random() < 0.5:
                    trace.add(OperatorEvent("aten::addmm", cursor, duration(),
                                            tid=tid, seq=next(seq)))
                for slot in range(rng.randint(1, slots)):
                    call_ts = cursor + slot * GRID
                    cid = next(correlation)
                    trace.add(RuntimeEvent(LAUNCH_KERNEL, call_ts, 1.0,
                                           tid=tid, correlation_id=cid))
                    trace.add(KernelEvent(
                        rng.choice(("gemm", "softmax", "copy")),
                        call_ts + duration() * rng.randint(1, 40),
                        duration() * 10, correlation_id=cid, device=tid % 2))
                cursor += slots * GRID
            ends.append(cursor)
        for _ in range(rng.randint(0, 3)):
            ts = start + rng.randint(0, 6) * GRID
            trace.add(RuntimeEvent(GRAPH_LAUNCH, ts, 1.0, tid=1))
            trace.add(KernelEvent("graph_kernel", ts, duration(),
                                  correlation_id=next(graph_correlation),
                                  device=rng.randint(0, 1)))
        end = max(ends) + rng.randint(0, 2) * GRID
        trace.mark_iteration(start, end)
        start = end
    trace.sort()
    return trace


sorted_traces = st.integers(0, 2**32 - 1).map(build_sorted_trace)


@given(trace=sorted_traces)
@settings(max_examples=150, deadline=None)
def test_compute_metrics_matches_the_per_iteration_reference(trace):
    assert_bit_identical(trace)
