"""Trace container behavior."""

import pytest

from repro.errors import TraceError
from repro.skip import kernel_segments
from repro.trace import (
    GRAPH_LAUNCH,
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    Trace,
)


def make_launch_pair(correlation: int, call_ts: float, kernel_ts: float,
                     name: str = "k") -> tuple[RuntimeEvent, KernelEvent]:
    call = RuntimeEvent(name=LAUNCH_KERNEL, ts=call_ts, dur=1.0,
                        correlation_id=correlation)
    kernel = KernelEvent(name=name, ts=kernel_ts, dur=5.0,
                         correlation_id=correlation)
    return call, kernel


def build_simple_trace() -> Trace:
    trace = Trace()
    op = OperatorEvent(name="aten::add", ts=0.0, dur=20.0, seq=0)
    call, kernel = make_launch_pair(1, 5.0, 10.0)
    trace.add(op)
    trace.add(call)
    trace.add(kernel)
    trace.mark_iteration(0.0, 30.0)
    trace.sort()
    return trace


def test_add_dispatches_by_type():
    trace = build_simple_trace()
    assert len(trace.operators) == 1
    assert len(trace.runtime_calls) == 1
    assert len(trace.kernels) == 1


def test_add_rejects_unknown_type():
    with pytest.raises(TraceError):
        Trace().add(object())  # type: ignore[arg-type]


def test_span_covers_all_events():
    trace = build_simple_trace()
    begin, end = trace.span
    assert begin == 0.0
    assert end == 20.0  # operator at 0 + dur 20 outlives the kernel end (15)


def test_span_of_empty_trace_raises():
    with pytest.raises(TraceError):
        Trace().span


def test_launches_filters_runtime_calls():
    trace = build_simple_trace()
    trace.add(RuntimeEvent(name="cudaDeviceSynchronize", ts=21.0, dur=2.0))
    assert len(trace.launches) == 1


def test_kernels_by_correlation_rejects_duplicates():
    trace = Trace()
    trace.add(KernelEvent(name="a", ts=0, dur=1, correlation_id=5))
    trace.add(KernelEvent(name="b", ts=2, dur=1, correlation_id=5))
    with pytest.raises(TraceError):
        trace.kernels_by_correlation()


def test_kernels_by_correlation_skips_graph_kernels():
    trace = Trace()
    trace.add(KernelEvent(name="a", ts=0, dur=1, correlation_id=-1))
    trace.add(KernelEvent(name="b", ts=2, dur=1, correlation_id=-2))
    assert trace.kernels_by_correlation() == {}


def test_graph_launch_marker_claims_no_replayed_kernel():
    # A cudaGraphLaunch marker keeps the default correlation id -1, which
    # the first replayed kernel also carries; the kernel belongs only to
    # the iteration holding its own start.
    trace = Trace()
    trace.add(KernelEvent(name="g", ts=10.0, dur=1.0, correlation_id=-1))
    trace.add(RuntimeEvent(name=GRAPH_LAUNCH, ts=60.0, dur=1.0))
    trace.mark_iteration(0.0, 50.0)
    trace.mark_iteration(50.0, 100.0)
    trace.sort()
    assert kernel_segments(trace) == [["g"], []]


def test_validate_detects_orphan_kernel():
    trace = Trace()
    trace.add(KernelEvent(name="k", ts=0, dur=1, correlation_id=9))
    with pytest.raises(TraceError):
        trace.validate()


def test_validate_detects_kernelless_launch():
    trace = Trace()
    trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=0, dur=1, correlation_id=9))
    with pytest.raises(TraceError):
        trace.validate()


def test_validate_accepts_graph_launch_without_correlation():
    trace = Trace()
    trace.add(RuntimeEvent(name="cudaGraphLaunch", ts=0, dur=1,
                           correlation_id=-1))
    trace.add(KernelEvent(name="g", ts=5, dur=1, correlation_id=-2))
    trace.validate()  # must not raise


def test_merged_combines_and_renumbers_iterations():
    a = build_simple_trace()
    b = Trace(metadata={"x": 1})
    call, kernel = make_launch_pair(99, 100.0, 105.0)
    b.add(call)
    b.add(kernel)
    b.mark_iteration(100.0, 120.0)
    merged = a.merged(b)
    assert len(merged.kernels) == 2
    assert [m.index for m in merged.iterations] == [0, 1]
    assert merged.metadata["x"] == 1


def test_cpu_events_sorted_by_time():
    trace = build_simple_trace()
    events = trace.cpu_events()
    assert [e.ts for e in events] == sorted(e.ts for e in events)
