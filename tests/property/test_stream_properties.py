"""Property-based tests for the GPU stream and fusion application."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import FusionPlan, GpuStream, LoweredOp, apply_fusion_plan
from repro.engine.lowering import KernelTask
from repro.workloads.ops import Op, OpKind


@given(jobs=st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e5)),
                     min_size=1, max_size=60),
       gap=st.floats(0, 1000))
@settings(max_examples=150, deadline=None)
def test_stream_invariants(jobs, gap):
    stream = GpuStream()
    previous_end = 0.0
    total = 0.0
    for arrival, duration in jobs:
        start, end = stream.submit(arrival, duration, gap_ns=gap)
        assert start >= arrival          # never starts before arrival
        assert start >= previous_end     # in-order execution
        assert end == start + duration
        previous_end = end
        total += duration
    assert stream.busy_ns == total
    assert stream.kernel_count == len(jobs)
    assert stream.start_times == sorted(stream.start_times)


@given(names=st.lists(st.sampled_from("abcd"), min_size=0, max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=10),
       chain=st.lists(st.sampled_from("abcd"), min_size=2, max_size=4))
@settings(max_examples=150, deadline=None)
def test_fusion_application_conserves_work(names, cuts, chain):
    # The kernels are split into ops at the drawn cut points.
    bounds = sorted({0, len(names), *(c for c in cuts if c < len(names))})
    op = Op(OpKind.ADD, "op", 0.0, 0.0, 0.0, dims=())
    lowered = [LoweredOp(op, tuple(
                   KernelTask(n, flops=1.0, bytes_read=2.0, bytes_written=3.0)
                   for n in names[start:stop]))
               for start, stop in zip(bounds, bounds[1:])]
    stream = [k for lo in lowered for k in lo.kernels]
    plan = FusionPlan(chains=(tuple(chain),))
    fused_lowering = apply_fusion_plan(lowered, plan)
    assert len(fused_lowering) == len(lowered)
    fused = [k for lo in fused_lowering for k in lo.kernels]
    assert sum(k.flops for k in fused) == sum(k.flops for k in stream)
    assert sum(k.bytes_moved for k in fused) == sum(
        k.bytes_moved for k in stream)
    assert len(fused) <= len(stream)
    # Unfused kernels preserve relative order.
    original_unfused = [k.name for k in stream]
    reconstructed = []
    for kernel in fused:
        if kernel.members:
            reconstructed.extend(m.name for m in kernel.members)
        else:
            reconstructed.append(kernel.name)
    assert reconstructed == original_unfused
