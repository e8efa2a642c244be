"""Property-based tests for the serving loops (conservation & ordering)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import INTEL_H100
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    Request,
    StaticBatchPolicy,
    simulate_serving,
)
from repro.workloads import GPT2

# One latency model across all examples: caching makes the property runs
# cheap after the first few engine calls.
_LATENCY = LatencyModel(INTEL_H100)


@st.composite
def request_streams(draw):
    count = draw(st.integers(1, 12))
    requests = []
    clock = 0.0
    for i in range(count):
        clock += draw(st.floats(0, 2e8))  # up to 200 ms gaps
        requests.append(Request(
            request_id=i,
            arrival_ns=clock,
            prompt_len=draw(st.sampled_from([64, 128, 256])),
            output_tokens=draw(st.integers(1, 6)),
        ))
    return requests


@given(stream=request_streams(),
       batch=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_static_batching_conservation(stream, batch):
    report = simulate_serving(
        stream, GPT2, _LATENCY, StaticBatchPolicy(max_batch_size=batch)).report
    assert {o.request.request_id for o in report.outcomes} == {
        r.request_id for r in stream}
    for outcome in report.outcomes:
        assert outcome.queue_ns >= -1e-6
        assert outcome.ttft_ns >= outcome.queue_ns
        assert outcome.completion_ns >= outcome.ttft_ns
        assert 1 <= outcome.batch_size <= batch


@given(stream=request_streams(),
       max_active=st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_continuous_batching_conservation(stream, max_active):
    report = simulate_serving(
        stream, GPT2, _LATENCY,
        ContinuousBatchPolicy(max_active=max_active, context_bucket=64)).report
    assert {o.request.request_id for o in report.outcomes} == {
        r.request_id for r in stream}
    for outcome in report.outcomes:
        assert outcome.ttft_ns > 0
        assert outcome.completion_ns >= outcome.ttft_ns


@given(stream=request_streams())
@settings(max_examples=15, deadline=None)
def test_server_never_time_travels(stream):
    """Batch launches are ordered and no request finishes before arriving."""
    report = simulate_serving(stream, GPT2, _LATENCY,
                              StaticBatchPolicy()).report
    absolute_completions = sorted(
        o.request.arrival_ns + o.completion_ns for o in report.outcomes)
    assert all(c >= 0 for c in absolute_completions)
    for outcome in report.outcomes:
        # completion measured from arrival must cover the pure service time
        # of at least a BS=1 run of its own shape... service >= ttft part.
        assert outcome.completion_ns >= outcome.ttft_ns >= 0
