"""Continuous (iteration-level) batching."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import INTEL_H100
from repro.obs import RunRecorder
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    Request,
    StaticBatchPolicy,
    poisson_requests,
    simulate_serving,
)
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def latency():
    return LatencyModel(INTEL_H100)


@pytest.fixture(scope="module")
def stream():
    return poisson_requests(rate_per_s=30, duration_s=1.0, prompt_len=256,
                            output_tokens=12, seed=11)


def test_every_request_completes(latency, stream):
    report = simulate_serving(stream, GPT2, latency).report
    assert {o.request.request_id for o in report.outcomes} == {
        r.request_id for r in stream}


def test_latency_invariants(latency, stream):
    report = simulate_serving(stream, GPT2, latency).report
    for outcome in report.outcomes:
        assert outcome.ttft_ns > 0
        assert outcome.completion_ns >= outcome.ttft_ns


def test_continuous_beats_static_on_mean_ttft(latency, stream):
    """The vLLM argument the paper cites: continuous batching approaches
    BS=1 latency while keeping the batch full."""
    continuous = simulate_serving(
        stream, GPT2, latency, ContinuousBatchPolicy(max_active=16)).report
    static = simulate_serving(
        stream, GPT2, latency,
        StaticBatchPolicy(max_batch_size=16, max_wait_ns=100e6)).report
    assert continuous.mean_ttft_ns() < static.mean_ttft_ns()


def test_max_active_bounds_concurrency(latency):
    burst = poisson_requests(rate_per_s=500, duration_s=0.1, prompt_len=128,
                             output_tokens=8, seed=3)
    report = simulate_serving(
        burst, GPT2, latency, ContinuousBatchPolicy(max_active=4)).report
    assert {o.request.request_id for o in report.outcomes} == {
        r.request_id for r in burst}


def test_context_bucket_bounds_latency_lookups(stream):
    fresh = LatencyModel(INTEL_H100)
    policy = ContinuousBatchPolicy(max_active=8, context_bucket=128)
    simulate_serving(stream, GPT2, fresh, policy)
    contexts = {key[2] for key in fresh._decode_cache}
    assert contexts
    assert all(c % 128 == 0 for c in contexts)


def test_single_token_request_completes_at_prefill(latency):
    """output_tokens=1 finishes at its first token: no decode step runs."""
    requests = [Request(0, 0.0, prompt_len=64, output_tokens=1)]
    recorder = RunRecorder()
    report = simulate_serving(requests, GPT2, latency,
                              recorder=recorder).report
    outcome = report.outcomes[0]
    assert outcome.completion_ns == outcome.ttft_ns
    assert not [s for s in recorder.steps if s.kind.value == "decode"]
    span = recorder.spans[0]
    assert span.first_token_ns == span.completed_ns
    assert recorder.counters.get("tokens_generated") == 0  # no decode tokens


def test_decode_steps_match_output_tokens(latency):
    """Prefill emits token 1; each decode step emits exactly one more."""
    requests = [Request(0, 0.0, prompt_len=64, output_tokens=6)]
    recorder = RunRecorder()
    simulate_serving(requests, GPT2, latency, recorder=recorder)
    decode_steps = [s for s in recorder.steps if s.kind.value == "decode"]
    assert len(decode_steps) == 5
    assert recorder.counters.get("tokens_generated") == 5  # plus the prefill token


def test_outcome_reports_actual_decode_batch(latency):
    """batch_size is the decode batch the request finished in, not
    policy.max_active."""
    requests = [Request(0, 0.0, prompt_len=64, output_tokens=4),
                Request(1, 0.0, prompt_len=64, output_tokens=2)]
    report = simulate_serving(
        requests, GPT2, latency, ContinuousBatchPolicy(max_active=16)).report
    by_id = {o.request.request_id for o in report.outcomes}
    assert by_id == {0, 1}
    outcomes = {o.request.request_id: o for o in report.outcomes}
    # Request 1 finishes while both are decoding; request 0 finishes alone.
    assert outcomes[1].batch_size == 2
    assert outcomes[0].batch_size == 1


def test_empty_stream_rejected(latency):
    with pytest.raises(ConfigurationError):
        simulate_serving([], GPT2, latency)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ContinuousBatchPolicy(max_active=0)
    with pytest.raises(ConfigurationError):
        ContinuousBatchPolicy(context_bucket=0)
