"""Serving-loop edge cases: degenerate streams, tight policies, recording.

No request may ever be dropped and recorded timestamps must be monotone, no
matter how awkward the arrival stream is.
"""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import INTEL_H100
from repro.obs import RunRecorder
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    Request,
    StaticBatchPolicy,
    simulate_serving,
)
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def latency():
    return LatencyModel(INTEL_H100)


def _assert_all_served(report, requests):
    assert {o.request.request_id for o in report.outcomes} == {
        r.request_id for r in requests}
    for outcome in report.outcomes:
        assert outcome.ttft_ns > 0
        assert outcome.completion_ns >= outcome.ttft_ns


def _assert_spans_monotone(recorder):
    for span in recorder.spans.values():
        assert span.arrival_ns <= span.admitted_ns
        assert span.admitted_ns <= span.first_token_ns
        assert span.first_token_ns <= span.completed_ns
    starts = [s.ts_ns for s in recorder.steps]
    assert starts == sorted(starts)


def test_empty_request_list_rejected(latency):
    with pytest.raises(ConfigurationError):
        simulate_serving([], GPT2, latency)
    with pytest.raises(ConfigurationError):
        simulate_serving([], GPT2, latency, StaticBatchPolicy())


def test_max_active_one_serializes_requests(latency):
    requests = [Request(i, i * 1e6, prompt_len=64, output_tokens=3)
                for i in range(4)]
    recorder = RunRecorder()
    report = simulate_serving(
        requests, GPT2, latency, ContinuousBatchPolicy(max_active=1),
        recorder=recorder).report
    _assert_all_served(report, requests)
    _assert_spans_monotone(recorder)
    for step in recorder.steps:
        assert step.batch_size == 1
    # One at a time: completions are strictly ordered by request id.
    completions = sorted(recorder.completed_spans(),
                         key=lambda s: s.request_id)
    for earlier, later in zip(completions, completions[1:]):
        assert earlier.completed_ns <= later.completed_ns


def test_request_longer_than_context_bucket(latency):
    """One request whose context outgrows the bucket is still served."""
    policy = ContinuousBatchPolicy(max_active=2, context_bucket=128)
    requests = [Request(0, 0.0, prompt_len=700, output_tokens=5)]
    recorder = RunRecorder()
    report = simulate_serving(requests, GPT2, latency, policy,
                              recorder=recorder).report
    _assert_all_served(report, requests)
    _assert_spans_monotone(recorder)
    decode_steps = [s for s in recorder.steps if s.kind.value == "decode"]
    # Prefill emits the first token, so 5 output tokens take 4 decode steps.
    assert len(decode_steps) == 4
    # Context buckets round *up*, so the priced context covers the prompt.
    for step in decode_steps:
        assert step.shape.context_len >= 700


def test_simultaneous_arrivals_all_admitted(latency):
    requests = [Request(i, 5e6, prompt_len=64, output_tokens=2)
                for i in range(6)]
    recorder = RunRecorder()
    report = simulate_serving(
        requests, GPT2, latency, ContinuousBatchPolicy(max_active=8),
        recorder=recorder).report
    _assert_all_served(report, requests)
    _assert_spans_monotone(recorder)
    admitted = {s.admitted_ns for s in recorder.spans.values()}
    assert len(admitted) == 1  # one prefill batch takes all of them


def test_simultaneous_arrivals_static(latency):
    requests = [Request(i, 0.0, prompt_len=64, output_tokens=2)
                for i in range(5)]
    recorder = RunRecorder()
    report = simulate_serving(
        requests, GPT2, latency, StaticBatchPolicy(max_batch_size=3),
        recorder=recorder).report
    _assert_all_served(report, requests)
    _assert_spans_monotone(recorder)
    assert sorted(o.batch_size for o in report.outcomes) == [2, 2, 3, 3, 3]
