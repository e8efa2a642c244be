"""Static-batching serving loop."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import INTEL_H100
from repro.serving import (
    LatencyModel,
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
    return poisson_requests(rate_per_s=40, duration_s=1.0, prompt_len=256,
                            output_tokens=8, seed=7)


def test_every_request_served(latency, stream):
    report = simulate_serving(stream, GPT2, latency,
                              StaticBatchPolicy()).report
    assert len(report.outcomes) == len(stream)
    served = {o.request.request_id for o in report.outcomes}
    assert served == {r.request_id for r in stream}


def test_latency_ordering_invariants(latency, stream):
    report = simulate_serving(stream, GPT2, latency,
                              StaticBatchPolicy()).report
    for outcome in report.outcomes:
        assert outcome.queue_ns >= 0
        assert outcome.ttft_ns > outcome.queue_ns
        assert outcome.completion_ns >= outcome.ttft_ns


def test_bs1_policy_minimizes_ttft_but_costs_throughput(latency, stream):
    single = simulate_serving(stream, GPT2, latency,
                              StaticBatchPolicy(max_batch_size=1)).report
    batched = simulate_serving(stream, GPT2, latency,
                               StaticBatchPolicy(max_batch_size=16)).report
    assert batched.mean_batch_size() > single.mean_batch_size()
    assert single.mean_batch_size() == 1.0
    # Batch-16 prefill is slower per call than BS=1 prefill.
    bs1_ttft = latency.ttft_ns(GPT2, 1, 256)
    bs16_ttft = latency.ttft_ns(GPT2, 16, 256)
    assert bs16_ttft > bs1_ttft


def test_batches_respect_max_size(latency, stream):
    report = simulate_serving(stream, GPT2, latency,
                              StaticBatchPolicy(max_batch_size=4)).report
    assert all(o.batch_size <= 4 for o in report.outcomes)


def test_report_statistics(latency, stream):
    report = simulate_serving(stream, GPT2, latency,
                              StaticBatchPolicy()).report
    assert report.p99_ttft_ns() >= report.mean_ttft_ns() * 0.5
    assert report.mean_completion_ns() >= report.mean_ttft_ns()
    assert report.throughput_tokens_per_s() > 0


def test_empty_inputs_rejected(latency):
    with pytest.raises(ConfigurationError):
        simulate_serving([], GPT2, latency, StaticBatchPolicy())


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        StaticBatchPolicy(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        StaticBatchPolicy(max_wait_ns=-1.0)
