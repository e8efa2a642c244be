"""Priority-aware ("intelligent") scheduling."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import GH200
from repro.serving import LatencyModel, StaticBatchPolicy, poisson_requests
from repro.serving.batcher import simulate_static_batching
from repro.serving.scheduler import (
    ClassifiedRequest,
    PriorityPolicy,
    RequestClass,
    simulate_priority_scheduling,
)
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def latency():
    return LatencyModel(GH200)


@pytest.fixture(scope="module")
def classified_stream():
    # Moderate load: priority scheduling needs spare capacity to pay off —
    # under heavy overload every policy degenerates to max-throughput
    # batching.
    stream = poisson_requests(rate_per_s=20, duration_s=2.0, prompt_len=256,
                              output_tokens=4, seed=13)
    # Every 4th request is interactive; the rest are bulk.
    return [ClassifiedRequest(
        request=request,
        request_class=(RequestClass.INTERACTIVE if request.request_id % 4 == 0
                       else RequestClass.BULK))
        for request in stream]


def test_every_request_served(latency, classified_stream):
    report = simulate_priority_scheduling(classified_stream, GPT2, latency)
    served = {o.request.request_id for o in report.all_outcomes}
    assert served == {c.request.request_id for c in classified_stream}


def test_interactive_runs_small_bulk_runs_big(latency, classified_stream):
    policy = PriorityPolicy(interactive_batch=2, bulk_batch=16)
    report = simulate_priority_scheduling(classified_stream, GPT2, latency,
                                          policy)
    assert all(o.batch_size <= 2 for o in report.interactive.outcomes)
    assert report.bulk.mean_batch_size() > 4


def test_interactive_ttft_beats_bulk(latency, classified_stream):
    report = simulate_priority_scheduling(classified_stream, GPT2, latency)
    assert (report.interactive.mean_ttft_ns()
            < report.bulk.mean_ttft_ns())


def test_priority_beats_fifo_for_interactive(latency, classified_stream):
    """The paper's scheduling lever: on GH200 the two-class scheduler keeps
    interactive TTFT far below a single FIFO batch queue."""
    report = simulate_priority_scheduling(classified_stream, GPT2, latency)
    fifo = simulate_static_batching(
        [c.request for c in classified_stream], GPT2, latency,
        StaticBatchPolicy(max_batch_size=16, max_wait_ns=100e6))
    interactive_ids = {c.request.request_id for c in classified_stream
                       if c.request_class is RequestClass.INTERACTIVE}
    fifo_interactive = [o.ttft_ns for o in fifo.outcomes
                        if o.request.request_id in interactive_ids]
    fifo_mean = sum(fifo_interactive) / len(fifo_interactive)
    assert report.interactive.mean_ttft_ns() < fifo_mean


def test_bulk_starvation_guard(latency):
    # Constant interactive pressure; a handful of bulk requests must still
    # finish thanks to the max-wait guard.
    stream = poisson_requests(rate_per_s=100, duration_s=0.5, prompt_len=128,
                              output_tokens=4, seed=21)
    classified = [ClassifiedRequest(
        request=request,
        request_class=(RequestClass.BULK if request.request_id < 5
                       else RequestClass.INTERACTIVE))
        for request in stream]
    report = simulate_priority_scheduling(
        classified, GPT2, latency,
        PriorityPolicy(bulk_batch=64, bulk_max_wait_ns=50e6))
    assert len(report.bulk.outcomes) == 5


def test_validation(latency, classified_stream):
    with pytest.raises(ConfigurationError):
        simulate_priority_scheduling([], GPT2, latency)
    with pytest.raises(ConfigurationError):
        PriorityPolicy(interactive_batch=0)
    only_bulk = [ClassifiedRequest(c.request, RequestClass.BULK)
                 for c in classified_stream]
    with pytest.raises(ConfigurationError):
        simulate_priority_scheduling(only_bulk, GPT2, latency)


def test_bulk_completion_charges_own_output_length(latency):
    """Regression: bulk batches used to charge every member the batch's
    *max* output length, so a 2-token request in a batch with a 64-token
    straggler reported a 64-token completion. Per-request completions must
    use each request's own generation time."""
    from repro.serving import Request

    short, long = 2, 64
    classified = [
        ClassifiedRequest(
            request=Request(request_id=i, arrival_ns=0.0, prompt_len=128,
                            output_tokens=(long if i == 0 else short)),
            request_class=(RequestClass.INTERACTIVE if i == 3
                           else RequestClass.BULK))
        for i in range(4)
    ]
    report = simulate_priority_scheduling(classified, GPT2, latency)
    by_id = {o.request.request_id: o for o in report.bulk.outcomes}
    batch = by_id[0].batch_size
    assert batch == 3
    for outcome in by_id.values():
        expected = outcome.queue_ns + latency.generation_ns(
            GPT2, batch, 128, outcome.request.output_tokens)
        assert outcome.completion_ns == expected
    assert by_id[1].completion_ns < by_id[0].completion_ns

