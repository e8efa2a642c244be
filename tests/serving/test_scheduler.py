"""Priority-aware ("intelligent") scheduling."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import GH200
from repro.serving import (
    LatencyModel,
    ServingReport,
    StaticBatchPolicy,
    poisson_requests,
    simulate_serving,
)
from repro.serving.scheduler import (
    ClassifiedRequest,
    PriorityPolicy,
    RequestClass,
)
from repro.workloads import GPT2


def _serve(classified, latency, policy=PriorityPolicy()):
    """Per-class reports of one priority serve, keyed by request class."""
    classes = {c.request.request_id: c.request_class for c in classified}
    outcomes = simulate_serving(classified, GPT2, latency, policy).outcomes
    return {cls: ServingReport([o for o in outcomes
                                if classes[o.request.request_id] is cls])
            for cls in RequestClass}


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
    outcomes = simulate_serving(classified_stream, GPT2, latency,
                                PriorityPolicy()).outcomes
    served = {o.request.request_id for o in outcomes}
    assert served == {c.request.request_id for c in classified_stream}


def test_interactive_runs_small_bulk_runs_big(latency, classified_stream):
    policy = PriorityPolicy(interactive_batch=2, bulk_batch=16)
    report = _serve(classified_stream, latency, policy)
    assert all(o.batch_size <= 2
               for o in report[RequestClass.INTERACTIVE].outcomes)
    assert report[RequestClass.BULK].mean_batch_size() > 4


def test_interactive_ttft_beats_bulk(latency, classified_stream):
    report = _serve(classified_stream, latency)
    assert (report[RequestClass.INTERACTIVE].mean_ttft_ns()
            < report[RequestClass.BULK].mean_ttft_ns())


def test_priority_beats_fifo_for_interactive(latency, classified_stream):
    """The paper's scheduling lever: on GH200 the two-class scheduler keeps
    interactive TTFT far below a single FIFO batch queue."""
    report = _serve(classified_stream, latency)
    fifo = simulate_serving(
        [c.request for c in classified_stream], GPT2, latency,
        StaticBatchPolicy(max_batch_size=16, max_wait_ns=100e6)).report
    interactive_ids = {c.request.request_id for c in classified_stream
                       if c.request_class is RequestClass.INTERACTIVE}
    fifo_interactive = [o.ttft_ns for o in fifo.outcomes
                        if o.request.request_id in interactive_ids]
    fifo_mean = sum(fifo_interactive) / len(fifo_interactive)
    assert report[RequestClass.INTERACTIVE].mean_ttft_ns() < fifo_mean


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
    report = _serve(classified, latency,
                    PriorityPolicy(bulk_batch=64, bulk_max_wait_ns=50e6))
    assert len(report[RequestClass.BULK].outcomes) == 5


def test_validation(latency):
    with pytest.raises(ConfigurationError):
        simulate_serving([], GPT2, latency, PriorityPolicy())
    with pytest.raises(ConfigurationError):
        PriorityPolicy(interactive_batch=0)


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
    report = _serve(classified, latency)
    by_id = {o.request.request_id: o
             for o in report[RequestClass.BULK].outcomes}
    batch = by_id[0].batch_size
    assert batch == 3
    for outcome in by_id.values():
        expected = outcome.queue_ns + latency.generation_ns(
            GPT2, batch, 128, outcome.request.output_tokens)
        assert outcome.completion_ns == expected
    assert by_id[1].completion_ns < by_id[0].completion_ns

