"""The batched serving loop: static, priority, speculative, pipeline and RAG.

One process (:func:`repro.serving.batched.batched_serving_process`) serves
all five policies. Its clock moves by exactly the steps it books, so no
step overlaps the one before it, not even by an ulp, the compute stream
ends exactly where the last step does, a chunked prefill cannot
report the whole-prompt TTFT, and no request completes after its batch's
last step ends; every outcome, batched or continuous, is its recorded
span exactly; outcomes must not depend on the event queue's tie-break
order; and every policy resolves to one of two processes.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.obs.events import StepKind
from repro.serving import (ContinuousBatchPolicy, LatencyModel,
                           PriorityPolicy, poisson_requests, simulate_serving)
from repro.serving.batched import batched_serving_process
from repro.serving.continuous import continuous_batching_process
from repro.serving.runtime import policy_process
from repro.workloads import GPT2
from tests.perf.test_step_bookkeeping_parity import fingerprint
from tests.scenarios import (BATCHED_POLICIES, batched_policy, batched_run,
                             chunked_run, cluster_run, pressured_run,
                             tiebreak_pair)

PLATFORMS = ("GH200", "AMD+A100")


@pytest.fixture(scope="module")
def latencies():
    """One warm latency model per platform for the whole module."""
    return {platform: LatencyModel(get_platform(platform))
            for platform in PLATFORMS}


def _cases():
    for platform in PLATFORMS:
        for name in BATCHED_POLICIES:
            for chunk_tokens in (0, 64, 256):
                if name == "static" and chunk_tokens:
                    continue   # static batching has no chunked mode
                yield pytest.param(name, platform, chunk_tokens,
                                   id=f"{name}-{platform}-{chunk_tokens}")


def _prefill_end(steps, admitted_ns):
    """End of the first prefill (whole, or its run of chunks) of the batch
    admitted at ``admitted_ns``: retrieval steps may come first."""
    i = next(i for i, step in enumerate(steps) if step.ts_ns >= admitted_ns)
    while steps[i].kind not in (StepKind.PREFILL, StepKind.PREFILL_CHUNK):
        i += 1
    if steps[i].kind is StepKind.PREFILL_CHUNK:
        while (i + 1 < len(steps)
               and steps[i + 1].kind is StepKind.PREFILL_CHUNK):
            i += 1
    return steps[i].ts_ns + steps[i].dur_ns


def _check_batch_completions(recorder, steps, requests):
    """No request of a batch completes after the batch's last step ends,
    and those charged its whole generation (the longest output) complete
    exactly there. A batch is the requests one replica admitted at once."""
    spans = recorder.spans
    launches = sorted({spans[r.request_id].admitted_ns for r in requests})
    for launch, next_launch in zip(launches, launches[1:] + [math.inf]):
        batch = [r for r in requests
                 if spans[r.request_id].admitted_ns == launch]
        last = [s for s in steps if launch <= s.ts_ns < next_launch][-1]
        end = last.ts_ns + last.dur_ns
        longest = max(r.output_tokens for r in batch)
        for request in batch:
            completed = spans[request.request_id].completed_ns
            assert completed <= end, (request, completed, end)
            if request.output_tokens == longest:
                assert completed == end, (request, completed, end)


@pytest.mark.parametrize("name,platform,chunk_tokens", list(_cases()))
def test_steps_and_first_tokens_follow_the_booked_clock(name, platform,
                                                        chunk_tokens,
                                                        latencies):
    recorder = RunRecorder()
    requests, run = batched_run(name, get_platform(platform), chunk_tokens,
                                recorder=recorder,
                                latency=latencies[platform])
    assert len(run.outcomes) == len(requests)
    if chunk_tokens:
        assert recorder.counters.get("steps_prefill_chunk") > 0
    for session in run.sessions:
        steps = [s for s in recorder.steps if s.replica == session.replica]
        for before, after in zip(steps, steps[1:]):
            assert after.ts_ns >= before.ts_ns + before.dur_ns, (before,
                                                                 after)
        last = steps[-1].ts_ns + steps[-1].dur_ns
        assert session.devices[0].compute_stream.free_at == last
        _check_batch_completions(recorder, steps, [
            o.request for o in run.outcomes if o.replica == session.replica])
    for outcome in run.outcomes:
        span = recorder.spans[outcome.request.request_id]
        steps = [s for s in recorder.steps if s.replica == outcome.replica]
        assert span.first_token_ns == _prefill_end(steps, span.admitted_ns)
        assert outcome.ttft_ns == (
            span.first_token_ns - outcome.request.arrival_ns)


def _assert_outcomes_are_spans(recorder, outcomes):
    """Every outcome is its recorded span, exactly: TTFT and completion
    latency are the span's booked times minus its arrival."""
    assert outcomes
    for outcome in outcomes:
        span = recorder.spans[outcome.request.request_id]
        assert outcome.ttft_ns == span.first_token_ns - span.arrival_ns, (
            outcome, span)
        assert outcome.completion_ns == span.completed_ns - span.arrival_ns, (
            outcome, span)


def _span_cases():
    for platform in PLATFORMS:
        for name in BATCHED_POLICIES:
            for chunk_tokens in (0, 64):
                if name == "static" and chunk_tokens:
                    continue
                for replicas in (1, 2):
                    yield pytest.param(
                        name, platform, chunk_tokens, replicas,
                        id=f"{name}-{platform}-{chunk_tokens}-x{replicas}")


@pytest.mark.parametrize("name,platform,chunk_tokens,replicas",
                         list(_span_cases()))
def test_batched_outcomes_are_their_recorded_spans(name, platform,
                                                   chunk_tokens, replicas,
                                                   latencies):
    recorder = RunRecorder()
    _, run = batched_run(name, get_platform(platform), chunk_tokens,
                         replicas=replicas, recorder=recorder,
                         latency=latencies[platform])
    _assert_outcomes_are_spans(recorder, run.outcomes)


@pytest.mark.parametrize("serve", [
    lambda recorder: chunked_run(get_platform("GH200"), recorder=recorder),
    lambda recorder: pressured_run(get_platform("GH200"), KvPolicy.OFFLOAD,
                                   recorder=recorder),
    lambda recorder: cluster_run(get_platform("GH200"), recorder=recorder),
], ids=["flat", "kv-gated", "cluster"])
def test_continuous_outcomes_are_their_recorded_spans(serve):
    recorder = RunRecorder()
    _, run = serve(recorder)
    _assert_outcomes_are_spans(recorder, run.outcomes)


@pytest.mark.parametrize("name", BATCHED_POLICIES)
def test_two_replicas_survive_tiebreak_perturbation(name, latencies):
    def serve(queue):
        recorder = RunRecorder()
        _, run = batched_run(name, get_platform("GH200"), replicas=2,
                             recorder=recorder, queue=queue,
                             latency=latencies["GH200"])
        assert {o.replica for o in run.outcomes} == {0, 1}
        rows = [(o.request.request_id, o.replica, o.batch_size, o.ttft_ns,
                 o.completion_ns, o.queue_ns) for o in run.outcomes]
        return rows, fingerprint(recorder, run)

    baseline, perturbed = tiebreak_pair(serve)
    assert baseline == perturbed


def test_two_processes_serve_every_policy():
    kv = KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.04)
    assert policy_process(ContinuousBatchPolicy()) is (
        continuous_batching_process)
    assert policy_process(ContinuousBatchPolicy(), kv) is (
        continuous_batching_process)
    for name in BATCHED_POLICIES:
        assert policy_process(batched_policy(name)) is (
            batched_serving_process)
        with pytest.raises(ConfigurationError, match="require continuous"):
            policy_process(batched_policy(name), kv)
    with pytest.raises(ConfigurationError, match="no serving process"):
        policy_process(object())


def test_priority_rejects_requests_without_a_service_class(latencies):
    # Untagged requests match neither class; the claim must fail rather than
    # wake at the same instant forever.
    requests = poisson_requests(rate_per_s=40, duration_s=0.1, prompt_len=64,
                                output_tokens=4, seed=1)
    with pytest.raises(ConfigurationError, match="no service class"):
        simulate_serving(requests, GPT2, latencies["GH200"],
                         policy=PriorityPolicy())
