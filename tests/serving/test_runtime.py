"""The sim-backed serving runtime: admission queue, sessions, scale-out."""

import pytest

from repro.check import check_serving_schedules, schedules_from_trace
from repro.check.tracelint import lint_trace
from repro.engine import TPConfig
from repro.errors import ConfigurationError, SimulationError
from repro.hardware import INTEL_H100
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder, recording_to_trace
from repro.serving import (
    AdmissionQueue,
    ClusterRuntime,
    ContinuousBatchPolicy,
    LatencyModel,
    Request,
    ServingRuntime,
    StaticBatchPolicy,
    poisson_requests,
    simulate_serving,
)
from repro.workloads import GPT2
from tests import scenarios
from tests.check.test_tracelint import assert_sweep_matches_reference
from tests.perf.test_segment_parity import assert_segments_match


@pytest.fixture(scope="module")
def latency():
    return LatencyModel(INTEL_H100)


@pytest.fixture(scope="module")
def overloaded_stream():
    return scenarios.overloaded_stream()


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------

def _requests(arrivals):
    return [Request(request_id=i, arrival_ns=t, prompt_len=64,
                    output_tokens=4) for i, t in enumerate(arrivals)]


def test_admission_queue_rejects_empty():
    with pytest.raises(ConfigurationError):
        AdmissionQueue([])


def test_admission_queue_orders_by_arrival():
    queue = AdmissionQueue(_requests([30.0, 10.0, 20.0]))
    assert [e.request.request_id for e in queue.entries] == [1, 2, 0]


def test_claim_is_oldest_first_and_bounded():
    queue = AdmissionQueue(_requests([0.0, 1.0, 2.0, 50.0]))
    claimed = queue.claim(now=10.0, limit=2)
    assert [r.request_id for r in claimed] == [0, 1]
    assert not queue.all_claimed()
    assert queue.first_unclaimed().request.request_id == 2


def test_claim_batch_rejects_claimed_seed():
    queue = AdmissionQueue(_requests([0.0, 1.0]))
    seed = queue.first_unclaimed()
    queue.claim(now=5.0, limit=1)
    with pytest.raises(SimulationError):
        queue.claim_batch(seed, limit=4, cutoff=10.0)


def test_depth_counts_only_arrived_unclaimed():
    queue = AdmissionQueue(_requests([0.0, 5.0, 100.0]))
    assert queue.depth(now=10.0) == 2
    queue.claim(now=10.0, limit=1)
    assert queue.depth(now=10.0) == 1


# ----------------------------------------------------------------------
# Runtime + scale-out
# ----------------------------------------------------------------------

def test_replicas_must_be_positive(latency, overloaded_stream):
    with pytest.raises(ConfigurationError):
        simulate_serving(overloaded_stream, GPT2, latency, replicas=0)


def test_unknown_policy_rejected(latency, overloaded_stream):
    with pytest.raises(ConfigurationError):
        simulate_serving(overloaded_stream, GPT2, latency, policy=object())


def test_non_request_input_rejected(latency):
    with pytest.raises(ConfigurationError):
        simulate_serving(["nope"], GPT2, latency)


def test_every_request_served_once(latency, overloaded_stream):
    result = simulate_serving(overloaded_stream, GPT2, latency,
                              policy=ContinuousBatchPolicy(max_active=8),
                              replicas=2)
    served = [o.request.request_id for o in result.report.outcomes]
    assert sorted(served) == sorted(r.request_id for r in overloaded_stream)


# ----------------------------------------------------------------------
# Run-end conservation, flat and routed
# ----------------------------------------------------------------------

def _stub(skip=(), twice=(), hold_kv=False, skew_ns=0.0):
    """A policy process that claims its queue once every request can have
    reached it, then completes each claimed request except those in
    ``skip`` (those in ``twice`` twice), optionally keeping a KV block.
    Each request's span records its first token ``skew_ns`` before the
    time its outcome is completed with."""
    def process(runtime, session):
        now = yield ("at", 1e9)
        for request in session.queue.claim(now, 1 << 30):
            if hold_kv:
                session.kv.try_allocate(request.request_id, 1, now)
            if request.request_id in skip:
                continue
            runtime.recorder.on_admitted(request.request_id,
                                         request.arrival_ns, now)
            runtime.recorder.on_first_token(request.request_id, now)
            for _ in range(2 if request.request_id in twice else 1):
                runtime.complete(request, now + skew_ns, now + 1.0,
                                 batch_size=1, service_start_ns=now,
                                 session=session)
    return process


def _unclaiming(runtime, session):
    """A policy process that leaves every request in its queue."""
    yield ("at", 1e9)


@pytest.mark.parametrize("runtime_cls", [ServingRuntime, ClusterRuntime])
@pytest.mark.parametrize("factory,kv,match", [
    pytest.param(_unclaiming, None, "unserved", id="unclaimed"),
    pytest.param(_stub(skip={1}, twice={0}), None, "more than once",
                 id="completed-twice"),
    pytest.param(_stub(twice={0}), None, "outcomes for", id="extra-outcome"),
    pytest.param(_stub(hold_kv=True),
                 KvCacheConfig(policy=KvPolicy.RECOMPUTE, pool_gib=0.04),
                 "leaked", id="kv-leak"),
    pytest.param(_stub(skew_ns=1e-6), None, "disagrees with its recorded",
                 id="outcome-off-its-span"),
])
def test_run_end_checks_catch_a_faulty_policy(runtime_cls, factory, kv,
                                              match, latency):
    runtime = runtime_cls(_requests([0.0, 1e3, 2e3]), GPT2, latency,
                          recorder=RunRecorder(), replicas=1, kv=kv)
    with pytest.raises(SimulationError, match=match):
        runtime.run(factory)


def test_scale_out_beats_one_replica(latency, overloaded_stream):
    """The headline: 4 replicas on a saturating stream more than double
    the tokens/s of 1 replica (the acceptance bar for this refactor)."""
    policy = ContinuousBatchPolicy(max_active=8)
    single = simulate_serving(overloaded_stream, GPT2, latency, policy=policy,
                              replicas=1)
    quad = simulate_serving(overloaded_stream, GPT2, latency, policy=policy,
                            replicas=4)
    assert (quad.throughput_tokens_per_s
            > 2.0 * single.throughput_tokens_per_s)


def test_work_spreads_across_replicas(latency, overloaded_stream):
    result = simulate_serving(overloaded_stream, GPT2, latency,
                              policy=ContinuousBatchPolicy(max_active=8),
                              replicas=4)
    assert len(result.replicas) == 4
    assert all(stats.requests > 0 for stats in result.replicas)
    assert (sum(stats.requests for stats in result.replicas)
            == len(overloaded_stream))
    assert {o.replica for o in result.report.outcomes} == {0, 1, 2, 3}


def test_static_policy_scales_out_too(latency, overloaded_stream):
    result = simulate_serving(overloaded_stream, GPT2, latency,
                              policy=StaticBatchPolicy(max_batch_size=8),
                              replicas=2)
    assert len(result.report.outcomes) == len(overloaded_stream)
    assert {o.replica for o in result.report.outcomes} == {0, 1}


def test_default_policy_is_continuous(latency):
    stream = poisson_requests(rate_per_s=20, duration_s=0.3, seed=1)
    result = simulate_serving(stream, GPT2, latency)
    assert len(result.report.outcomes) == len(stream)


# ----------------------------------------------------------------------
# Checkability: serving runs satisfy the static verifiers
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tp2_run(overloaded_stream):
    latency_tp = LatencyModel(INTEL_H100, tp=TPConfig(degree=2))
    recorder = RunRecorder()
    result = simulate_serving(overloaded_stream, GPT2, latency_tp,
                              policy=ContinuousBatchPolicy(max_active=8),
                              replicas=2, recorder=recorder)
    return result, recorder, latency_tp


def test_serving_schedules_check_clean(tp2_run):
    result, _recorder, _latency = tp2_run
    report = check_serving_schedules(result.sessions)
    assert report.ok
    assert not report.findings


@pytest.fixture(scope="module")
def tp2_export(tp2_run):
    """The 2-replica TP=2 run as one Chrome-exportable trace."""
    result, recorder, latency_tp = tp2_run
    return recording_to_trace(recorder, latency_tp, GPT2,
                              devices_per_replica=result.devices_per_replica)


def test_multi_replica_trace_lints_clean(tp2_export):
    assert lint_trace(tp2_export) == []


def test_lint_sweep_matches_its_per_iteration_form(tp2_export):
    assert assert_sweep_matches_reference(tp2_export) == 54


def test_kernel_segments_match_their_per_iteration_form(tp2_export):
    assert len(assert_segments_match(tp2_export)) == 54


def test_trace_schedules_cover_all_devices(tp2_export):
    schedules = schedules_from_trace(tp2_export)
    # 2 replicas x TP=2 devices, offset into disjoint device ids.
    assert [s.device for s in schedules] == [0, 1, 2, 3]
    assert all(s.items for s in schedules)
