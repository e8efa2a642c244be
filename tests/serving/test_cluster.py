"""Cluster tier: router policies, conservation, autoscaling, determinism."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.serving.batcher import StaticBatchPolicy
from repro.serving.cluster import (
    AutoscaleConfig,
    ClusterRuntime,
    RouterPolicy,
    ScaleEvent,
    _delayed,
    simulate_cluster,
)
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.requests import ServingRequest, poisson_requests
from repro.workloads import GPT2

from tests.scenarios import cluster_run, cluster_stream, tiebreak_pair

GH200 = get_platform("GH200")


def _simple_stream(n=24, gap_ns=1.5e6, prompt=128, output=16):
    return [ServingRequest(request_id=i, arrival_ns=i * gap_ns,
                           prompt_len=prompt, output_tokens=output)
            for i in range(n)]


def _rows(result):
    return [(o.request.request_id, o.ttft_ns, o.completion_ns,
             o.batch_size, o.queue_ns, o.replica) for o in result.outcomes]


# ----------------------------------------------------------------------
# Conservation across every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("router", list(RouterPolicy))
def test_every_request_served_exactly_once(router):
    requests = cluster_stream()
    latency = LatencyModel(platform=GH200)
    result = simulate_cluster(requests, GPT2, latency, router=router,
                              replicas=4)
    assert sorted(o.request.request_id for o in result.outcomes) == sorted(
        r.request_id for r in requests)
    assert result.router is not None
    assert result.router.routed == len(requests)
    assert sum(result.router.routed_per_replica) == len(requests)
    assert result.router.policy == router.value


def test_round_robin_splits_evenly():
    result = simulate_cluster(_simple_stream(), GPT2,
                              LatencyModel(platform=GH200),
                              router="round-robin", replicas=4)
    assert result.router.routed_per_replica == (6, 6, 6, 6)


def test_routing_costs_cpu_time():
    # The first arrival hits an idle cluster, so its entire queue delay is
    # the router's decision cost — launch-call work on the platform model.
    result = simulate_cluster(_simple_stream(), GPT2,
                              LatencyModel(platform=GH200),
                              router="round-robin", replicas=4)
    first = min(result.outcomes, key=lambda o: o.request.arrival_ns)
    assert first.queue_ns == pytest.approx(result.router.route_cost_ns)
    assert result.router.route_cost_ns == pytest.approx(
        GH200.launch_call_cpu_ns)
    assert result.router.router_busy_ns == pytest.approx(
        result.router.routed * result.router.route_cost_ns)


# ----------------------------------------------------------------------
# Policy-specific placement
# ----------------------------------------------------------------------
def test_session_affinity_holds_per_session():
    requests = cluster_stream()
    assert any(r.session for r in requests)
    result = simulate_cluster(requests, GPT2, LatencyModel(platform=GH200),
                              router=RouterPolicy.SESSION, replicas=4)
    placed = {}
    for outcome in result.outcomes:
        session = outcome.request.session
        if session is None:
            continue
        placed.setdefault(session, set()).add(outcome.replica)
    assert placed
    for session, replicas in placed.items():
        assert len(replicas) == 1, (session, replicas)
    assert result.router.sessions == len(placed)


def test_disaggregated_separates_prefill_heavy_requests():
    heavy = [ServingRequest(request_id=i, arrival_ns=i * 2e6,
                            prompt_len=512, output_tokens=8)
             for i in range(8)]
    light = [ServingRequest(request_id=100 + i, arrival_ns=1e5 + i * 2e6,
                            prompt_len=32, output_tokens=64)
             for i in range(8)]
    result = simulate_cluster(heavy + light, GPT2,
                              LatencyModel(platform=GH200),
                              router="disaggregated", replicas=4)
    prefill_pool = {0, 1}   # first replicas // 2
    for outcome in result.outcomes:
        if outcome.request.request_id < 100:
            assert outcome.replica in prefill_pool
        else:
            assert outcome.replica not in prefill_pool


def test_disaggregated_needs_two_replicas():
    with pytest.raises(ConfigurationError, match="at least two replicas"):
        simulate_cluster(_simple_stream(), GPT2,
                         LatencyModel(platform=GH200),
                         router="disaggregated", replicas=1)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_unknown_router_policy_rejected():
    with pytest.raises(ConfigurationError, match="unknown router policy"):
        simulate_cluster(_simple_stream(), GPT2,
                         LatencyModel(platform=GH200), router="best-effort")


def test_cluster_requires_continuous_batching():
    with pytest.raises(ConfigurationError, match="continuous batching"):
        simulate_cluster(_simple_stream(), GPT2,
                         LatencyModel(platform=GH200),
                         policy=StaticBatchPolicy(max_batch_size=4))


def test_non_positive_launch_cost_rejected_not_clamped():
    # The router prices each decision at launch_call_cpu_ns; a platform
    # reporting a free dispatch is a broken configuration, not something
    # to clamp to 1ns silently.
    class _FreeDispatchPlatform:
        name = "free-dispatch"
        launch_call_cpu_ns = 0.0

    class _FreeDispatchLatency:
        platform = _FreeDispatchPlatform()

    with pytest.raises(ConfigurationError, match="launch_call_cpu_ns"):
        ClusterRuntime(_simple_stream(4), GPT2, _FreeDispatchLatency(),
                       replicas=2)


def test_empty_stream_rejected():
    with pytest.raises(ConfigurationError, match="no requests"):
        simulate_cluster([], GPT2, LatencyModel(platform=GH200))


def test_duplicate_request_ids_rejected():
    request = ServingRequest(request_id=1, arrival_ns=0.0, prompt_len=8,
                             output_tokens=2)
    with pytest.raises(ConfigurationError, match="duplicate"):
        simulate_cluster([request, request], GPT2,
                         LatencyModel(platform=GH200))


def test_duplicate_request_ids_rejected_by_the_flat_runtime():
    # The admission queue rejects them up front, before any simulation.
    from repro.serving.runtime import simulate_serving

    request = ServingRequest(request_id=1, arrival_ns=0.0, prompt_len=8,
                             output_tokens=2)
    with pytest.raises(ConfigurationError, match="duplicate"):
        simulate_serving([request, request], GPT2,
                         LatencyModel(platform=GH200))


def test_routed_queue_rejects_out_of_order_pushes():
    runtime = ClusterRuntime(
        _simple_stream(4), GPT2, LatencyModel(platform=GH200), replicas=2)
    queue = runtime.sessions[0].queue
    queue.push(ServingRequest(request_id=90, arrival_ns=5e6, prompt_len=8,
                              output_tokens=2))
    with pytest.raises(SimulationError, match="arrival order"):
        queue.push(ServingRequest(request_id=91, arrival_ns=1e6,
                                  prompt_len=8, output_tokens=2))


# ----------------------------------------------------------------------
# The delayed-start trampoline
# ----------------------------------------------------------------------
def test_delayed_clamps_only_the_first_timer():
    def inner():
        got = yield ("at", 0.0)
        got = yield ("at", got + 5.0)
        yield ("at", 2.0)     # later low timers pass through verbatim

    gen = _delayed(inner(), start_ns=100.0)
    assert next(gen) == ("at", 100.0)
    assert gen.send(100.0) == ("at", 105.0)
    assert gen.send(105.0) == ("at", 2.0)
    with pytest.raises(StopIteration):
        gen.send(105.0)


def test_delayed_does_not_hold_back_a_late_start():
    def inner():
        yield ("at", 500.0)

    gen = _delayed(inner(), start_ns=100.0)
    assert next(gen) == ("at", 500.0)


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
def test_autoscale_grows_the_pool_under_backlog():
    requests = [ServingRequest(request_id=i, arrival_ns=i * 1e4,
                               prompt_len=256, output_tokens=64)
                for i in range(40)]
    result = simulate_cluster(
        requests, GPT2, LatencyModel(platform=GH200),
        router="least-loaded", replicas=2,
        autoscale=AutoscaleConfig(max_replicas=6, backlog_per_replica=4,
                                  spinup_dispatch_ops=100))
    stats = result.router
    assert stats.scale_events
    assert 2 < stats.replicas <= 6
    assert len(stats.routed_per_replica) == stats.replicas
    # Scale events record the growing pool and the modeled spin-up cost.
    counts = [event.replicas for event in stats.scale_events]
    assert counts == sorted(counts)
    for event in stats.scale_events:
        assert event.spinup_ns == pytest.approx(
            100 * GH200.launch_call_cpu_ns)
    # Conservation still holds with replicas appearing mid-run.
    assert len(result.outcomes) == len(requests)
    # Autoscaled replicas actually served work.
    assert any(o.replica >= 2 for o in result.outcomes)


def test_autoscale_respects_the_ceiling():
    requests = [ServingRequest(request_id=i, arrival_ns=i * 1e3,
                               prompt_len=256, output_tokens=64)
                for i in range(60)]
    result = simulate_cluster(
        requests, GPT2, LatencyModel(platform=GH200),
        replicas=2,
        autoscale=AutoscaleConfig(max_replicas=3, backlog_per_replica=2,
                                  spinup_dispatch_ops=50))
    assert result.router.replicas == 3
    assert len(result.outcomes) == len(requests)


@pytest.mark.parametrize("kwargs", [
    dict(max_replicas=0), dict(backlog_per_replica=0),
    dict(spinup_dispatch_ops=0),
])
def test_autoscale_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        AutoscaleConfig(**kwargs)


# ----------------------------------------------------------------------
# Determinism and the canonical scenario
# ----------------------------------------------------------------------
def test_cluster_outcomes_survive_tiebreak_perturbation():
    baseline, perturbed = tiebreak_pair(
        lambda queue: _rows(cluster_run(GH200, queue=queue)[1]))
    assert baseline == perturbed


def test_canonical_cluster_run_uses_prefix_caching():
    requests, result = cluster_run(GH200)
    assert len(result.outcomes) == len(requests)
    hits = sum(s.prefix_hits for s in result.kv)
    misses = sum(s.prefix_misses for s in result.kv)
    assert misses > 0      # cold groups were populated
    assert hits > 0        # and later arrivals actually shared them
    assert result.router.routed == len(requests)


@pytest.mark.parametrize("kv", [
    pytest.param(None, id="no-kv"),
    # 34 blocks: two 18-block sequences cannot both grow, so both sides swap.
    pytest.param(KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.019),
                 id="offload"),
])
def test_single_replica_cluster_matches_flat_runtime_modulo_routing(kv):
    # One replica, no tags: the cluster serves the identical stream; the
    # only divergence budget is the router's explicit decision latency,
    # visible as the first arrival's queue delay.
    from repro.serving.runtime import simulate_serving

    requests = poisson_requests(rate_per_s=150.0, duration_s=0.3,
                                prompt_len=256, output_tokens=32, seed=4)
    latency = LatencyModel(platform=GH200)
    policy = ContinuousBatchPolicy(max_active=8)
    flat = simulate_serving(requests, GPT2, latency, policy=policy, kv=kv)
    routed = simulate_cluster(requests, GPT2, latency, policy=policy,
                              router="round-robin", replicas=1, kv=kv)
    if kv is not None:
        assert flat.kv[0].swap_out_events > 0
        assert routed.kv[0].swap_out_events > 0
    assert [o.request.request_id for o in routed.outcomes] == [
        o.request.request_id for o in flat.outcomes]
    first = min(routed.outcomes, key=lambda o: o.request.arrival_ns)
    assert first.queue_ns == pytest.approx(routed.router.route_cost_ns)
    # Routing adds bounded latency, never loses work.
    assert sum(o.request.output_tokens for o in routed.outcomes) == sum(
        o.request.output_tokens for o in flat.outcomes)


def test_scale_event_is_frozen_record():
    event = ScaleEvent(ts_ns=1.0, replicas=3, spinup_ns=2.0)
    with pytest.raises(AttributeError):
        event.replicas = 4
