"""Finite-host serving: parity with host=None, stalls, NUMA pricing.

The parity anchor for the whole subsystem: ``host=None`` (the CLI's
``--host-cores 0``) must run the exact float operations the stack ran
before ``repro.host`` existed, and a host generous enough to never queue a
booking must reproduce those outcomes bit for bit — the pricing seam adds
``(start - ts) + (cpu' - cpu)``, which is exactly ``0.0`` when no grant
stalls or spills.
"""

import pytest

from repro.errors import ConfigurationError
from repro.hardware import get_platform, host_for
from repro.host import HostConfig, HostModel
from repro.obs import RunRecorder
from repro.serving.batcher import StaticBatchPolicy
from repro.serving.cluster import RouterPolicy, simulate_cluster
from repro.serving.latency import LatencyModel
from repro.serving.requests import poisson_requests
from repro.serving.runtime import simulate_serving
from repro.workloads import GPT2

AMD = get_platform("AMD+A100")


@pytest.fixture(scope="module")
def latency():
    return LatencyModel(platform=AMD)


@pytest.fixture(scope="module")
def stream():
    # Fast enough that four replicas stay busy simultaneously — an
    # undersized host must visibly queue their dispatch work.
    return poisson_requests(rate_per_s=300.0, duration_s=0.05,
                            prompt_len=128, output_tokens=16, seed=11)


def _rows(result):
    return [(o.request.request_id, o.ttft_ns, o.completion_ns,
             o.batch_size, o.queue_ns, o.replica) for o in result.outcomes]


def _cluster(stream, latency, host=None, replicas=4, **kwargs):
    return simulate_cluster(stream, GPT2, latency,
                            router=RouterPolicy.ROUND_ROBIN,
                            replicas=replicas, host=host, **kwargs)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
def test_no_host_run_reports_no_host_stats(stream, latency):
    result = _cluster(stream, latency)
    assert result.host is None


def test_generous_host_is_bit_identical_to_no_host(stream, latency):
    baseline = _cluster(stream, latency)
    host = HostModel.for_platform(AMD, replicas=4)  # full 2x16-core board
    contended = _cluster(stream, latency, host=host)
    assert _rows(contended) == _rows(baseline)
    assert contended.host is not None
    assert contended.host.stall_ns == 0.0
    assert contended.host.remote_grants == 0
    assert contended.host.grants > 0


def test_generous_host_parity_holds_for_single_replica_serving(latency):
    requests = poisson_requests(rate_per_s=120.0, duration_s=0.05,
                                prompt_len=128, output_tokens=12, seed=7)
    baseline = simulate_serving(requests, GPT2, latency)
    host = HostModel.for_platform(AMD, replicas=1)
    priced = simulate_serving(requests, GPT2, latency, host=host)
    assert _rows(priced) == _rows(baseline)
    assert priced.host is not None and priced.host.stall_ns == 0.0


# ----------------------------------------------------------------------
# Contention
# ----------------------------------------------------------------------
def test_undersized_host_stalls_and_delays_completions(stream, latency):
    baseline = _cluster(stream, latency)
    host = HostModel.for_platform(AMD, replicas=4,
                                  config=HostConfig(cores=2))
    starved = _cluster(stream, latency, host=host)
    assert starved.host is not None
    assert starved.host.stall_ns > 0.0
    assert starved.host.cores == 2
    # Round-robin pins each request to the same replica in both runs, and
    # starvation only ever delays a replica's steps: every request is
    # served exactly once and no completion gets earlier.
    done = {o.request.request_id: o.completion_ns for o in starved.outcomes}
    reference = {o.request.request_id: o.completion_ns
                 for o in baseline.outcomes}
    assert sorted(done) == sorted(reference)
    assert all(done[rid] >= reference[rid] for rid in reference)
    assert sum(done[rid] > reference[rid] for rid in reference) > len(done) // 2


def test_unpinned_contention_spills_across_sockets(stream, latency):
    host = HostModel.for_platform(AMD, replicas=4,
                                  config=HostConfig(cores=2))
    result = _cluster(stream, latency, host=host)
    assert result.host.remote_grants > 0


def test_pinned_run_never_spills_and_is_no_faster(stream, latency):
    spec = host_for(AMD)
    free = _cluster(stream, latency,
                    host=HostModel(spec, 4, HostConfig(cores=2)))
    pinned = _cluster(stream, latency,
                      host=HostModel(spec, 4, HostConfig(cores=2, pin=True)))
    # Pinning trades remote-penalty pricing for local queueing: the free
    # run spills (and pays the penalty), the pinned run only ever waits.
    assert pinned.host.remote_grants == 0
    assert free.host.remote_grants > 0
    assert pinned.host.stall_ns > 0.0


def test_numa_override_funnels_every_grant_to_one_domain(stream, latency):
    recorder = RunRecorder()
    host = HostModel.for_platform(AMD, replicas=4,
                                  config=HostConfig(cores=4, numa=1))
    _cluster(stream, latency, host=host, recorder=recorder)
    assert recorder.host_grants
    local = [g for g in recorder.host_grants if not g["remote"]]
    assert local and all(g["domain"] == 1 for g in local)


def test_per_replica_cpu_utilization_reflects_booked_time(stream, latency):
    recorder = RunRecorder()
    host = HostModel.for_platform(AMD, replicas=4,
                                  config=HostConfig(cores=4))
    result = _cluster(stream, latency, host=host, recorder=recorder)
    for stats in result.replicas:
        booked = 0.0
        for grant in recorder.host_grants:
            if grant["owner"] == f"replica{stats.replica}":
                booked += grant["cpu_ns"]
        assert booked > 0.0
        assert stats.cpu_busy_ns == booked  # the same sum, exactly
        assert stats.cpu_utilization == booked / stats.span_ns
        assert 0.0 < stats.cpu_utilization <= 1.0
    # A host-free serve books no CPU, whatever its GPU utilization.
    for stats in _cluster(stream, latency).replicas:
        assert stats.utilization > 0.0
        assert stats.cpu_busy_ns == 0.0 == stats.cpu_utilization


def test_host_stats_account_for_every_booking(stream, latency):
    host = HostModel.for_platform(AMD, replicas=4,
                                  config=HostConfig(cores=2))
    result = _cluster(stream, latency, host=host)
    stats = result.host
    assert stats.domains == 2
    assert stats.busy_ns == pytest.approx(host.pool.busy_ns)
    assert stats.busy_per_core_ns == pytest.approx(stats.busy_ns / 2)
    assert stats.remote_grants <= stats.grants


# ----------------------------------------------------------------------
# Configuration guards
# ----------------------------------------------------------------------
def test_host_config_validation():
    with pytest.raises(ConfigurationError):
        HostConfig(cores=-1)
    with pytest.raises(ConfigurationError):
        HostConfig(numa=-1)
    with pytest.raises(ConfigurationError):
        HostModel.for_platform(AMD, replicas=0)
    with pytest.raises(ConfigurationError, match="out of range"):
        HostModel.for_platform(AMD, replicas=2, config=HostConfig(numa=5))


def test_host_requires_continuous_batching(latency):
    requests = poisson_requests(rate_per_s=100.0, duration_s=0.02,
                                prompt_len=64, output_tokens=4, seed=3)
    host = HostModel.for_platform(AMD, replicas=1)
    with pytest.raises(ConfigurationError):
        simulate_serving(requests, GPT2, latency,
                         policy=StaticBatchPolicy(max_batch_size=4),
                         host=host)
