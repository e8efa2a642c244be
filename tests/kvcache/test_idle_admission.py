"""The KV loop's idle branch: a due request must be admitted or fail loudly.

With nothing active or parked, the only blocks a refused head-of-line
request can be waiting for are idle (refcount-0) shared-prefix groups. The
loop used to retry the refused admission at the same clock value forever;
it now evicts idle groups and retries once, and an engine that still
cannot admit with nothing resident raises :class:`SimulationError`.
"""

import signal
from contextlib import contextmanager

import pytest

from repro.errors import SimulationError
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvManager, KvPolicy
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                           TrafficConfig, generate_traffic)
from repro.workloads import GPT2


@contextmanager
def deadline(seconds: float):
    """Turn a hang into a test failure instead of a stuck suite.

    The alarm repeats every second until the block exits, so an error
    raised where the interpreter swallows it (a garbage-collector
    callback, say) is raised again.
    """
    def expire(signum, frame):
        raise AssertionError(f"serve did not terminate within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def livelock_stream():
    """The stream that used to spin: three hot prefixes, a tight pool."""
    return generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.POISSON, rate_per_s=60.0,
                             duration_s=0.5, seed=2),
        prompt_len=512, prompt_jitter=128, output_tokens=96, output_jitter=32,
        prefix=PrefixSpec(share=0.75, prefix_len=384, pool=3)))


def serve(requests, pool_gib: float):
    return simulate_serving(
        requests, GPT2, LatencyModel(platform=get_platform("Intel+H100")),
        policy=ContinuousBatchPolicy(max_active=8),
        kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=pool_gib,
                         prefix_caching=True))


def test_idle_engine_evicts_idle_prefixes_and_serves_every_request():
    requests = livelock_stream()
    with deadline(60):
        run = serve(requests, pool_gib=0.045)
    # Every request is served once. The 81-block pool fits a single
    # sequence, so nothing is ever swapped; what made the loop spin was a
    # due request refused while idle prefix groups held the pool, and
    # those are evicted now.
    assert sorted(o.request.request_id for o in run.outcomes) == sorted(
        r.request_id for r in requests)
    stats = run.kv[0]
    assert stats.capacity_blocks == 81
    assert stats.swap_out_events == 0
    assert stats.prefix_evictions > 0


def test_a_roomier_pool_never_reaches_the_idle_refusal():
    requests = livelock_stream()
    with deadline(60):
        run = serve(requests, pool_gib=0.08)
    assert len(run.outcomes) == len(requests) == 26
    assert run.kv[0].swap_out_events > 0


def test_idle_refusal_that_eviction_cannot_cure_raises(monkeypatch):
    # An allocator that refuses everything: with nothing resident the
    # refusal would repeat at one clock value, and the guard turns that
    # spin into an error.
    monkeypatch.setattr(KvManager, "try_allocate",
                        lambda self, seq, blocks, ts_ns: False)
    with deadline(60), pytest.raises(SimulationError, match="stalled"):
        serve(livelock_stream()[:3], pool_gib=0.045)
