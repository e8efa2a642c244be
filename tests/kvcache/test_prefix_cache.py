"""Copy-on-write shared-prefix caching: refcounts, accounting, parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.kvcache.manager import KvManager
from repro.kvcache.pool import BlockPool
from repro.obs import RunRecorder
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.requests import ServingRequest, poisson_requests
from repro.serving.runtime import simulate_serving
from repro.workloads import GPT2

GH200 = get_platform("GH200")


def manager(capacity=64):
    return KvManager(GPT2, GH200, KvPolicy.NONE, capacity,
                     prefix_caching=True)


# ----------------------------------------------------------------------
# Manager-level lifecycle
# ----------------------------------------------------------------------
def test_cold_miss_allocates_then_hits_share():
    kv = manager()
    # Cold: group inserted, nothing cached for the first request.
    assert kv.acquire_prefix(0, key=9, prefix_len=64, ts_ns=0.0) == 0
    assert kv.prefix_misses == 1 and kv.prefix_hits == 0
    held = kv.pool.shared_blocks(9)
    assert held == 64 // kv.block_tokens
    # Hit: the full shared blocks are skipped, refcount climbs.
    assert kv.acquire_prefix(1, key=9, prefix_len=64, ts_ns=1.0) == 64
    assert kv.prefix_hits == 1 and kv.cow_forks == 1
    assert kv.pool.shared_refs(9) == 2
    # One group, not two: no extra blocks were allocated by the hit.
    assert kv.pool.shared_allocated == held


def test_partial_tail_block_is_private():
    kv = manager()
    # 70 tokens at 16-token blocks -> 4 shared blocks (64 tokens); the
    # 6-token tail is the requester's copy-on-write fork.
    assert kv.shared_blocks_for(70) == 4
    assert kv.acquire_prefix(0, key=1, prefix_len=70, ts_ns=0.0) == 0
    assert kv.acquire_prefix(1, key=1, prefix_len=70, ts_ns=1.0) == 64


def test_sub_block_prefix_shares_nothing():
    kv = manager()
    assert kv.acquire_prefix(0, key=1, prefix_len=10, ts_ns=0.0) == 0
    assert not kv.pool.has_shared(1)
    assert kv.prefix_misses == 0 and kv.prefix_hits == 0


def test_release_keeps_blocks_warm_until_evicted():
    kv = manager()
    kv.acquire_prefix(0, key=5, prefix_len=32, ts_ns=0.0)
    blocks = kv.pool.shared_blocks(5)
    kv.release_prefix(0, ts_ns=1.0)
    assert kv.pool.shared_refs(5) == 0
    assert kv.pool.allocated == blocks          # warm, not freed
    assert kv.evict_idle_prefixes(kv.capacity_blocks, ts_ns=2.0)
    assert kv.pool.allocated == 0
    assert kv.prefix_evictions == 1


def test_flush_returns_idle_groups_and_flags_leaks():
    kv = manager()
    kv.acquire_prefix(0, key=1, prefix_len=32, ts_ns=0.0)
    kv.acquire_prefix(1, key=2, prefix_len=32, ts_ns=0.0)
    kv.release_prefix(0, ts_ns=1.0)
    with pytest.raises(SimulationError, match="still referenced"):
        kv.flush_prefixes(ts_ns=2.0)            # seq 1 never released
    kv.release_prefix(1, ts_ns=3.0)
    kv.flush_prefixes(ts_ns=4.0)
    assert kv.pool.allocated == 0


def test_acquire_requires_prefix_caching_and_unique_seq():
    plain = KvManager(GPT2, GH200, KvPolicy.RECOMPUTE, 64)
    with pytest.raises(SimulationError, match="not enabled"):
        plain.acquire_prefix(0, key=1, prefix_len=32, ts_ns=0.0)
    kv = manager()
    kv.acquire_prefix(0, key=1, prefix_len=32, ts_ns=0.0)
    with pytest.raises(SimulationError, match="already holds"):
        kv.acquire_prefix(0, key=2, prefix_len=32, ts_ns=1.0)


def test_cold_group_that_cannot_fit_returns_none():
    kv = manager(capacity=4)
    kv.acquire_prefix(0, key=1, prefix_len=64, ts_ns=0.0)   # 4 blocks
    assert kv.acquire_prefix(1, key=2, prefix_len=64, ts_ns=1.0) is None
    # Once the first group is idle it is evicted to make room.
    kv.release_prefix(0, ts_ns=2.0)
    assert kv.acquire_prefix(1, key=2, prefix_len=64, ts_ns=3.0) == 0


# ----------------------------------------------------------------------
# Pool-level refcount laws (what rule R003 replays)
# ----------------------------------------------------------------------
def test_double_free_raises():
    pool = BlockPool(16)
    pool.add_shared("p", 4)
    pool.deref_shared("p")
    with pytest.raises(SimulationError, match="double-free"):
        pool.deref_shared("p")


def test_evict_while_shared_raises():
    pool = BlockPool(16)
    pool.add_shared("p", 4)
    with pytest.raises(SimulationError, match="refcount"):
        pool.evict_shared("p")


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)),
                min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_accounting_balances_over_any_fork_free_history(history):
    """Blocks allocated == live groups' blocks at every step; zero at end."""
    kv = manager(capacity=1024)
    seq = 0
    holders = {}                 # seq -> key
    for key, blocks in history:
        kv.acquire_prefix(seq, key, prefix_len=blocks * kv.block_tokens,
                          ts_ns=float(seq))
        holders[seq] = key
        seq += 1
        assert kv.pool.allocated == kv.pool.shared_allocated
        assert kv.pool.allocated <= kv.pool.capacity_blocks
    for s in sorted(holders):
        kv.release_prefix(s, ts_ns=float(seq + s))
    kv.flush_prefixes(ts_ns=1e9)
    assert kv.pool.allocated == 0
    assert kv.prefix_hits + kv.prefix_misses == len(history)


# ----------------------------------------------------------------------
# Serving-level parity and behaviour
# ----------------------------------------------------------------------
def _rows(result):
    return [(o.request.request_id, o.ttft_ns, o.completion_ns,
             o.batch_size, o.queue_ns, o.replica) for o in result.outcomes]


#: KV configs that gate an untagged, unpressured stream without acting:
#: no request binds a prefix, and a 64 GiB pool never runs short.
NEUTRAL_GATES = {
    "prefix": KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True),
    "offload": KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=64),
    "recompute": KvCacheConfig(policy=KvPolicy.RECOMPUTE, pool_gib=64),
}


@pytest.mark.parametrize("platform", ["GH200", "AMD+A100"])
@pytest.mark.parametrize("gate", list(NEUTRAL_GATES))
def test_a_kv_gate_that_never_acts_changes_nothing(gate, platform):
    """A KV pool that never acts changes nothing: the gated run equals the
    plain serving run exactly, in outcome rows and in recorded steps."""
    requests = poisson_requests(rate_per_s=200.0, duration_s=0.2,
                                prompt_len=256, output_tokens=32, seed=4)
    latency = LatencyModel(platform=get_platform(platform))
    policy = ContinuousBatchPolicy(max_active=8)

    def serve(kv):
        recorder = RunRecorder()
        run = simulate_serving(requests, GPT2, latency, policy=policy,
                               recorder=recorder, kv=kv)
        return _rows(run), list(recorder.steps)

    plain = serve(None)
    assert serve(NEUTRAL_GATES[gate]) == plain


def _tagged_stream(n=8, prefix_len=128, gap_ns=4e6):
    return [ServingRequest(request_id=i, arrival_ns=i * gap_ns,
                           prompt_len=prefix_len + 64, output_tokens=4,
                           prefix_hash=1, prefix_len=prefix_len)
            for i in range(n)]


def test_shared_prefix_hits_cut_ttft():
    requests = _tagged_stream()
    latency = LatencyModel(platform=GH200)
    run = simulate_serving(
        requests, GPT2, latency, policy=ContinuousBatchPolicy(max_active=8),
        kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True))
    assert len(run.outcomes) == len(requests)
    (kv_stats,) = run.kv
    assert kv_stats.prefix_misses == 1                 # first arrival warms
    assert kv_stats.prefix_hits == len(requests) - 1
    by_id = {o.request.request_id: o for o in run.outcomes}
    # Every hit prefilled only the 64-token suffix: strictly cheaper than
    # the cold miss, which paid the full 192-token prompt. TTFT includes
    # queue wait, so compare pure service time (ttft - queue).
    service = lambda o: o.ttft_ns - o.queue_ns
    for rid in range(1, len(requests)):
        assert service(by_id[rid]) < service(by_id[0])
