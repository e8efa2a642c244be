"""KvManager: policy engine, event log, interconnect-priced swaps."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.hardware import get_platform
from repro.kvcache import (
    KvCacheConfig,
    KvManager,
    KvPolicy,
    block_bytes,
    pool_capacity_blocks,
)
from repro.obs import RunRecorder
from repro.workloads import GPT2

A100 = get_platform("AMD+A100")
GH200 = get_platform("GH200")


def make_manager(policy=KvPolicy.OFFLOAD, capacity=64, platform=A100,
                 recorder=None):
    return KvManager(GPT2, platform, policy, capacity, recorder=recorder)


def test_config_validation():
    assert not KvCacheConfig().enabled
    assert KvCacheConfig(policy=KvPolicy.RECOMPUTE).enabled
    with pytest.raises(ConfigurationError):
        KvCacheConfig(pool_gib=-1.0)
    with pytest.raises(ConfigurationError):
        KvCacheConfig(block_tokens=0)


def test_manager_refuses_policy_none():
    with pytest.raises(ConfigurationError):
        make_manager(policy=KvPolicy.NONE)


def test_for_gpu_derives_capacity_from_pool_arithmetic():
    config = KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.05)
    manager = KvManager.for_gpu(GPT2, GH200, config)
    assert manager.capacity_blocks == pool_capacity_blocks(
        GPT2, GH200.gpu, pool_gib=0.05)


def test_allocation_lifecycle_logs_events():
    manager = make_manager()
    assert manager.try_allocate(1, 4, ts_ns=0.0)
    for ts_ns in (10.0, 11.0):
        deltas = manager.growth_deltas([1], [5 * manager.block_tokens])
        manager.apply_growth([1], deltas, ts_ns=ts_ns)
    assert manager.free(1, ts_ns=20.0) == 5
    kinds = [e.kind for e in manager.events]
    assert kinds == ["alloc", "grow", "free"]  # the no-op grow logs nothing
    assert [e.allocated for e in manager.events] == [4, 5, 0]


def test_growth_delta_counts_missing_blocks_only():
    manager = make_manager()
    manager.try_allocate(7, 4, ts_ns=0.0)
    assert manager.growth_delta(7, 4 * manager.block_tokens) == 0
    assert manager.growth_delta(7, 4 * manager.block_tokens + 1) == 1


def test_try_allocate_respects_capacity():
    manager = make_manager(capacity=4)
    assert manager.try_allocate(1, 3, ts_ns=0.0)
    assert not manager.try_allocate(2, 2, ts_ns=1.0)
    assert [e.kind for e in manager.events] == ["alloc"]


def test_preempt_frees_blocks_and_counts():
    manager = make_manager(policy=KvPolicy.RECOMPUTE)
    manager.try_allocate(1, 6, ts_ns=0.0)
    assert manager.preempt(1, ts_ns=5.0) == 6
    assert manager.pool.allocated == 0
    assert manager.preemptions == 1
    with pytest.raises(SimulationError):
        manager.preempt(1, ts_ns=6.0)


def test_swap_out_prices_transfer_over_the_link():
    manager = make_manager(platform=A100)
    manager.try_allocate(1, 8, ts_ns=0.0)
    transfer = manager.swap_out(1, ts_ns=10.0)
    assert transfer == A100.transfer_ns(8 * block_bytes(GPT2))
    assert manager.is_swapped_out(1)
    assert manager.host_blocks == 8
    assert manager.pool.allocated == 0
    assert manager.swapped_blocks == 8


def test_coupling_sets_the_swap_price():
    mi300a = get_platform("MI300A")
    lc = make_manager(platform=A100)
    cc = make_manager(platform=GH200)
    tc = make_manager(platform=mi300a)
    for manager in (lc, cc, tc):
        manager.try_allocate(1, 8, ts_ns=0.0)
    lc_ns = lc.swap_out(1, ts_ns=0.0)
    cc_ns = cc.swap_out(1, ts_ns=0.0)
    tc_ns = tc.swap_out(1, ts_ns=0.0)
    # NVLink-C2C moves the same bytes ~14x faster than PCIe Gen4; the
    # shared-physical-memory APU pays only the base latency.
    assert tc_ns < cc_ns < lc_ns
    assert cc_ns == GH200.transfer_ns(8 * block_bytes(GPT2))
    assert tc_ns == mi300a.interconnect.base_latency_ns


def test_swap_in_returns_none_when_pool_is_full():
    manager = make_manager(capacity=8)
    manager.try_allocate(1, 6, ts_ns=0.0)
    manager.swap_out(1, ts_ns=1.0)
    manager.try_allocate(2, 6, ts_ns=2.0)
    assert manager.swap_in(1, ts_ns=3.0) is None
    manager.free(2, ts_ns=4.0)
    assert manager.swap_in(1, ts_ns=5.0) is not None
    assert not manager.is_swapped_out(1)
    with pytest.raises(SimulationError):
        manager.swap_in(99, ts_ns=6.0)


def test_swap_out_requires_resident_blocks():
    manager = make_manager()
    with pytest.raises(SimulationError):
        manager.swap_out(1, ts_ns=0.0)


def test_events_mirror_into_the_recorder():
    recorder = RunRecorder()
    manager = make_manager(recorder=recorder)
    manager.try_allocate(1, 4, ts_ns=0.0)
    manager.swap_out(1, ts_ns=1.0)
    manager.swap_in(1, ts_ns=2.0)
    manager.free(1, ts_ns=3.0)
    manager.note_decode([1], ts_ns=2.5)
    assert len(recorder.kv_events) == len(manager.events) == 5
    counters = recorder.counters.as_dict()
    assert counters["kv_swap_out"] == 1
    assert counters["kv_swap_in"] == 1
