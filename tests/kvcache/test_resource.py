"""KvCacheResource: synchronous grants and frees on a registered pool."""

from repro.kvcache import BlockPool, KvCacheResource
from repro.sim import SimCore


def make_resource(core: SimCore, capacity: int) -> KvCacheResource:
    return core.add_kv_resource(KvCacheResource(BlockPool(capacity)))


def test_acquire_grants_immediately_when_pool_has_room():
    core = SimCore()
    kv = make_resource(core, 4)
    granted = []

    def process():
        t = yield ("at", 100.0)
        granted.append(kv.try_acquire("a", 3, t))

    core.spawn(process())
    core.run()
    assert granted == [True]
    assert kv.pool.held("a") == 3


def test_sync_side_try_acquire_and_release():
    core = SimCore()
    kv = make_resource(core, 3)
    assert kv.try_acquire("a", 2)
    assert not kv.try_acquire("b", 2)
    assert kv.release("a", now=0.0) == 2
    assert kv.try_acquire("b", 2)
