"""``repro.kvcache`` — paged KV-cache memory as a simulated resource.

The serving runtime models compute and launch overhead; this package makes
GPU memory the third first-class resource. A per-replica
:class:`BlockPool` holds fixed-size KV blocks sized from the model's KV
geometry; :class:`KvCacheResource` exposes the pool to
:class:`repro.sim.SimCore` (synchronous ``try_acquire``/``release``
between yields, seen by the causality log);
:class:`KvManager` applies a pressure policy — preempt-and-recompute or
CPU offload over the platform interconnect — and logs every pool event for
the ``repro check`` K-rules. See ``docs/kvcache.md``.
"""

from repro.kvcache.events import KV_EVENT_KINDS, KvCacheEvent
from repro.kvcache.manager import KvCacheConfig, KvManager, KvPolicy
from repro.kvcache.pool import (
    KV_BLOCK_TOKENS,
    BlockPool,
    block_bytes,
    blocks_for_tokens,
    pool_bytes,
    pool_capacity_blocks,
)
from repro.kvcache.resource import KvCacheResource

__all__ = [
    "KV_BLOCK_TOKENS",
    "KV_EVENT_KINDS",
    "BlockPool",
    "KvCacheConfig",
    "KvCacheEvent",
    "KvCacheResource",
    "KvManager",
    "KvPolicy",
    "block_bytes",
    "blocks_for_tokens",
    "pool_bytes",
    "pool_capacity_blocks",
]
