"""Paged KV-cache block pool: fixed-size blocks carved out of HBM.

vLLM-style paged attention allocates the KV cache in fixed-size blocks of
``block_tokens`` tokens each, so fragmentation is bounded and a sequence's
cache can grow one block at a time. This module owns the integer arithmetic:
block sizes derive from the model's KV geometry (``2 * layers * kv_dim``
bytes-per-token at FP16), and per-replica pool capacities derive from
:attr:`GpuSpec.memory_gib` minus the FP16 weights and the runtime reserve —
the same terms :func:`repro.workloads.memory.memory_report` charges
statically.

Everything here is an ``int``: byte counts are floored to whole bytes and
capacities to whole blocks, so pool accounting never compares floats for
equality (check-code rule C002 stays honest by construction).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.hardware.gpu import GpuSpec
from repro.units import gib_to_bytes
from repro.workloads.config import Arch, ModelConfig
from repro.workloads.memory import RUNTIME_RESERVE_BYTES, weights_bytes
from repro.workloads.ops import FP16_BYTES

#: Default tokens per KV block (vLLM's default page size).
KV_BLOCK_TOKENS = 16


def block_bytes(config: ModelConfig,
                block_tokens: int = KV_BLOCK_TOKENS) -> int:
    """HBM bytes one KV block occupies (K and V, all layers, FP16)."""
    if block_tokens <= 0:
        raise ConfigurationError("block_tokens must be positive")
    if config.arch is Arch.ENCODER_ONLY:
        raise ConfigurationError(
            f"{config.name} is encoder-only: it keeps no KV cache, so a "
            f"paged KV pool is meaningless for it")
    return 2 * config.layers * config.kv_dim * FP16_BYTES * block_tokens


def blocks_for_tokens(tokens: int,
                      block_tokens: int = KV_BLOCK_TOKENS) -> int:
    """Blocks needed to hold ``tokens`` cache entries (ceiling division)."""
    if tokens < 0:
        raise ConfigurationError(f"tokens must be non-negative, got {tokens}")
    if block_tokens <= 0:
        raise ConfigurationError("block_tokens must be positive")
    return -(-tokens // block_tokens)


def pool_bytes(config: ModelConfig, gpu: GpuSpec,
               pool_gib: float | None = None) -> int:
    """Whole bytes available to the KV pool on one replica's GPU.

    With ``pool_gib`` set the pool is exactly that size (the knob the
    pressure sweeps turn); otherwise it is everything HBM has left after
    the FP16 weights and :data:`RUNTIME_RESERVE_BYTES`.
    """
    if pool_gib is not None:
        if not pool_gib > 0:
            raise ConfigurationError("pool_gib must be positive")
        return gib_to_bytes(pool_gib)
    free = (gib_to_bytes(gpu.memory_gib) - int(weights_bytes(config))
            - RUNTIME_RESERVE_BYTES)
    if free <= 0:
        raise ConfigurationError(
            f"{config.name} weights plus runtime reserve exceed "
            f"{gpu.name}'s {gpu.memory_gib} GiB; no room for a KV pool")
    return free


def pool_capacity_blocks(config: ModelConfig, gpu: GpuSpec,
                         pool_gib: float | None = None,
                         block_tokens: int = KV_BLOCK_TOKENS) -> int:
    """Whole KV blocks the pool holds (floor of bytes / block size)."""
    per_block = block_bytes(config, block_tokens)
    capacity = pool_bytes(config, gpu, pool_gib) // per_block
    if capacity <= 0:
        raise ConfigurationError(
            f"KV pool of {pool_bytes(config, gpu, pool_gib)} bytes is "
            f"smaller than one {per_block}-byte block of {config.name}")
    return capacity


class BlockPool:
    """Counting allocator over a fixed number of KV blocks.

    Owners are opaque hashables (serving uses request ids). The pool tracks
    how many blocks each owner holds plus a running total, and refuses
    over-commit — the sim-level invariant rule K002 re-verifies from the
    event log.

    Besides per-owner private blocks, the pool keeps **refcounted shared
    groups** keyed by an opaque prefix key: requests tagged with the same
    prefix hash reference one group of blocks instead of allocating their
    own copy (copy-on-write — the divergent suffix stays private). A group
    with refcount 0 is *idle*: its blocks stay warm in the pool until
    evicted under pressure. Misuse — dereferencing past zero, or evicting
    a group somebody still references — raises, and rule R003 re-verifies
    the same discipline from the event log.
    """

    def __init__(self, capacity_blocks: int, name: str = "kv") -> None:
        if capacity_blocks <= 0:
            raise ConfigurationError("pool capacity must be positive")
        self.capacity_blocks = capacity_blocks
        self.name = name
        self.allocated = 0
        self._held: dict[Hashable, int] = {}
        # key -> [blocks, refcount]; insertion order doubles as eviction
        # age (oldest idle group evicted first).
        self._shared: dict[Hashable, list[int]] = {}

    @property
    def free_blocks(self) -> int:
        return self.capacity_blocks - self.allocated

    def held(self, owner: Hashable) -> int:
        """Blocks ``owner`` currently holds (0 if none)."""
        return self._held.get(owner, 0)

    @property
    def holdings(self) -> Mapping[Hashable, int]:
        """Every owner's held blocks (absent = 0); callers must not mutate."""
        return self._held

    def owners(self) -> list[Hashable]:
        """Owners currently holding blocks, in insertion order."""
        return list(self._held)

    def can_allocate(self, blocks: int) -> bool:
        return blocks <= self.free_blocks

    def allocate(self, owner: Hashable, blocks: int) -> None:
        """Give ``owner`` ``blocks`` more blocks; raises on over-commit."""
        if blocks <= 0:
            raise SimulationError(
                f"pool {self.name}: allocation must be positive, "
                f"got {blocks}")
        if not self.can_allocate(blocks):
            raise SimulationError(
                f"pool {self.name}: over-commit — {blocks} blocks requested "
                f"with {self.free_blocks}/{self.capacity_blocks} free")
        self._held[owner] = self.held(owner) + blocks
        self.allocated += blocks

    def release(self, owner: Hashable) -> int:
        """Free every block ``owner`` holds; returns how many were freed."""
        freed = self._held.pop(owner, 0)
        self.allocated -= freed
        return freed

    # ------------------------------------------------------------------
    # Refcounted shared groups (copy-on-write prefix caching)
    # ------------------------------------------------------------------
    def has_shared(self, key: Hashable) -> bool:
        """True if a shared group for ``key`` is resident (any refcount)."""
        return key in self._shared

    def shared_blocks(self, key: Hashable) -> int:
        """Blocks the shared group ``key`` occupies (0 if absent)."""
        entry = self._shared.get(key)
        return entry[0] if entry else 0

    def shared_refs(self, key: Hashable) -> int:
        """Current refcount of shared group ``key`` (0 if absent or idle)."""
        entry = self._shared.get(key)
        return entry[1] if entry else 0

    @property
    def shared_allocated(self) -> int:
        """Total blocks held by shared groups (resident, any refcount)."""
        return sum(entry[0] for entry in self._shared.values())

    def add_shared(self, key: Hashable, blocks: int) -> None:
        """Insert shared group ``key`` with refcount 1; raises on misuse."""
        if blocks <= 0:
            raise SimulationError(
                f"pool {self.name}: shared group must be positive, "
                f"got {blocks}")
        if key in self._shared:
            raise SimulationError(
                f"pool {self.name}: shared group {key!r} already resident")
        if not self.can_allocate(blocks):
            raise SimulationError(
                f"pool {self.name}: over-commit — shared group of {blocks} "
                f"blocks with {self.free_blocks}/{self.capacity_blocks} free")
        self._shared[key] = [blocks, 1]
        self.allocated += blocks

    def ref_shared(self, key: Hashable) -> int:
        """Add one reference to group ``key``; returns the new refcount."""
        entry = self._shared.get(key)
        if entry is None:
            raise SimulationError(
                f"pool {self.name}: ref of unknown shared group {key!r}")
        entry[1] += 1
        return entry[1]

    def deref_shared(self, key: Hashable) -> int:
        """Drop one reference to group ``key``; returns the new refcount.

        The group's blocks stay resident at refcount 0 (a warm cache
        entry); dropping below zero is a double-free and raises.
        """
        entry = self._shared.get(key)
        if entry is None:
            raise SimulationError(
                f"pool {self.name}: deref of unknown shared group {key!r}")
        if entry[1] <= 0:
            raise SimulationError(
                f"pool {self.name}: double-free — shared group {key!r} "
                f"dereferenced at refcount 0")
        entry[1] -= 1
        return entry[1]

    def evict_shared(self, key: Hashable) -> int:
        """Drop idle group ``key`` from the pool; returns blocks freed.

        Evicting a group somebody still references would invalidate live
        sequences' caches, so a positive refcount raises.
        """
        entry = self._shared.get(key)
        if entry is None:
            raise SimulationError(
                f"pool {self.name}: evict of unknown shared group {key!r}")
        if entry[1] > 0:
            raise SimulationError(
                f"pool {self.name}: shared group {key!r} evicted while "
                f"refcount is {entry[1]}")
        del self._shared[key]
        self.allocated -= entry[0]
        return entry[0]

    def idle_shared_keys(self) -> list[Hashable]:
        """Keys of refcount-0 groups, oldest (first-inserted) first."""
        return [key for key, entry in self._shared.items() if entry[1] == 0]
