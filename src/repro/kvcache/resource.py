"""KvCacheResource — the block pool as a simulated resource.

The serving layer's :class:`repro.kvcache.manager.KvManager` takes and
frees blocks synchronously, between yields (:meth:`try_acquire` /
:meth:`release`): a replica's policy process must keep stepping to create
the frees it is waiting for, so it never blocks on the pool. Registered
with a :class:`repro.sim.SimCore` that keeps a causality log, the resource
records its capacity and every grant and free under the pid of the process
that made it, so ``repro check hb`` can certify that block grants never
hinged on an event-queue tie.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.kvcache.pool import BlockPool

if TYPE_CHECKING:
    from repro.sim.causality import CausalityLog


class KvCacheResource:
    """A :class:`BlockPool` whose grants and frees a causality log sees."""

    def __init__(self, pool: BlockPool, name: str = "kv") -> None:
        self.pool = pool
        self.name = name
        self._log: CausalityLog | None = None

    # -- core binding ---------------------------------------------------
    def bind(self, causality: CausalityLog | None) -> None:
        """Attach a core's causality log (``SimCore.add_kv_resource``)."""
        self._log = causality
        if causality is not None:
            causality.resource(self.name, self.pool.capacity_blocks)

    # -- grants and frees (policy processes, between yields) ------------
    def try_acquire(self, owner: Hashable, blocks: int,
                    now: float = 0.0) -> bool:
        """Grant ``blocks`` to ``owner`` now if the pool has room.

        ``now`` is only observational (the grant timestamp an attached
        causality log records); the grant decision ignores it.
        """
        if self.pool.can_allocate(blocks):
            self.pool.allocate(owner, blocks)
            if self._log is not None:
                self._log.grant(self._log.current_pid, self.name, owner,
                                blocks, now)
            return True
        return False

    def release(self, owner: Hashable, now: float) -> int:
        """Free ``owner``'s blocks; returns how many were freed."""
        freed = self.pool.release(owner)
        if freed > 0 and self._log is not None:
            self._log.free(self._log.current_pid, self.name, owner,
                           freed, now)
        return freed
