"""CpuPool — host cores as a finite, contended simulation resource.

Every serving replica used to get a private, infinite
:class:`~repro.sim.resources.CpuThread`: dispatch CPU was free, so "how
many replicas per host?" had no answer. ``CpuPool`` closes that hole. It
models the host's physical cores (grouped into NUMA domains, see
:class:`repro.hardware.host.HostSpec`) and hands out *time-booked grants*:
a step's CPU share is scheduled onto the earliest-free core of the
replica's affine domain, and the difference between the grant's start and
the request time is a real queueing stall the step pays on its critical
path.

Two access modes, mirroring :class:`repro.kvcache.KvCacheResource`:

* **Synchronous booking** (:meth:`dispatch`) — policy processes book CPU
  shares between yields. Booking is deterministic: cores are chosen by
  ``(earliest start, lowest index)``, local domain first; a remote-domain
  core is used only when it starts *strictly* earlier and the caller is
  not pinned, and the booked CPU time is inflated by the host's
  ``remote_penalty``. Per-core bookings are monotone in time, so grants on
  one core can never overlap — rule N001 replays that invariant from the
  exported trace.
* **Blocking reservation** (``("acquire", pool, owner, cores, ready_ns)``
  / ``("release", pool, owner, ready_ns)`` yield verbs) — exclusive
  whole-core reservations with deterministic FIFO grants, for experiments
  where the waiting and the freeing happen in different processes.
  Reserved cores are excluded from booking until released; a run ending
  with parked waiters is a deadlock, reported by :meth:`SimCore.run`
  exactly like a starved KV acquisition.

With an attached causality log every booking records an ``occupy``
interval on ``<pool>.core<i>`` and every reservation records
``acquire``/``grant``/``free`` events, so ``repro check hb`` can certify
grant-order determinism under adversarial tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.sim.causality import CausalityLog
    from repro.sim.core import Process
    from repro.sim.queue import EventQueue


@dataclass(slots=True)
class CpuCore:
    """One physical core: identity plus its booking frontier.

    Attributes:
        index: Core ordinal on the host (stable causality label
            ``<pool>.core<index>``).
        domain: Owning NUMA domain ordinal.
        free_at: Time the core finishes its last booked CPU share.
        busy_ns: Accumulated booked CPU time.
        grants: Number of bookings taken on this core.
    """

    index: int
    domain: int
    free_at: float = 0.0
    busy_ns: float = 0.0
    grants: int = 0


@dataclass(frozen=True, slots=True)
class CoreGrant:
    """One CPU-share booking: which core ran it, when, and at what cost.

    ``cpu_ns`` is the *effective* booked time — the requested share
    inflated by the host's remote penalty when ``remote`` is True. The
    caller's queueing stall is ``start_ns`` minus its request time.
    """

    owner: str
    core: int
    domain: int
    start_ns: float
    end_ns: float
    cpu_ns: float
    remote: bool = False


@dataclass(slots=True)
class _Waiter:
    """One parked reservation: who wants how many cores, since when."""

    process: Process
    owner: Hashable
    cores: int
    ready_ns: float


class CpuPool:
    """A host's cores, bound to a sim core's event queue."""

    def __init__(self, cores: Sequence[CpuCore], name: str = "host",
                 remote_penalty: float = 1.0) -> None:
        if not cores:
            raise ConfigurationError("a cpu pool needs at least one core")
        if remote_penalty < 1.0:
            raise ConfigurationError(
                "remote_penalty is a slowdown multiplier; must be >= 1.0")
        indices = [core.index for core in cores]
        if len(set(indices)) != len(indices):
            raise ConfigurationError("cpu pool core indices must be unique")
        self.cores: list[CpuCore] = list(cores)
        self.name = name
        self.remote_penalty = remote_penalty
        self.waiters: list[_Waiter] = []
        self._held: dict[Hashable, list[CpuCore]] = {}
        self._held_count = 0
        self._queue: EventQueue | None = None
        self._log: CausalityLog | None = None

    # -- introspection ---------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.cores)

    @property
    def available(self) -> int:
        """Cores not under an exclusive reservation."""
        return len(self.cores) - self._held_count

    @property
    def busy_ns(self) -> float:
        """Total booked CPU time across all cores."""
        return sum(core.busy_ns for core in self.cores)

    def domains(self) -> dict[int, int]:
        """Core count per NUMA domain."""
        counts: dict[int, int] = {}
        for core in self.cores:
            counts[core.domain] = counts.get(core.domain, 0) + 1
        return counts

    # -- core binding ----------------------------------------------------
    def bind(self, queue: EventQueue,
             causality: CausalityLog | None = None) -> None:
        """Attach to a core's event queue (``SimCore.add_host_pool``)."""
        self._queue = queue
        self._log = causality
        if causality is not None:
            causality.resource(self.name, len(self.cores))

    # -- synchronous booking (policy processes, between yields) ----------
    def dispatch(self, owner: str, ts_ns: float, cpu_ns: float,
                 domain: int | None = None,
                 pinned: bool = False) -> CoreGrant:
        """Book ``cpu_ns`` of dispatch CPU for ``owner``, requested at
        ``ts_ns``, preferring the cores of ``domain``.

        Returns the grant; the caller stalls until ``grant.start_ns`` and
        pays ``grant.cpu_ns`` (remote-inflated when the booking spilled to
        another domain) instead of the raw share. ``domain=None`` treats
        every core as local; ``pinned=True`` forbids remote spill.
        """
        if cpu_ns < 0:
            raise SimulationError("cpu share must be non-negative")
        if ts_ns < 0:
            raise SimulationError("cpu request time must be non-negative")
        local = self._best_core(ts_ns, domain, invert=False)
        if local is None and pinned:
            where = "any domain" if domain is None else f"domain {domain}"
            raise SimulationError(
                f"cpu pool {self.name}: no unreserved core in {where} "
                f"for pinned owner {owner!r}")
        best, remote = local, False
        if domain is not None and not pinned:
            other = self._best_core(ts_ns, domain, invert=True)
            if other is not None and (
                    local is None
                    or max(ts_ns, other.free_at) < max(ts_ns, local.free_at)):
                best, remote = other, True
        if best is None:
            raise SimulationError(
                f"cpu pool {self.name}: every core is reserved; "
                f"cannot book dispatch work for owner {owner!r}")
        effective = cpu_ns * self.remote_penalty if remote else cpu_ns
        start = max(ts_ns, best.free_at)
        end = start + effective
        best.free_at = end
        best.busy_ns += effective
        best.grants += 1
        if self._log is not None:
            self._log.occupy(f"{self.name}.core{best.index}", start, end)
        return CoreGrant(owner=owner, core=best.index, domain=best.domain,
                         start_ns=start, end_ns=end, cpu_ns=effective,
                         remote=remote)

    def _best_core(self, ts_ns: float, domain: int | None,
                   invert: bool) -> CpuCore | None:
        """Earliest-starting unreserved core in (``invert``: outside of)
        ``domain``; ties break on the lowest index. ``domain=None`` with
        ``invert=False`` considers every core."""
        best: CpuCore | None = None
        best_start = 0.0
        held = self._held_ids()
        for core in self.cores:
            if core.index in held:
                continue
            if domain is not None and (core.domain == domain) == invert:
                continue
            start = ts_ns if core.free_at <= ts_ns else core.free_at
            if best is None or start < best_start:
                best, best_start = core, start
        return best

    def _held_ids(self) -> set[int]:
        if not self._held:
            return set()
        return {core.index for cores in self._held.values() for core in cores}

    # -- synchronous reservation side ------------------------------------
    def try_acquire(self, owner: Hashable, cores: int,
                    now: float = 0.0) -> bool:
        """Reserve ``cores`` whole cores for ``owner`` now if enough are
        free. ``now`` is only observational (the grant timestamp an
        attached causality log records)."""
        self._check_reservation(owner, cores)
        if self.available < cores:
            return False
        self._reserve(owner, cores)
        if self._log is not None:
            self._log.grant(self._log.current_pid, self.name, owner,
                            cores, now)
        return True

    def release(self, owner: Hashable, now: float) -> int:
        """Release ``owner``'s reserved cores; wake eligible waiters."""
        freed = self._unreserve(owner)
        if freed > 0:
            if self._log is not None:
                self._log.free(self._log.current_pid, self.name, owner,
                               freed, now)
            self._wake(now)
        return freed

    # -- yield-protocol side (driven by SimCore._handle) -----------------
    def acquire_request(self, process: Process, owner: Hashable,
                        cores: int, ready_ns: float) -> None:
        self._check_reservation(owner, cores)
        if cores > len(self.cores):
            raise SimulationError(
                f"cpu pool {self.name}: acquire of {cores} cores can never "
                f"be granted (capacity {len(self.cores)})")
        if self._log is not None:
            self._log.acquire(self._log.pid_of(process), self.name, owner,
                              cores, ready_ns)
        if not self.waiters and self.available >= cores:
            self._reserve(owner, cores)
            if self._log is not None:
                self._log.grant(self._log.pid_of(process), self.name, owner,
                                cores, ready_ns)
            self._push(process, ready_ns)
        else:
            # FIFO: park behind earlier waiters even if this request would
            # fit, so grant order never depends on request size.
            self.waiters.append(_Waiter(process, owner, cores, ready_ns))

    def release_request(self, process: Process, owner: Hashable,
                        ready_ns: float) -> None:
        freed = self._unreserve(owner)
        if self._log is not None:
            self._log.free(self._log.pid_of(process), self.name, owner,
                           freed, ready_ns)
        self._wake(ready_ns)
        self._push(process, ready_ns)

    # -- internals -------------------------------------------------------
    def _check_reservation(self, owner: Hashable, cores: int) -> None:
        if cores <= 0:
            raise SimulationError("core reservations must be positive")
        if owner in self._held:
            raise SimulationError(
                f"cpu pool {self.name}: owner {owner!r} already holds a "
                f"reservation; release it first")

    def _reserve(self, owner: Hashable, cores: int) -> None:
        held = self._held_ids()
        taken = [core for core in self.cores
                 if core.index not in held][:cores]
        if len(taken) < cores:
            raise SimulationError(
                f"cpu pool {self.name}: reservation bookkeeping drifted")
        self._held[owner] = taken
        self._held_count += cores

    def _unreserve(self, owner: Hashable) -> int:
        taken = self._held.pop(owner, None)
        if taken is None:
            return 0
        self._held_count -= len(taken)
        return len(taken)

    def _wake(self, now: float) -> None:
        while self.waiters and self.available >= self.waiters[0].cores:
            waiter = self.waiters.pop(0)
            self._reserve(waiter.owner, waiter.cores)
            grant_at = max(now, waiter.ready_ns)
            if self._log is not None:
                self._log.grant(self._log.pid_of(waiter.process), self.name,
                                waiter.owner, waiter.cores, grant_at)
            self._push(waiter.process, grant_at)

    def _push(self, process: Process, at_ns: float) -> None:
        if self._queue is None:
            raise SimulationError(
                f"cpu pool {self.name} is not bound to a core; call "
                f"SimCore.add_host_pool first")
        self._queue.push(at_ns, process)


def pool_from_domains(domains: Sequence[tuple[int, int]],
                      name: str = "host",
                      remote_penalty: float = 1.0) -> CpuPool:
    """Build a :class:`CpuPool` from ``(domain, cores)`` pairs, numbering
    cores densely in domain order (matching ``lscpu`` enumeration)."""
    cores: list[CpuCore] = []
    for domain, count in domains:
        for _ in range(count):
            cores.append(CpuCore(index=len(cores), domain=domain))
    return CpuPool(cores, name=name, remote_penalty=remote_penalty)
