"""CpuPool — host cores as a finite, contended simulation resource.

``CpuPool`` is the simulator's one CPU resource. Without it dispatch CPU
is free (a process's clock is all the CPU model there is), so "how many
replicas per host?" has no answer; with it, serving replicas and the
cluster router book their dispatch time on shared cores. It models the host's physical cores (grouped into NUMA domains, see
:class:`repro.hardware.host.HostSpec`) and hands out *time-booked grants*:
a step's CPU share is scheduled onto the earliest-free core of the
replica's affine domain, and the difference between the grant's start and
the request time is a real queueing stall the step pays on its critical
path.

Policy processes book CPU shares synchronously, between yields
(:meth:`CpuPool.dispatch`). Booking is deterministic: cores are chosen by
``(earliest start, lowest index)``, local domain first; a remote-domain
core is used only when it starts *strictly* earlier and the caller is not
pinned, and the booked CPU time is inflated by the host's
``remote_penalty``. Per-core bookings are monotone in time, so grants on
one core can never overlap — rule N001 replays that invariant from the
exported trace.

With an attached causality log every booking records an ``occupy``
interval on ``<pool>.core<i>``, so ``repro check hb`` can certify that
core choice never hinged on an event-queue tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:
    from repro.sim.causality import CausalityLog


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


class CpuPool:
    """A host's cores, booked in time by the processes of one sim core."""

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
        self._log: CausalityLog | None = None

    # -- introspection ---------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.cores)

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
    def bind(self, causality: CausalityLog | None) -> None:
        """Attach a core's causality log (``SimCore.add_host_pool``)."""
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
            raise SimulationError(
                f"cpu pool {self.name}: no core in domain {domain} "
                f"for pinned owner {owner!r}")
        best, remote = local, False
        if domain is not None and not pinned:
            other = self._best_core(ts_ns, domain, invert=True)
            if other is not None and (
                    local is None
                    or max(ts_ns, other.free_at) < max(ts_ns, local.free_at)):
                best, remote = other, True
        # A pool has at least one core: an unpinned booking finds a local
        # or a remote one, and a pinned one with none was refused above.
        assert best is not None
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
        """Earliest-starting core in (``invert``: outside of) ``domain``;
        ties break on the lowest index. ``domain=None`` with
        ``invert=False`` considers every core."""
        best: CpuCore | None = None
        best_start = 0.0
        for core in self.cores:
            if domain is not None and (core.domain == domain) == invert:
                continue
            start = ts_ns if core.free_at <= ts_ns else core.free_at
            if best is None or start < best_start:
                best, best_start = core, start
        return best


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
