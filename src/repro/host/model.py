"""HostModel — one host's contended CPU, wired into a serving run.

:class:`~repro.hardware.host.HostSpec` is static topology;
:class:`~repro.host.pool.CpuPool` is the raw resource. ``HostModel`` is
the piece a runtime actually holds: it materializes the pool for a given
replica count, maps each replica to its affine NUMA domain, attaches the
pool to the sim core (and the run recorder, so every booking exports as
``host`` trace metadata for the N-rules), and books the cluster router's
and replicas' dispatch work.

``HostConfig`` carries the user-facing knobs (``repro serve
--host-cores/--numa/--pin``); ``cores=0`` means "no host model" at the
CLI layer and callers never construct a ``HostModel`` for it — the
``host=None`` path through the serving stack is bit-identical to a build
without this subsystem (parity-locked, see
``tests/serving/test_host_contention.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, require_non_negative
from repro.hardware.host import HostSpec, NumaDomain, host_for
from repro.hardware.platform import Platform
from repro.host.pool import CoreGrant, pool_from_domains

if TYPE_CHECKING:
    from repro.obs.recorder import RunRecorder
    from repro.sim.core import SimCore


@dataclass(frozen=True)
class HostConfig:
    """User-facing host-contention knobs (``repro serve`` flags).

    Attributes:
        cores: Core budget override; 0 keeps the cataloged topology. On
            shared-socket hosts this is the host's total core count, on
            per-GPU-domain hosts (GH200/MI300A) the budget of each
            GPU-attached domain (see ``HostSpec.domains_for``).
        numa: Force every replica's dispatch affinity to this domain
            (``--numa``); None assigns each replica its GPU's domain.
        pin: Forbid remote-domain spill (``--pin``): a replica waits for
            a local core instead of borrowing a penalized remote one.
    """

    cores: int = 0
    numa: int | None = None
    pin: bool = False

    def __post_init__(self) -> None:
        # cores 0 keeps the cataloged topology.
        require_non_negative(self, "cores")
        if self.numa is not None:
            require_non_negative(self, "numa")


@dataclass(frozen=True)
class HostStats:
    """What the host's CPU did over one serving run."""

    cores: int
    domains: int
    grants: int
    remote_grants: int
    stall_ns: float
    busy_ns: float

    @property
    def busy_per_core_ns(self) -> float:
        return self.busy_ns / self.cores if self.cores else 0.0


class HostModel:
    """A finite host serving one run's replicas (and its router)."""

    def __init__(self, spec: HostSpec, replicas: int,
                 config: HostConfig | None = None) -> None:
        if replicas <= 0:
            raise ConfigurationError("replicas must be positive")
        self.spec = spec
        self.config = config or HostConfig()
        self.domains: tuple[NumaDomain, ...] = spec.domains_for(
            replicas, cores_override=self.config.cores)
        if (self.config.numa is not None
                and self.config.numa >= len(self.domains)):
            raise ConfigurationError(
                f"--numa {self.config.numa} is out of range: host "
                f"{spec.name} presents {len(self.domains)} domains")
        self.pool = pool_from_domains(
            [(d.index, d.cores) for d in self.domains],
            name="host", remote_penalty=spec.remote_penalty)
        self.pinned = self.config.pin
        self.recorder: RunRecorder | None = None
        self.grants = 0
        self.remote_grants = 0
        self.stall_ns = 0.0

    @classmethod
    def for_platform(cls, platform: Platform | str, replicas: int,
                     config: HostConfig | None = None) -> "HostModel":
        """Build the cataloged host of ``platform`` for ``replicas``."""
        return cls(host_for(platform), replicas, config=config)

    # -- wiring ----------------------------------------------------------
    def attach(self, core: SimCore,
               recorder: RunRecorder | None = None) -> None:
        """Bind the pool to the run's sim core and recorder."""
        core.add_host_pool(self.pool)
        self.recorder = recorder
        if recorder is not None:
            recorder.on_host(self.describe())

    def domain_for(self, replica: int) -> int:
        """The NUMA domain replica ``replica`` dispatches from.

        A ``--numa`` override wins; otherwise the replica's GPU domain.
        Autoscaled replicas beyond the materialized domain count fold
        back round-robin (scaling out does not add superchips mid-run).
        """
        if self.config.numa is not None:
            return self.config.numa
        return self.spec.domain_of_gpu(replica) % len(self.domains)

    @property
    def router_domain(self) -> int:
        """Where the cluster router's dispatch work lands (domain 0, or
        the ``--numa`` override — the router shares the replicas' pool)."""
        return self.config.numa if self.config.numa is not None else 0

    # -- booking ---------------------------------------------------------
    def dispatch(self, owner: str, ts_ns: float, cpu_ns: float,
                 domain: int | None = None) -> CoreGrant:
        """Book ``cpu_ns`` of dispatch work and account the grant."""
        grant = self.pool.dispatch(owner, ts_ns, cpu_ns, domain=domain,
                                   pinned=self.pinned)
        self.grants += 1
        if grant.remote:
            self.remote_grants += 1
        self.stall_ns += grant.start_ns - ts_ns
        if self.recorder is not None:
            self.recorder.on_host_grant(
                owner=grant.owner, core=grant.core, domain=grant.domain,
                start_ns=grant.start_ns, end_ns=grant.end_ns,
                cpu_ns=grant.cpu_ns, remote=grant.remote,
                requested_ns=ts_ns)
        return grant

    # -- reporting -------------------------------------------------------
    def describe(self) -> dict:
        """The ``host`` trace-metadata block (rules N001–N004 replay it)."""
        return {
            "name": self.pool.name,
            "platform": self.spec.platform,
            "remote_penalty": self.spec.remote_penalty,
            "pinned": self.pinned,
            "numa_override": self.config.numa,
            "cores": [{"index": core.index, "domain": core.domain,
                       "busy_ns": core.busy_ns, "grants": core.grants}
                      for core in self.pool.cores],
            "replica_domains": {
                str(d.index): list(d.gpus) for d in self.domains},
        }

    def stats(self) -> HostStats:
        return HostStats(
            cores=self.pool.capacity,
            domains=len(self.domains),
            grants=self.grants,
            remote_grants=self.remote_grants,
            stall_ns=self.stall_ns,
            busy_ns=self.pool.busy_ns,
        )
