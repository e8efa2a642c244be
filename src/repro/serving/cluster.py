"""Cluster tier: a :class:`ServingRuntime` whose replicas a router feeds.

The flat :class:`~repro.serving.runtime.ServingRuntime` scales out by
letting replicas race for claims on one shared queue. At cluster scale
that is the wrong model — a real deployment has a *router* making explicit
placement decisions. :class:`ClusterRuntime` is the same runtime, with the
same replicas, policy processes, run-end checks and results; only how work
reaches a replica differs:

* :class:`RoutedQueue` — each replica's own admission queue, which the
  router pushes into. Policy processes (continuous batching, with or
  without KV) claim from it as from the shared queue; its arrival hint
  folds in the router's next feed time so an idle replica sleeps until
  work can actually reach it.
* The router process is the runtime's feeder in place of the open-loop
  arrival process. It claims each request from the runtime's
  :class:`~repro.serving.runtime.AdmissionQueue` at its arrival, charges
  one CPU dispatch decision to ``router_busy_ns`` (and, with a host
  model, books it on the host pool), and pushes the
  request to the replica the configured :class:`RouterPolicy` picks
  (round-robin, least-loaded, session-affinity, or
  prefill/decode-disaggregated pools).
* **Autoscaling** — when the routed-but-unfinished backlog exceeds
  ``backlog_per_replica`` per live replica, the router adds a replica
  (:meth:`~repro.serving.runtime.ServingRuntime.add_replica`). Spin-up is
  modeled as CPU dispatch work on the platform model
  (``spinup_dispatch_ops`` launch calls), and the new replica's policy
  process only starts once that delay elapses (:func:`_delayed`).

Determinism: the router routes an arrival at time ``t`` and idle replicas
wake at ``t + route_cost_ns`` — strictly after the routing event — so the
two never contend at the same timestamp and outcomes survive adversarial
tie-break perturbation (``repro check hb --certify`` runs the canonical
cluster scenario under LIFO ties to hold this).

Every routing decision is logged (recorder hook ``on_routed``, exported
as ``cluster`` trace metadata) so rules R001/R002 can replay conservation
and session affinity from the artifact alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.requests import Request, RequestOutcome
from repro.serving.runtime import (
    AdmissionEntry,
    AdmissionQueue,
    EngineSession,
    PolicyFactory,
    ServingRunResult,
    ServingRuntime,
    policy_process,
)
from repro.sim.causality import CausalityLog
from repro.sim.core import Process
from repro.sim.queue import EventQueue
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.host.model import HostModel
    from repro.kvcache.manager import KvCacheConfig


class RouterPolicy(enum.Enum):
    """How the cluster router places each arriving request."""

    ROUND_ROBIN = "round-robin"      # rotate, ignoring load
    LEAST_LOADED = "least-loaded"    # fewest outstanding tokens wins
    SESSION = "session"              # sticky session -> replica affinity
    DISAGGREGATED = "disaggregated"  # prefill-heavy vs decode-heavy pools


@dataclass(frozen=True)
class AutoscaleConfig:
    """SLO-driven scale-out knobs for the cluster router.

    Attributes:
        max_replicas: Hard ceiling on replica count.
        backlog_per_replica: Routed-but-unfinished requests per live
            replica that trigger a spin-up.
        spinup_dispatch_ops: CPU dispatch calls one spin-up costs on the
            platform model (weight load plus engine warm-up, expressed in
            the currency the paper measures: launch work).
    """

    max_replicas: int = 8
    backlog_per_replica: int = 8
    spinup_dispatch_ops: int = 2000

    def __post_init__(self) -> None:
        if self.max_replicas <= 0:
            raise ConfigurationError("max_replicas must be positive")
        if self.backlog_per_replica <= 0:
            raise ConfigurationError("backlog_per_replica must be positive")
        if self.spinup_dispatch_ops <= 0:
            raise ConfigurationError("spinup_dispatch_ops must be positive")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision."""

    ts_ns: float
    replicas: int     # replica count after the spin-up
    spinup_ns: float  # modeled dispatch work the spin-up cost


@dataclass(frozen=True)
class RouterStats:
    """What the router did over one cluster run."""

    policy: str
    replicas: int                 # final replica count
    routed: int
    routed_per_replica: tuple[int, ...]
    router_busy_ns: float
    route_cost_ns: float
    scale_events: tuple[ScaleEvent, ...] = ()
    sessions: int = 0             # distinct sticky session tags seen


@dataclass
class ClusterRunResult(ServingRunResult):
    """A :class:`ServingRunResult` plus the router's own accounting."""

    router: RouterStats | None = None


class RoutedQueue(AdmissionQueue):
    """A per-replica admission queue fed by the cluster router.

    Starts empty (the router pushes entries as it places requests) and
    folds the router's next feed time into the arrival hint, so a policy
    process idling on an empty queue sleeps until the next instant work
    could actually reach this replica — never spinning at the router's
    own timestamp.
    """

    def __init__(self, cluster: ClusterRuntime) -> None:
        self.entries: list[AdmissionEntry] = []
        self._scan_start = 0
        self._cluster = cluster

    def push(self, request: Request) -> None:
        """Append a routed request (the router calls this in arrival order)."""
        if self.entries and request.arrival_ns < self.entries[-1].arrival_ns:
            raise SimulationError("router pushed requests out of arrival order")
        self.entries.append(AdmissionEntry(
            request=request, injected=True, index=len(self.entries)))

    def next_unclaimed_arrival(self, after: float | None = None,
                               tag: object = None) -> float | None:
        own = super().next_unclaimed_arrival(after, tag)
        pending = self._cluster.next_feed_ns()
        if pending is not None and after is not None and pending <= after:
            # The feed frontier is behind this replica's clock; anything it
            # covers is either already pushed here or went elsewhere.
            pending = None
        if own is None:
            return pending
        if pending is None:
            return own
        return min(own, pending)


def _delayed(inner: Process, start_ns: float) -> Process:
    """Hold a policy process's first wake-up until ``start_ns``.

    Policy generators open with ``yield ("at", 0.0)``; spawning one
    mid-run would let that timer pop immediately and hand the process a
    clock of zero — serving before the replica exists. This trampoline
    rewrites the first timer to the spin-up completion time and forwards
    everything else verbatim.
    """
    request = next(inner)
    if isinstance(request, tuple) and len(request) == 2 and request[0] == "at":
        request = ("at", max(float(request[1]), start_ns))
    while True:
        value = yield request
        try:
            request = inner.send(value)
        except StopIteration:
            return


class ClusterRuntime(ServingRuntime):
    """A serving runtime whose feeder is the router and whose replicas
    each claim from their own :class:`RoutedQueue`."""

    def __init__(
        self,
        requests: Sequence[Request],
        model: ModelConfig,
        latency: LatencyModel,
        router: RouterPolicy = RouterPolicy.LEAST_LOADED,
        replicas: int = 4,
        recorder: RunRecorder | None = None,
        kv: KvCacheConfig | None = None,
        autoscale: AutoscaleConfig | None = None,
        disagg_prompt_ratio: float = 4.0,
        queue: EventQueue | None = None,
        causality: CausalityLog | None = None,
        host: HostModel | None = None,
    ) -> None:
        if router is RouterPolicy.DISAGGREGATED and replicas < 2:
            raise ConfigurationError(
                "disaggregated routing needs at least two replicas "
                "(one prefill pool, one decode pool)")
        if disagg_prompt_ratio <= 0:
            raise ConfigurationError("disagg_prompt_ratio must be positive")
        # Routing decisions are CPU dispatch work on the platform model;
        # a strictly positive cost is also what keeps router events and
        # replica wake-ups off the same timestamp — so a platform whose
        # launch-call cost is not positive is a broken configuration,
        # not something to clamp over silently.
        route_cost_ns = latency.platform.launch_call_cpu_ns
        if route_cost_ns <= 0:
            raise ConfigurationError(
                f"platform {latency.platform.name} reports a non-positive "
                f"launch_call_cpu_ns ({route_cost_ns}); the router cannot "
                f"model a free dispatch decision")
        self.route_cost_ns = route_cost_ns
        self.router_policy = router
        self.autoscale = autoscale
        self.disagg_prompt_ratio = disagg_prompt_ratio
        # Router bookkeeping, one slot per replica (add_replica grows it).
        self._load: list[float] = []      # outstanding token mass
        self.routed_per_replica: list[int] = []
        self._outstanding = 0             # routed, not completed
        self._session_map: dict[str, int] = {}
        self._rr_next = 0
        self.scale_events: list[ScaleEvent] = []
        self.router_busy_ns = 0.0
        super().__init__(requests, model, latency, recorder=recorder,
                         replicas=replicas, kv=kv, queue=queue,
                         causality=causality, host=host)
        # Disaggregated pools split the *initial* replicas; autoscaled
        # ones join the decode pool (decode capacity is what backlogs).
        self._prefill_count = max(1, replicas // 2)
        self._next_feed: float | None = (
            self.queue.entries[0].arrival_ns + route_cost_ns)

    # ------------------------------------------------------------------
    # Replica pool
    # ------------------------------------------------------------------
    def add_replica(self) -> EngineSession:
        session = super().add_replica()
        self._load.append(0.0)
        self.routed_per_replica.append(0)
        return session

    def _replica_queue(self) -> RoutedQueue:
        return RoutedQueue(self)

    def complete(self, request: Request, first_token_ns: float,
                 completed_ns: float, batch_size: int,
                 service_start_ns: float,
                 session: EngineSession) -> RequestOutcome:
        outcome = super().complete(request, first_token_ns, completed_ns,
                                   batch_size, service_start_ns, session)
        self._load[session.replica] -= self._mass(request)
        self._outstanding -= 1
        return outcome

    # ------------------------------------------------------------------
    # Router
    # ------------------------------------------------------------------
    def next_feed_ns(self) -> float | None:
        """Earliest time a not-yet-routed request can reach any replica.

        ``None`` once the router has placed everything. Strictly later
        than the routing event itself (by ``route_cost_ns``), so an idle
        replica waking on this hint always finds the decision already
        made — under any event-queue tie-break order.
        """
        return self._next_feed

    @staticmethod
    def _mass(request: Request) -> float:
        return float(request.prompt_len + request.output_tokens)

    def _least_loaded(self, candidates: Sequence[int]) -> int:
        best = candidates[0]
        for replica in candidates[1:]:
            if self._load[replica] < self._load[best]:
                best = replica
        return best

    def _pick(self, request: Request) -> int:
        policy = self.router_policy
        if policy is RouterPolicy.ROUND_ROBIN:
            replica = self._rr_next % self.replicas
            self._rr_next += 1
            return replica
        if policy is RouterPolicy.LEAST_LOADED:
            return self._least_loaded(range(self.replicas))
        if policy is RouterPolicy.SESSION:
            session = getattr(request, "session", None)
            if session is not None and session in self._session_map:
                return self._session_map[session]
            replica = self._least_loaded(range(self.replicas))
            if session is not None:
                self._session_map[session] = replica
            return replica
        # DISAGGREGATED: prefill-heavy requests go to the prefill pool.
        prefill_heavy = (request.prompt_len
                         >= self.disagg_prompt_ratio * request.output_tokens)
        pool = (range(self._prefill_count) if prefill_heavy
                else range(self._prefill_count, self.replicas))
        return self._least_loaded(pool)

    def _maybe_scale(self, ts_ns: float) -> None:
        scale = self.autoscale
        if scale is None or self.replicas >= scale.max_replicas:
            return
        if self._outstanding < scale.backlog_per_replica * self.replicas:
            return
        spinup_ns = (scale.spinup_dispatch_ops
                     * self.latency.platform.launch_call_cpu_ns)
        self.router_busy_ns += spinup_ns
        if self.host is not None:
            # Spin-up dispatch burns real cores: the booking delays
            # replica grants, though the router itself never stalls (its
            # event timing must stay ahead of the feed hint it publishes).
            self.host.dispatch("router", ts_ns, spinup_ns,
                               domain=self.host.router_domain)
        session = self.add_replica()
        self.scale_events.append(ScaleEvent(
            ts_ns=ts_ns, replicas=self.replicas, spinup_ns=spinup_ns))
        # Routing to the new replica is allowed immediately (its queue
        # exists now); it starts *serving* once the spin-up work is done.
        self.core.spawn(
            _delayed(self._policy_factory(self, session), ts_ns + spinup_ns),
            at_ns=ts_ns + spinup_ns)

    def _feeder(self) -> Process:
        """The router: claim each request at its arrival and route it."""
        clock = 0.0
        for entry in self.queue.entries:
            request = entry.request
            self._next_feed = request.arrival_ns + self.route_cost_ns
            if request.arrival_ns > clock:
                clock = yield ("at", request.arrival_ns)
            self._maybe_scale(clock)
            replica = self._pick(request)
            self.router_busy_ns += self.route_cost_ns
            if self.host is not None:
                self.host.dispatch("router", clock, self.route_cost_ns,
                                   domain=self.host.router_domain)
            if entry.claimed:
                raise SimulationError(
                    f"request {request.request_id} routed twice")
            entry.claimed = entry.injected = True
            self.sessions[replica].queue.push(request)
            self._load[replica] += self._mass(request)
            self._outstanding += 1
            self.routed_per_replica[replica] += 1
            if self.recorder is not None:
                self.recorder.on_routed(
                    request.request_id, replica, clock,
                    session=getattr(request, "session", None),
                    tenant=getattr(request, "tenant", None))
        self._next_feed = None

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self, policy_factory: PolicyFactory) -> list[RequestOutcome]:
        """Drive the router plus one policy process per replica to the end.

        Replicas first wake when the first routed request can reach one —
        never at the first arrival itself. A stream whose first request
        lands exactly at a replica's start time would otherwise race the
        router at one timestamp, and the tie-break order (not causality)
        would decide whether the claim pays the routing latency.
        """
        self._policy_factory = policy_factory
        start_ns = self._next_feed
        outcomes = super().run(
            lambda runtime, session: _delayed(
                policy_factory(runtime, session), start_ns))
        if self.recorder is not None:
            # Registered at run end so the exported metadata counts
            # autoscaled replicas.
            self.recorder.on_cluster(
                self.router_policy.value, self.replicas,
                [entry.request.request_id for entry in self.queue.entries])
        return outcomes

    def router_stats(self) -> RouterStats:
        return RouterStats(
            policy=self.router_policy.value,
            replicas=self.replicas,
            routed=sum(self.routed_per_replica),
            routed_per_replica=tuple(self.routed_per_replica),
            router_busy_ns=self.router_busy_ns,
            route_cost_ns=self.route_cost_ns,
            scale_events=tuple(self.scale_events),
            sessions=len(self._session_map),
        )

    def result(self) -> ClusterRunResult:
        return ClusterRunResult(**vars(super().result()),
                                router=self.router_stats())


def simulate_cluster(
    requests: Sequence[Request],
    model: ModelConfig,
    latency: LatencyModel,
    policy: object | None = None,
    router: RouterPolicy | str = RouterPolicy.LEAST_LOADED,
    replicas: int = 4,
    recorder: RunRecorder | None = None,
    kv: KvCacheConfig | None = None,
    autoscale: AutoscaleConfig | None = None,
    disagg_prompt_ratio: float = 4.0,
    queue: EventQueue | None = None,
    causality: CausalityLog | None = None,
    host: HostModel | None = None,
) -> ClusterRunResult:
    """Serve a request stream through the router + replica-pool stack.

    Args:
        requests: The arrival stream — typically
            :func:`repro.traffic.generate_traffic` output, but plain
            :class:`Request` lists work too (they just carry no tags for
            the session or prefix machinery to use).
        policy: Per-replica serving policy; continuous batching only (the
            iteration-level scheduler is what a routed replica runs).
        router: Placement policy, as a :class:`RouterPolicy` or its value.
        replicas: Initial replica count (autoscaling may add more).
        kv: KV-cache settings per replica; ``prefix_caching=True`` enables
            copy-on-write shared prefixes.
        autoscale: Optional scale-out config; ``None`` fixes the pool.
        queue / causality: Sim-core overrides for determinism
            certification and happens-before logging, exactly as in
            :func:`~repro.serving.runtime.simulate_serving`.
        host: Optional finite-host CPU model
            (:class:`repro.host.HostModel`): the router and every
            replica then book their dispatch work on one shared core
            pool. ``None`` keeps host CPU infinite, bit-identically to
            prior behavior.
    """
    from repro.serving.continuous import ContinuousBatchPolicy

    if isinstance(router, str):
        try:
            router = RouterPolicy(router)
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown router policy: {router!r}") from exc
    if policy is None:
        policy = ContinuousBatchPolicy()
    if not isinstance(policy, ContinuousBatchPolicy):
        raise ConfigurationError(
            f"cluster replicas run continuous batching; "
            f"got {type(policy).__name__}")
    process = policy_process(policy, kv)
    runtime = ClusterRuntime(
        requests, model, latency, router=router, replicas=replicas,
        recorder=recorder, kv=kv, autoscale=autoscale,
        disagg_prompt_ratio=disagg_prompt_ratio, queue=queue,
        causality=causality, host=host)
    runtime.run(lambda rt, session: process(rt, session, policy))
    return runtime.result()
