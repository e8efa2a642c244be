"""Cluster tier: a router process above N serving replicas.

The flat :class:`~repro.serving.runtime.ServingRuntime` scales out by
letting replicas race for claims on one shared queue. At cluster scale
that is the wrong model — a real deployment has a *router* making explicit
placement decisions — so this module puts one on the sim core:

* :class:`RoutedQueue` — a per-replica admission queue the router pushes
  into. Policy processes (continuous batching, with or without KV) run on
  it unchanged; its arrival hint folds in the router's next feed time so
  an idle replica sleeps until work can actually reach it.
* :class:`ClusterRuntime` — owns the core, a dedicated router CPU thread,
  and the replica pool. The router process wakes at each arrival, charges
  one CPU dispatch decision on its thread, and places the request per the
  configured :class:`RouterPolicy` (round-robin, least-loaded,
  session-affinity, or prefill/decode-disaggregated pools).
* **Autoscaling** — when the routed-but-unfinished backlog exceeds
  ``backlog_per_replica`` per live replica, the router spins up a new
  one. Spin-up is modeled as CPU dispatch work on the platform model
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
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.requests import Request, RequestOutcome, queue_delay_ns
from repro.serving.runtime import (
    AdmissionEntry,
    AdmissionQueue,
    EngineSession,
    KvReplicaStats,
    ReplicaStats,
    ServingRunResult,
    policy_process,
)
from repro.sim.causality import CausalityLog
from repro.sim.core import Process, SimCore
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


class ReplicaHandle:
    """One replica's view of the cluster, duck-typing ``ServingRuntime``.

    The continuous-batching policy processes only touch ``core``,
    ``queue``, ``latency``, ``model``, ``recorder``, and ``complete`` on
    their runtime, so a handle exposing those over the cluster lets them
    run on a routed queue unchanged.
    """

    def __init__(self, cluster: ClusterRuntime, session: EngineSession) -> None:
        self._cluster = cluster
        self.session = session
        self.queue = RoutedQueue(cluster)

    @property
    def replica(self) -> int:
        return self.session.replica

    @property
    def core(self) -> SimCore:
        return self._cluster.core

    @property
    def model(self) -> ModelConfig:
        return self._cluster.model

    @property
    def latency(self) -> LatencyModel:
        return self._cluster.latency

    @property
    def recorder(self) -> RunRecorder | None:
        return self._cluster.recorder

    def complete(self, request: Request, ttft_ns: float, completion_ns: float,
                 batch_size: int, service_start_ns: float,
                 session: EngineSession) -> RequestOutcome:
        return self._cluster.complete(
            request, ttft_ns=ttft_ns, completion_ns=completion_ns,
            batch_size=batch_size, service_start_ns=service_start_ns,
            session=session)


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


class ClusterRuntime:
    """Owns the sim core, the router, and the replica pool of one run."""

    def __init__(
        self,
        requests: Sequence[Request],
        model: ModelConfig,
        latency: LatencyModel,
        process: Callable[..., Process],
        policy: object,
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
        if not requests:
            raise ConfigurationError("no requests to serve")
        if replicas <= 0:
            raise ConfigurationError("replicas must be positive")
        if router is RouterPolicy.DISAGGREGATED and replicas < 2:
            raise ConfigurationError(
                "disaggregated routing needs at least two replicas "
                "(one prefill pool, one decode pool)")
        if disagg_prompt_ratio <= 0:
            raise ConfigurationError("disagg_prompt_ratio must be positive")
        self.model = model
        self.latency = latency
        self.recorder = recorder
        self.router_policy = router
        self.autoscale = autoscale
        self.disagg_prompt_ratio = disagg_prompt_ratio
        self._process = process
        self._serving_policy = policy
        self.core = SimCore(queue=queue, causality=causality)
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
        # host=None is the infinite-CPU fast path; a HostModel makes the
        # router and every replica contend for the host's finite cores.
        self.host = host
        if host is not None:
            host.attach(self.core, recorder=recorder)
        self.router_thread = self.core.add_cpu_thread(name="router")
        self.devices_per_replica = (
            (latency.tp.degree if latency.tp else 1)
            * (latency.pp.stages if latency.pp else 1))
        self.kv_config = kv if kv is not None and kv.enabled else None
        self.requests = sorted(requests, key=lambda r: r.arrival_ns)
        self._ids = [r.request_id for r in self.requests]
        if len(set(self._ids)) != len(self._ids):
            raise ConfigurationError("duplicate request ids in stream")
        self.handles: list[ReplicaHandle] = []
        for _ in range(replicas):
            self._make_replica()
        # Disaggregated pools split the *initial* replicas; autoscaled
        # ones join the decode pool (decode capacity is what backlogs).
        self._prefill_count = max(1, replicas // 2)
        self.outcomes: list[RequestOutcome] = []
        # Router bookkeeping.
        self._load: list[float] = [0.0] * replicas  # outstanding token mass
        self._outstanding = 0                       # routed, not completed
        self._session_map: dict[str, int] = {}
        self._rr_next = 0
        self._next_feed: float | None = (
            self.requests[0].arrival_ns + self.route_cost_ns)
        self._routed_ids: set[int] = set()
        self.routed_per_replica: list[int] = [0] * replicas
        self.scale_events: list[ScaleEvent] = []
        self.router_busy_ns = 0.0
        if recorder is not None:
            recorder.on_cluster(router.value, replicas, self._ids)

    # ------------------------------------------------------------------
    # Replica pool
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        return len(self.handles)

    @property
    def sessions(self) -> list[EngineSession]:
        return [handle.session for handle in self.handles]

    def _make_replica(self) -> ReplicaHandle:
        replica = len(self.handles)
        thread = self.core.add_cpu_thread(name=f"serve{replica}")
        devices = [self.core.add_device(replica=replica)
                   for _ in range(self.devices_per_replica)]
        manager = None
        if self.kv_config is not None:
            from repro.kvcache.manager import KvManager

            manager = KvManager.for_gpu(
                self.model, self.latency.platform, self.kv_config,
                recorder=self.recorder, replica=replica)
            self.core.add_kv_resource(manager.resource)
            if self.recorder is not None:
                self.recorder.on_kv_pool(replica, manager.capacity_blocks,
                                         self.kv_config.policy.value,
                                         self.kv_config.block_tokens)
        session = EngineSession(replica=replica, thread=thread,
                                devices=devices, recorder=self.recorder,
                                kv=manager, host=self.host,
                                numa_domain=(self.host.domain_for(replica)
                                             if self.host is not None
                                             else None))
        handle = ReplicaHandle(self, session)
        self.handles.append(handle)
        return handle

    def complete(self, request: Request, ttft_ns: float, completion_ns: float,
                 batch_size: int, service_start_ns: float,
                 session: EngineSession) -> RequestOutcome:
        """Record one finished request against the replica that served it."""
        outcome = RequestOutcome(
            request=request,
            ttft_ns=ttft_ns,
            completion_ns=completion_ns,
            batch_size=batch_size,
            queue_ns=queue_delay_ns(request, service_start_ns),
            replica=session.replica,
        )
        self.outcomes.append(outcome)
        session.requests += 1
        session.output_tokens += request.output_tokens
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
        self.router_thread.occupy(spinup_ns)
        self.router_busy_ns += spinup_ns
        if self.host is not None:
            # Spin-up dispatch burns real cores: the booking delays
            # replica grants, though the router itself never stalls (its
            # event timing must stay ahead of the feed hint it publishes).
            self.host.dispatch("router", ts_ns, spinup_ns,
                               domain=self.host.router_domain)
        handle = self._make_replica()
        self._load.append(0.0)
        self.routed_per_replica.append(0)
        self.scale_events.append(ScaleEvent(
            ts_ns=ts_ns, replicas=self.replicas, spinup_ns=spinup_ns))
        # Routing to the new replica is allowed immediately (its queue
        # exists now); it starts *serving* once the spin-up work is done.
        self.core.spawn(
            _delayed(self._policy_process(handle), ts_ns + spinup_ns),
            at_ns=ts_ns + spinup_ns)

    def _router_process(self) -> Process:
        clock = 0.0
        for request in self.requests:
            self._next_feed = request.arrival_ns + self.route_cost_ns
            if request.arrival_ns > clock:
                clock = yield ("at", request.arrival_ns)
            self._maybe_scale(clock)
            replica = self._pick(request)
            self.router_thread.occupy(self.route_cost_ns)
            self.router_busy_ns += self.route_cost_ns
            if self.host is not None:
                self.host.dispatch("router", clock, self.route_cost_ns,
                                   domain=self.host.router_domain)
            if request.request_id in self._routed_ids:
                raise SimulationError(
                    f"request {request.request_id} routed twice")
            self._routed_ids.add(request.request_id)
            self.handles[replica].queue.push(request)
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
    def _policy_process(self, handle: ReplicaHandle) -> Process:
        return self._process(handle, handle.session, self._serving_policy)

    def run(self) -> list[RequestOutcome]:
        """Drive the router plus one policy process per replica to the end."""
        self.core.spawn(self._router_process())
        # Replicas first wake when the first routed request can reach one —
        # never at the first arrival itself. A stream whose first request
        # lands exactly at a replica's start time would otherwise race the
        # router at one timestamp, and the tie-break order (not causality)
        # would decide whether the claim pays the routing latency.
        start_ns = self.requests[0].arrival_ns + self.route_cost_ns
        for handle in self.handles:
            self.core.spawn(_delayed(self._policy_process(handle), start_ns))
        self.core.run()
        if self._routed_ids != set(self._ids):
            missing = sorted(set(self._ids) - self._routed_ids)
            raise SimulationError(
                f"router dropped requests on the floor: {missing[:5]}")
        for handle in self.handles:
            if not handle.queue.all_claimed():
                unserved = [e.request.request_id
                            for e in handle.queue.entries if not e.claimed]
                raise SimulationError(
                    f"replica {handle.replica} left requests unserved: "
                    f"{unserved[:5]}")
        if len(self.outcomes) != len(self.requests):
            raise SimulationError(
                f"served {len(self.outcomes)} outcomes for "
                f"{len(self.requests)} requests")
        served = [o.request.request_id for o in self.outcomes]
        if len(set(served)) != len(served):
            raise SimulationError("a request completed more than once")
        for session in self.sessions:
            if session.kv is None:
                continue
            if session.kv.prefix_caching:
                # Warm (idle) shared-prefix groups are cache, not leaks.
                session.kv.flush_prefixes(self.core.now)
            if session.kv.pool.allocated != 0:
                raise SimulationError(
                    f"replica {session.replica} leaked "
                    f"{session.kv.pool.allocated} KV blocks at run end")
            if session.kv.host_blocks != 0:
                raise SimulationError(
                    f"replica {session.replica} left {session.kv.host_blocks}"
                    f" KV blocks stranded in host memory at run end")
        if self.recorder is not None:
            # Re-register with the final pool size so the exported
            # metadata reflects autoscaled replicas.
            self.recorder.on_cluster(self.router_policy.value, self.replicas,
                                     self._ids)
            if self.host is not None:
                # Likewise for the host block: the end-of-run core
                # occupancy totals are what rule N004 conserves.
                self.recorder.on_host(self.host.describe())
        return self.outcomes

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def replica_stats(self) -> list[ReplicaStats]:
        return [ReplicaStats(
            replica=s.replica,
            requests=s.requests,
            output_tokens=s.output_tokens,
            steps=s.steps,
            busy_ns=s.busy_ns,
            span_ns=s.span_ns,
            cpu_busy_ns=s.thread.busy_ns,
        ) for s in self.sessions]

    def kv_stats(self) -> list[KvReplicaStats]:
        stats = []
        for session in self.sessions:
            manager = session.kv
            if manager is None:
                continue
            stats.append(KvReplicaStats(
                replica=session.replica,
                capacity_blocks=manager.capacity_blocks,
                block_tokens=manager.block_tokens,
                preemptions=manager.preemptions,
                swap_out_events=manager.swap_out_events,
                swap_in_events=manager.swap_in_events,
                swapped_blocks=manager.swapped_blocks,
                swap_ns=manager.swap_ns_total,
                prefix_hits=manager.prefix_hits,
                prefix_misses=manager.prefix_misses,
                cow_forks=manager.cow_forks,
                prefix_evictions=manager.prefix_evictions,
            ))
        return stats

    def router_stats(self) -> RouterStats:
        return RouterStats(
            policy=self.router_policy.value,
            replicas=self.replicas,
            routed=len(self._routed_ids),
            routed_per_replica=tuple(self.routed_per_replica),
            router_busy_ns=self.router_busy_ns,
            route_cost_ns=self.route_cost_ns,
            scale_events=tuple(self.scale_events),
            sessions=len(self._session_map),
        )


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
    from repro.serving.batcher import ServingReport
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
    runtime = ClusterRuntime(
        requests, model, latency, process=policy_process(policy, kv),
        policy=policy,
        router=router, replicas=replicas, recorder=recorder, kv=kv,
        autoscale=autoscale, disagg_prompt_ratio=disagg_prompt_ratio,
        queue=queue, causality=causality, host=host)
    runtime.run()
    return ClusterRunResult(
        report=ServingReport(outcomes=list(runtime.outcomes)),
        outcomes=list(runtime.outcomes),
        replicas=runtime.replica_stats(),
        sessions=runtime.sessions,
        devices_per_replica=runtime.devices_per_replica,
        kv=runtime.kv_stats(),
        router=runtime.router_stats(),
        host=runtime.host.stats() if runtime.host is not None else None,
    )
