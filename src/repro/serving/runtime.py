"""The serving runtime: policies as processes on the event-driven sim core.

Every serving policy used to be its own standalone simulator, each carrying
a private float clock, admission scan, and outcome bookkeeping. This module
hoists the machinery all serving policies share onto
:class:`repro.sim.SimCore`:

* :class:`AdmissionQueue` — the shared arrival stream. Entries are sorted by
  arrival; policy processes *claim* them (atomically, between yields) and a
  claim is what admission means. Claims may be filtered by an optional tag
  (e.g. priority classes).
* :func:`arrival_process` — injects each request into the queue at its
  ``arrival_ns``; pure bookkeeping, the open-loop load generator.
* :class:`EngineSession` — one engine replica's resources: one GPU device
  per tensor-parallel shard, and the queue its policy process claims
  from. ``execute`` (one step) and ``execute_steps`` (a decode window's
  steps) are where a policy's steps touch simulated hardware: with a host
  model each step books its dispatch CPU on the host's
  :class:`~repro.host.CpuPool` (the one CPU model), then it submits one
  kernel per device stream and appends to the replica's device schedules
  (checkable by ``repro check schedule``), and the steps are recorded with
  the run recorder.
* :class:`ServingRuntime` — owns the core, the queue, the sessions, and the
  outcome list. Both policy processes finish a request through
  ``complete``, which derives its TTFT and completion latency as booked
  time minus arrival. ``run(policy_factory)`` spawns the feeder (the
  arrival process) plus one policy process per replica, drives the
  simulation to completion and checks that every request was served
  exactly once, that no KV block was left behind and that every outcome
  equals its recorded span exactly; ``result()`` packs a
  :class:`ServingRunResult`.
  :class:`~repro.serving.cluster.ClusterRuntime` is the same runtime with
  a router as its feeder and a routed queue per replica.
* :func:`simulate_serving` — the one entry point: :func:`policy_process`
  picks the policy's process (continuous batching, gated by a KV pool when
  the run has one, or the batched loop of :mod:`repro.serving.batched`
  that static, priority, speculative, pipeline and RAG policies share),
  and the results (report, per-replica stats, schedules) come back in a
  :class:`ServingRunResult`.

With ``replicas=1`` continuous serving reproduces the retired standalone
loops' outcomes bit for bit. Static and priority outcomes match theirs
except where the batched loop's booked clock moves a completion by a few
ulps; the reference rows, moved ones included, are frozen as exact
fixtures under ``tests/golden/data/``. With ``replicas>1`` the
processes race for claims on the shared queue; the core's deterministic
FIFO tie-break (spawn order at equal timestamps) keeps multi-replica runs
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import EngineShape, StepKind
from repro.obs.recorder import RunRecorder
from repro.serving.latency import LatencyModel
from repro.serving.requests import Request, RequestOutcome, queue_delay_ns
from repro.sim.causality import CausalityLog
from repro.sim.core import Process, SimCore
from repro.sim.queue import EventQueue
from repro.sim.resources import GpuDevice
from repro.workloads.config import ModelConfig

if TYPE_CHECKING:
    from repro.host.model import HostModel, HostStats
    from repro.kvcache.manager import KvCacheConfig, KvManager
    from repro.serving.batcher import ServingReport
    from repro.serving.planner import DecodeStep


# ----------------------------------------------------------------------
# Admission queue
# ----------------------------------------------------------------------
@dataclass(slots=True)
class AdmissionEntry:
    """One request waiting in (or already claimed from) the shared queue."""

    request: Request
    tag: Hashable = None
    injected: bool = False
    claimed: bool = False
    #: Position in the queue's arrival-sorted entry list; lets claim_batch
    #: resume scanning right after its seed instead of from the front.
    index: int = -1

    @property
    def arrival_ns(self) -> float:
        return self.request.arrival_ns


class AdmissionQueue:
    """The arrival stream every replica's policy process claims work from.

    Entries stay in arrival order for the queue's whole lifetime; *claiming*
    flips a flag rather than removing the entry, so "consecutive unclaimed"
    — the static batcher's contiguity rule — survives interleaved claims by
    other replicas. All mutation happens inside a policy process between
    yields, which the single-threaded core runs atomically.
    """

    def __init__(self, requests: Sequence[Request],
                 tags: dict[int, Hashable] | None = None) -> None:
        if not requests:
            raise ConfigurationError("no requests to serve")
        # A sorted scan, not a set: a set of every id raised the peak RSS
        # of a 6k-request serve by 1.2 MiB.
        ids = sorted(r.request_id for r in requests)
        if any(a == b for a, b in pairwise(ids)):
            raise ConfigurationError("duplicate request ids in stream")
        # Stable sort by arrival keeps ties in caller order.
        ordered = sorted(requests, key=lambda r: r.arrival_ns)
        tags = tags or {}
        self.entries = [
            AdmissionEntry(request=r, tag=tags.get(r.request_id), index=i)
            for i, r in enumerate(ordered)
        ]
        # Every entry before this index is claimed. Claims are monotone
        # (never undone), so the cursor only moves forward; it turns the
        # O(total-requests) front-of-queue rescans every policy wake-up
        # performs into O(still-pending). Pure bookkeeping: the entries
        # yielded are exactly those the full scan would yield.
        self._scan_start = 0

    # -- read side -----------------------------------------------------
    def _unclaimed(self, tag: Hashable = None) -> Iterable[AdmissionEntry]:
        entries = self.entries
        start = self._scan_start
        n = len(entries)
        while start < n and entries[start].claimed:
            start += 1
        self._scan_start = start
        for i in range(start, n):
            entry = entries[i]
            if not entry.claimed and (tag is None or entry.tag == tag):
                yield entry

    def first_unclaimed(self, tag: Hashable = None) -> AdmissionEntry | None:
        """Oldest unclaimed entry (optionally of one tag), or None."""
        for entry in self._unclaimed(tag):
            return entry
        return None

    def next_unclaimed_arrival(self, after: float | None = None,
                               tag: Hashable = None) -> float | None:
        """Arrival time of the first unclaimed entry, or of the first one
        arriving strictly after ``after``. None when no such entry exists."""
        for entry in self._unclaimed(tag):
            if after is None or entry.arrival_ns > after:
                return entry.arrival_ns
        return None

    def depth(self, now: float, tag: Hashable = None) -> int:
        """Unclaimed requests that have arrived by ``now``."""
        count = 0
        for entry in self._unclaimed(tag):
            if entry.arrival_ns > now:
                break
            count += 1
        return count

    def all_claimed(self) -> bool:
        return self.first_unclaimed() is None

    # -- write side ----------------------------------------------------
    def claim(self, now: float, limit: int,
              tag: Hashable = None) -> list[Request]:
        """Claim up to ``limit`` unclaimed requests that arrived by ``now``,
        oldest first. Returns the claimed requests in arrival order."""
        batch: list[Request] = []
        for entry in self._unclaimed(tag):
            if len(batch) >= limit or entry.arrival_ns > now:
                break
            entry.claimed = True
            entry.injected = True
            batch.append(entry.request)
        return batch

    def claim_batch(self, seed: AdmissionEntry, limit: int,
                    cutoff: float) -> list[Request]:
        """Claim ``seed`` plus the consecutive unclaimed entries after it
        whose arrivals are within ``cutoff`` — the static batcher's gather
        rule (a gap in arrivals past the cutoff closes the batch)."""
        if seed.claimed:
            raise SimulationError(
                f"request {seed.request.request_id} claimed twice")
        seed.claimed = True
        seed.injected = True
        batch = [seed.request]
        for entry in self.entries[seed.index + 1:]:
            if entry.claimed:
                continue
            if len(batch) >= limit or entry.arrival_ns > cutoff:
                break
            entry.claimed = True
            entry.injected = True
            batch.append(entry.request)
        return batch


def arrival_process(queue: AdmissionQueue) -> Process:
    """Open-loop load generator: marks each entry injected at its arrival.

    Claims gate on ``arrival_ns <= now`` directly, so this process carries
    no scheduling semantics — it exists so every arrival is a simulation
    event (visible in ``core.now`` advancement) and so tests can observe
    the injection front via :attr:`AdmissionEntry.injected`.
    """
    for entry in queue.entries:
        if not entry.injected:
            yield ("at", entry.arrival_ns)
        entry.injected = True


# ----------------------------------------------------------------------
# Engine sessions (one per replica)
# ----------------------------------------------------------------------
#: The schedule item of a step that keeps its kind's default kernel name,
#: one shared tuple per kind.
_KERNEL_ITEMS = {kind: ("kernel", f"serving::{kind.value}")
                 for kind in StepKind}


@dataclass
class EngineSession:
    """One engine replica: its TP shard devices and its admission queue.

    ``queue`` is what the replica's policy process claims from: the
    runtime's shared :class:`AdmissionQueue` in a flat run, or the
    replica's own :class:`~repro.serving.cluster.RoutedQueue` under a
    router.

    ``schedule_items`` holds, per device, the ordered issue list the policy
    produced — ``("kernel", name)`` entries plus, for multi-shard replicas,
    ``("join", key, parties)`` collectives that keep the shards in lockstep.
    ``repro.check.schedule.schedules_from_serving`` lifts these into typed
    :class:`DeviceSchedule` objects for the static checker.
    """

    replica: int
    devices: list[GpuDevice]
    queue: AdmissionQueue
    recorder: RunRecorder | None = None
    kv: KvManager | None = None
    #: Finite-host CPU model (None = the classic infinite-CPU path, which
    #: is bit-identical to a build without :mod:`repro.host`).
    host: HostModel | None = None
    #: NUMA domain this replica's dispatch is affine to (host runs only).
    numa_domain: int | None = None
    schedule_items: dict[int, list[tuple]] = field(default_factory=dict)
    #: Dispatch CPU this replica's steps booked on the host pool (the sum
    #: of their grants' ``cpu_ns``; 0 without a host model).
    cpu_busy_ns: float = 0.0
    steps: int = 0
    requests: int = 0
    output_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.devices:
            raise SimulationError("engine session needs at least one device")
        for device in self.devices:
            self.schedule_items[device.index] = []

    @property
    def world(self) -> int:
        return len(self.devices)

    def execute(self, kind: StepKind, ts_ns: float, dur_ns: float,
                batch_size: int, queue_depth: int = 0,
                shape: EngineShape | None = None,
                schedule_label: str | None = None,
                cpu_ns: float = 0.0) -> float:
        """Run one policy step on this replica's simulated hardware.

        Submits one covering kernel per shard's compute stream (steps on a
        replica are issued in time order, so each submission starts
        exactly at ``ts_ns``), and appends the issue to every shard's checkable schedule. Multi-shard
        steps also record a rendezvous joining all shards, mirroring how
        tensor-parallel execution keeps devices in lockstep.

        Returns the step's *effective* duration, which the caller adds to
        its clock. Without a host model that is exactly ``dur_ns`` — so
        ``clock += session.execute(...)`` performs the same float
        operations as the historical ``execute(...); clock += dur_ns``
        (the parity anchor). With a host model attached, the step first
        books its CPU share ``cpu_ns`` on the finite
        :class:`~repro.host.CpuPool`: the grant's queueing stall delays
        the whole step, and a remote-domain booking inflates the CPU
        share by the host's NUMA penalty — both surface in the returned
        duration and in the recorded step.

        ``schedule_label`` overrides the kernel name recorded in the
        checkable schedule (the chunked-prefill planner encodes chunk
        coordinates there for rule S007); the recorder stream is unaffected.
        """
        start_ns, span_ns = self._step_hardware(
            ts_ns, dur_ns, cpu_ns, self._kernel_item(kind, schedule_label))
        if self.recorder is not None:
            self.recorder.record_step(kind, start_ns, span_ns, batch_size,
                                      queue_depth=queue_depth, shape=shape,
                                      replica=self.replica)
        return (start_ns - ts_ns) + span_ns

    def execute_steps(self, kind: StepKind, ts_ns: float,
                      steps: Iterable[DecodeStep], batch_size: int,
                      queue_depth: int = 0,
                      horizon_ns: float = math.inf,
                      schedule_label: str | None = None) -> list[float]:
        """Run consecutive same-batch steps back to back: the window form
        of :meth:`execute`.

        Each of ``steps`` gives a step's duration, dispatch CPU share and
        recorded shape. Step ``j`` is requested at ``clocks[j]``; it books
        its own host grant (with a host model), submits to every shard's
        stream and appends its schedule items, in step order, exactly as
        one :meth:`execute` per step would. The steps are then recorded
        with one :meth:`RunRecorder.record_steps`.

        Returns the clock readings ``[ts_ns, c_1, ..., c_k]``: step ``j``
        runs from ``clocks[j]`` to ``clocks[j + 1]``, each reading the
        previous one plus that step's effective duration (the repeated
        ``clock += execute(...)`` of a one-step loop). No step starts once
        the clock has reached ``horizon_ns``: host stalls can end a window
        before the steps its planner priced on raw durations run out.
        """
        clocks = [ts_ns]
        starts: list[float] = []
        spans: list[float] = []
        shapes: list[EngineShape | None] = []
        clock = ts_ns
        item = self._kernel_item(kind, schedule_label)
        for dur_ns, cpu_ns, shape in steps:
            start_ns, span_ns = self._step_hardware(clock, dur_ns, cpu_ns,
                                                    item)
            starts.append(start_ns)
            spans.append(span_ns)
            shapes.append(shape)
            clock += (start_ns - clock) + span_ns
            clocks.append(clock)
            if clock >= horizon_ns:
                break
            # The run's first step of a kind inserts the recorder's
            # counters for it. With a host model, a later step of the same
            # window could book the run's first remote grant, whose
            # counter a one-step loop inserts after them, so that step
            # runs alone.
            if (len(starts) == 1 and self.host is not None
                    and self.recorder is not None
                    and not self.recorder.steps_of(kind)):
                break
        if self.recorder is not None:
            self.recorder.record_steps(kind, starts, spans, batch_size,
                                       queue_depth=queue_depth,
                                       shapes=shapes, replica=self.replica)
        return clocks

    @staticmethod
    def _kernel_item(kind: StepKind,
                     schedule_label: str | None) -> tuple[str, str]:
        """The ``("kernel", name)`` schedule item of a step: the kind's
        shared item, or a new one for a custom label."""
        if schedule_label:
            return ("kernel", schedule_label)
        return _KERNEL_ITEMS[kind]

    def _step_hardware(self, ts_ns: float, dur_ns: float, cpu_ns: float,
                       item: tuple[str, str]) -> tuple[float, float]:
        """One step on the hardware: host grant, streams, schedule
        (``item`` is appended to every shard's schedule).

        Returns the step's ``(start_ns, span_ns)``; without a host model
        that is exactly ``(ts_ns, dur_ns)``.
        """
        start_ns = ts_ns
        span_ns = dur_ns
        if self.host is not None:
            grant = self.host.dispatch(f"replica{self.replica}", ts_ns,
                                       cpu_ns, domain=self.numa_domain)
            start_ns = grant.start_ns
            span_ns = dur_ns + (grant.cpu_ns - cpu_ns)
            self.cpu_busy_ns += grant.cpu_ns
        for device in self.devices:
            device.compute_stream.submit(start_ns, span_ns)
            items = self.schedule_items[device.index]
            items.append(item)
            if self.world > 1:
                items.append(("join",
                              f"replica{self.replica}.step{self.steps}",
                              self.world))
        self.steps += 1
        return start_ns, span_ns

    @property
    def busy_ns(self) -> float:
        """Compute occupancy of the replica's first shard (all shards see
        identical submissions, so any one of them is representative)."""
        return self.devices[0].compute_stream.busy_ns

    @property
    def span_ns(self) -> float:
        return self.devices[0].compute_stream.free_at


# ----------------------------------------------------------------------
# Runtime + results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica utilization summary for one serving run."""

    replica: int
    requests: int
    output_tokens: int
    steps: int
    busy_ns: float
    span_ns: float
    #: Dispatch CPU the replica's steps booked on the host pool (0 on a
    #: host-free run), surfaced in the `repro serve` per-replica table.
    cpu_busy_ns: float = 0.0

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.span_ns <= 0:
            return 0.0
        return self.output_tokens / (self.span_ns / 1e9)

    @property
    def utilization(self) -> float:
        if self.span_ns <= 0:
            return 0.0
        return self.busy_ns / self.span_ns

    @property
    def cpu_utilization(self) -> float:
        """Booked dispatch-CPU fraction over the replica's span."""
        if self.span_ns <= 0:
            return 0.0
        return self.cpu_busy_ns / self.span_ns


@dataclass(frozen=True)
class KvReplicaStats:
    """Per-replica KV-pool pressure summary for one serving run."""

    replica: int
    capacity_blocks: int
    block_tokens: int
    preemptions: int
    swap_out_events: int
    swap_in_events: int
    swapped_blocks: int
    swap_ns: float
    prefix_hits: int = 0
    prefix_misses: int = 0
    cow_forks: int = 0
    prefix_evictions: int = 0

    @property
    def pressured(self) -> bool:
        """Whether the pool ever forced an eviction on this replica."""
        return self.preemptions > 0 or self.swap_out_events > 0


PolicyFactory = Callable[["ServingRuntime", EngineSession], Process]


def _exactly(a: float, b: float) -> bool:
    """``a == b`` with no tolerance, written in the ordering comparisons
    that check rule C002 asks for: deliberate where both sides are the
    same subtraction, as an outcome and its span are. NaN fails it."""
    return a <= b <= a


class ServingRuntime:
    """Owns the sim core, admission queue, and engine sessions of one run.

    Two hooks let a subclass change how work reaches the replicas and
    nothing else: :meth:`_feeder` is the process that feeds the queues
    (here the open-loop :func:`arrival_process`) and :meth:`_replica_queue`
    is the queue a new replica claims from (here the shared one).
    """

    def __init__(
        self,
        requests: Sequence[Request],
        model: ModelConfig,
        latency: LatencyModel,
        recorder: RunRecorder | None = None,
        replicas: int = 1,
        tags: dict[int, Hashable] | None = None,
        kv: KvCacheConfig | None = None,
        queue: EventQueue | None = None,
        causality: CausalityLog | None = None,
        host: HostModel | None = None,
    ) -> None:
        if replicas <= 0:
            raise ConfigurationError("replicas must be positive")
        self.model = model
        self.latency = latency
        self.recorder = recorder
        # `queue` injects a tie-break discipline (the determinism certifier
        # runs the same stream FIFO and LIFO); `causality` opts into the
        # happens-before log. Both default to None = the untouched path.
        self.core = SimCore(queue=queue, causality=causality)
        self.queue = AdmissionQueue(requests, tags)
        # One engine replica spans tp.degree shards per pipeline stage.
        self.devices_per_replica = (
            (latency.tp.degree if latency.tp else 1)
            * (latency.pp.stages if latency.pp else 1))
        # kv=None (or policy NONE) builds no manager at all: the default
        # path stays bit-identical to pre-kvcache serving.
        self.kv_config = kv if kv is not None and kv.enabled else None
        # host=None is the infinite-CPU fast path (bit-identical to a
        # build without repro.host); a HostModel makes dispatch CPU a
        # finite resource the replicas contend for.
        self.host = host
        if host is not None:
            host.attach(self.core, recorder=recorder)
        self.sessions: list[EngineSession] = []
        self.outcomes: list[RequestOutcome] = []
        for _ in range(replicas):
            self.add_replica()

    @property
    def replicas(self) -> int:
        return len(self.sessions)

    def add_replica(self) -> EngineSession:
        """Build one more replica: its shard devices, its KV pool (when
        ``kv`` sets a pressure policy) and its queue."""
        replica = len(self.sessions)
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
        host = self.host
        session = EngineSession(
            replica=replica, devices=devices,
            queue=self._replica_queue(), recorder=self.recorder,
            kv=manager, host=host,
            numa_domain=host.domain_for(replica) if host is not None else None)
        self.sessions.append(session)
        return session

    def _replica_queue(self) -> AdmissionQueue:
        return self.queue

    def _feeder(self) -> Process:
        return arrival_process(self.queue)

    def complete(self, request: Request, first_token_ns: float,
                 completed_ns: float, batch_size: int,
                 service_start_ns: float,
                 session: EngineSession) -> RequestOutcome:
        """Record one finished request against the replica that served it.

        ``first_token_ns`` and ``completed_ns`` are booked serving-clock
        times. This is the one place a request's latencies are derived:
        each is its booked time minus the request's arrival, the same
        subtraction the recorder's span reads, so an outcome and its span
        are one number (:meth:`run` checks that they are).
        """
        if self.recorder is not None:
            self.recorder.on_completed(request.request_id, completed_ns)
        outcome = RequestOutcome(
            request=request,
            ttft_ns=first_token_ns - request.arrival_ns,
            completion_ns=completed_ns - request.arrival_ns,
            batch_size=batch_size,
            queue_ns=queue_delay_ns(request, service_start_ns),
            replica=session.replica,
        )
        self.outcomes.append(outcome)
        session.requests += 1
        session.output_tokens += request.output_tokens
        return outcome

    def run(self, policy_factory: PolicyFactory) -> list[RequestOutcome]:
        """Spawn the feeder plus one policy process per replica, drive the
        simulation until every request has been served, and check the run
        conserved its requests and KV blocks and that every outcome is its
        recorded span (no tolerance)."""
        self.core.spawn(self._feeder())
        for session in self.sessions:
            self.core.spawn(policy_factory(self, session))
        self.core.run()
        queues = [self.queue] + [s.queue for s in self.sessions
                                 if s.queue is not self.queue]
        unserved = [e.request.request_id for q in queues
                    for e in q.entries if not e.claimed]
        if unserved:
            raise SimulationError(
                f"requests left unserved: {unserved[:5]}")
        if len(self.outcomes) != len(self.queue.entries):
            raise SimulationError(
                f"served {len(self.outcomes)} outcomes for "
                f"{len(self.queue.entries)} requests")
        served = [o.request.request_id for o in self.outcomes]
        if len(set(served)) != len(served):
            raise SimulationError("a request completed more than once")
        spans = self.recorder.spans if self.recorder is not None else {}
        for outcome in self.outcomes:
            span = spans.get(outcome.request.request_id)
            if span is None:
                continue
            first, done = span.first_token_ns, span.completed_ns
            if (first is None or done is None
                    or not _exactly(outcome.ttft_ns, first - span.arrival_ns)
                    or not _exactly(outcome.completion_ns,
                                    done - span.arrival_ns)):
                raise SimulationError(
                    f"request {outcome.request.request_id}'s outcome "
                    f"disagrees with its recorded span")
        for session in self.sessions:
            if session.kv is None:
                continue
            if session.kv.prefix_caching:
                # Warm (idle) shared-prefix groups are cache, not leaks:
                # return their blocks before the leak accounting below.
                session.kv.flush_prefixes(self.core.now)
            if session.kv.pool.allocated != 0:
                raise SimulationError(
                    f"replica {session.replica} leaked "
                    f"{session.kv.pool.allocated} KV blocks at run end")
            if session.kv.host_blocks != 0:
                raise SimulationError(
                    f"replica {session.replica} left {session.kv.host_blocks}"
                    f" KV blocks stranded in host memory at run end")
        if self.host is not None and self.recorder is not None:
            # Re-register with the end-of-run core occupancy totals so
            # the exported metadata carries what rule N004 conserves.
            self.recorder.on_host(self.host.describe())
        return self.outcomes

    def replica_stats(self) -> list[ReplicaStats]:
        return [ReplicaStats(
            replica=s.replica,
            requests=s.requests,
            output_tokens=s.output_tokens,
            steps=s.steps,
            busy_ns=s.busy_ns,
            span_ns=s.span_ns,
            cpu_busy_ns=s.cpu_busy_ns,
        ) for s in self.sessions]

    def kv_stats(self) -> list[KvReplicaStats]:
        """Per-replica KV pressure summaries (empty when kv is disabled)."""
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

    def result(self) -> ServingRunResult:
        """Everything the finished run produced."""
        from repro.serving.batcher import ServingReport

        return ServingRunResult(
            report=ServingReport(outcomes=list(self.outcomes)),
            outcomes=list(self.outcomes),
            replicas=self.replica_stats(),
            sessions=self.sessions,
            devices_per_replica=self.devices_per_replica,
            kv=self.kv_stats(),
            host=self.host.stats() if self.host is not None else None,
        )


@dataclass
class ServingRunResult:
    """Everything one sim-backed serving run produced."""

    report: ServingReport
    outcomes: list[RequestOutcome]
    replicas: list[ReplicaStats]
    sessions: list[EngineSession]
    devices_per_replica: int
    kv: list[KvReplicaStats] = field(default_factory=list)
    #: Host CPU accounting when the run contended for a finite host
    #: (``host=...``); None on the classic infinite-CPU path.
    host: "HostStats | None" = None

    @property
    def throughput_tokens_per_s(self) -> float:
        return self.report.throughput_tokens_per_s()


def _normalize(requests: Sequence) -> tuple[list[Request], dict[int, Hashable]]:
    """Accept plain Requests or ClassifiedRequests; split off the tags."""
    plain: list[Request] = []
    tags: dict[int, Hashable] = {}
    for item in requests:
        request = getattr(item, "request", None)
        if isinstance(request, Request):
            plain.append(request)
            tags[request.request_id] = item.request_class
        elif isinstance(item, Request):
            plain.append(item)
        else:
            raise ConfigurationError(
                f"not a request: {item!r}")
    return plain, tags


def policy_process(policy: object,
                   kv: KvCacheConfig | None = None) -> Callable[..., Process]:
    """The process that serves ``policy``: one of two.

    Continuous batching runs :func:`continuous_batching_process`, flat or
    routed, with or without a KV pool (the session's ``KvManager`` gates
    it). Every policy with ``claim`` and ``plan`` hooks (static, priority,
    speculative, pipeline, RAG) runs
    :func:`~repro.serving.batched.batched_serving_process`. Lazy imports
    keep the policy modules free to import this one at module level.
    """
    from repro.serving.continuous import (
        ContinuousBatchPolicy,
        continuous_batching_process,
    )

    if isinstance(policy, ContinuousBatchPolicy):
        return continuous_batching_process
    if kv is not None and kv.enabled:
        raise ConfigurationError(
            f"KV pressure policies require continuous batching; "
            f"got {type(policy).__name__}")
    if callable(getattr(policy, "claim", None)) and callable(
            getattr(policy, "plan", None)):
        from repro.serving.batched import batched_serving_process

        return batched_serving_process
    raise ConfigurationError(
        f"no serving process for policy {type(policy).__name__}")


def simulate_serving(
    requests: Sequence,
    model: ModelConfig,
    latency: LatencyModel,
    policy: object | None = None,
    replicas: int = 1,
    recorder: RunRecorder | None = None,
    kv: KvCacheConfig | None = None,
    queue: EventQueue | None = None,
    causality: CausalityLog | None = None,
    host: HostModel | None = None,
) -> ServingRunResult:
    """Serve an arrival stream with any policy on the sim-backed runtime.

    Args:
        requests: Plain :class:`Request` stream, or ``ClassifiedRequest``
            stream for the priority scheduler (tags travel with the queue).
        policy: Any serving policy object; defaults to continuous batching.
        replicas: Engine replicas sharing the one admission queue. Each gets
            its own policy process and TP-shard devices; requests go to
            whichever replica claims them first.
        kv: KV-cache settings. ``None`` or policy ``NONE`` builds no pool
            and reproduces pre-kvcache outcomes bit-identically; a pressure
            policy (``RECOMPUTE``/``OFFLOAD``) requires continuous batching
            and gates admission and decode growth on per-replica pools.
        queue: Optional event-queue override (e.g.
            :class:`~repro.sim.queue.PerturbedEventQueue` for determinism
            certification); None = the production FIFO-tie-break queue.
        causality: Optional happens-before log the run records into
            (``repro check hb`` consumes it); None = no logging.
        host: Optional finite-host CPU model
            (:class:`repro.host.HostModel`). Replicas then book every
            step's dispatch CPU share on the shared core pool and pay
            queueing stalls plus NUMA penalties; ``None`` keeps dispatch
            CPU free and infinite, bit-identically to prior behavior.
            Only the continuous-batching policy family prices per-step
            CPU shares, so other policies require ``host=None``.
    """
    from repro.serving.continuous import ContinuousBatchPolicy

    if policy is None:
        policy = ContinuousBatchPolicy()
    if host is not None and not isinstance(policy, ContinuousBatchPolicy):
        raise ConfigurationError(
            f"host CPU contention requires continuous batching "
            f"(only that policy family prices per-step CPU shares); "
            f"got {type(policy).__name__}")
    process = policy_process(policy, kv)
    plain, tags = _normalize(requests)
    runtime = ServingRuntime(plain, model, latency, recorder=recorder,
                             replicas=replicas, tags=tags or None, kv=kv,
                             queue=queue, causality=causality, host=host)
    runtime.run(lambda rt, session: process(rt, session, policy))
    return runtime.result()
