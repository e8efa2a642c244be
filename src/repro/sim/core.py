"""SimCore — event-driven process scheduler over named resources.

Processes are Python generators. A process yields *requests* to the core and
is resumed with the simulation time at which the request was granted:

* ``("at", t)`` — suspend until absolute time ``t``;
* ``("join", rendezvous, ready_ns)`` — rendezvous with the other parties of
  a collective; the process resumes once every party has joined, at the
  maximum of all ``ready_ns`` values (the time the collective can start).

Shared resources (a :class:`repro.kvcache.KvCacheResource` granting KV
blocks, a :class:`repro.host.CpuPool` booking core time) are used
synchronously between yields; registering one with the core only attaches
the causality log.

A process that never yields simply runs to completion on its first
scheduling slot — the single-dispatch-thread execution modes are exactly
that degenerate case, which is what lets the refactored engine reproduce the
legacy single-threaded executor's frozen traces bit-for-bit at TP=1.
"""

from __future__ import annotations

import heapq
import inspect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Hashable, Iterable

if TYPE_CHECKING:  # avoids a cycle: repro.kvcache builds on this module.
    from repro.host.pool import CpuPool
    from repro.kvcache.resource import KvCacheResource

from repro.errors import SimulationError
from repro.sim.causality import CausalityLog
from repro.sim.queue import EventQueue
from repro.sim.resources import GpuDevice, LinkResource, StreamResource

Process = Generator[tuple, float, None]


def _probe() -> Generator[tuple, float, None]:
    yield ()


#: Python 3.11+ exposes generator state as a cheap attribute; older
#: interpreters fall back to ``inspect.getgeneratorstate`` (same semantics,
#: one string comparison and a function call slower per event).
_HAS_GI_SUSPENDED = hasattr(_probe(), "gi_suspended")

#: Events processed by every :class:`SimCore` in this interpreter, across
#: engine, serving, and KV simulations. Tests read it before and after a
#: call to check how many events it simulated
#: (``tests/perf/test_no_engine_fallback.py``); nothing inside the
#: simulation depends on it.
EVENTS_TOTAL = 0


@dataclass(slots=True)
class Rendezvous:
    """A single-use synchronization point for ``parties`` processes.

    Collectives (and iteration barriers) release every participant at the
    maximum of the joined ready times — the instant the slowest participant
    is able to start.
    """

    parties: int
    key: Hashable = None
    waiters: list[tuple[Process, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise SimulationError("rendezvous needs at least one party")

    @property
    def complete(self) -> bool:
        return len(self.waiters) >= self.parties

    def join(self, process: Process, ready_ns: float) -> None:
        if self.complete:
            raise SimulationError(
                f"rendezvous {self.key!r} already complete: "
                f"all {self.parties} parties joined before this join")
        self.waiters.append((process, ready_ns))

    @property
    def release_ns(self) -> float:
        if not self.complete:
            raise SimulationError("rendezvous not complete yet")
        return max(ready for _, ready in self.waiters)


class SimCore:
    """The simulation: an event queue plus the resources processes share."""

    def __init__(self, queue: EventQueue | None = None,
                 causality: CausalityLog | None = None) -> None:
        # An injectable queue (a subclass runs on the generic loop) lets
        # the parity suite and the certifier drive both loops.
        self._queue = EventQueue() if queue is None else queue
        # Opt-in happens-before record; None (the default) keeps the core
        # on its fast path with zero behavioral or allocation change.
        self._causality = causality
        self._rendezvous: dict[Hashable, Rendezvous] = {}
        self.devices: list[GpuDevice] = []
        self.link: LinkResource | None = None
        self.now = 0.0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_device(self, streams: int = 1, replica: int = 0) -> GpuDevice:
        index = len(self.devices)
        device = GpuDevice(index=index, streams=[
            StreamResource(stream_id=7 + s, device=index,
                           log=self._causality)
            for s in range(max(1, streams))
        ], replica=replica)
        self.devices.append(device)
        return device

    def set_link(self, link: LinkResource) -> LinkResource:
        if self._causality is not None:
            link.log = self._causality
        self.link = link
        return link

    def add_kv_resource(self, resource: KvCacheResource) -> KvCacheResource:
        """Register a KV block pool: an attached causality log records its
        capacity and every grant and free."""
        resource.bind(self._causality)
        return resource

    def add_host_pool(self, pool: CpuPool) -> CpuPool:
        """Register a host CPU pool: an attached causality log records
        every booking as an ``occupy`` interval on ``host.core<i>``."""
        pool.bind(self._causality)
        return pool

    def streams(self) -> list[StreamResource]:
        """Every device's compute stream, in device order."""
        return [device.compute_stream for device in self.devices]

    # ------------------------------------------------------------------
    # Rendezvous bookkeeping
    # ------------------------------------------------------------------
    def rendezvous(self, key: Hashable, parties: int) -> Rendezvous:
        """The rendezvous for ``key``, created on first request.

        Every participating process derives the same key from its program
        position (iteration, op index, kernel index), so all parties get the
        same object without any central registration step.
        """
        rdv = self._rendezvous.get(key)
        if rdv is None:
            rdv = Rendezvous(parties, key=key)
            self._rendezvous[key] = rdv
        elif rdv.parties != parties:
            raise SimulationError(f"rendezvous {key!r} party-count mismatch")
        return rdv

    # ------------------------------------------------------------------
    # Process scheduling
    # ------------------------------------------------------------------
    def spawn(self, process: Process, at_ns: float = 0.0) -> None:
        """Schedule ``process`` to start at ``at_ns``."""
        if self._causality is not None:
            self._causality.spawn(process, at_ns)
        self._queue.push(at_ns, process)

    def spawn_all(self, processes: Iterable[Process], at_ns: float = 0.0) -> None:
        for process in processes:
            self.spawn(process, at_ns)

    def next_event_ns(self) -> float:
        """Time of the earliest queued event; ``inf`` when none is queued.

        A running process is not in the queue, so this is the earliest
        instant any *other* process can act. A process that would yield
        ``("at", t)`` with ``t`` strictly below it is popped straight back
        at ``t``; a process that reaches it must yield, so same-time ties
        still resolve in the queue's own tie-break order.
        """
        queue = self._queue
        return queue.peek_time() if queue else math.inf

    def run(self) -> None:
        """Drive every process to completion."""
        global EVENTS_TOTAL
        queue = self._queue
        log = self._causality
        processed = 0
        if _HAS_GI_SUSPENDED and type(queue) is EventQueue and log is None:
            # Hot path: drain the heap directly, resume via the generator's
            # own state flag, and inline the overwhelmingly common "at"
            # request. Identical semantics to the generic loop below — the
            # parity suite holds both paths to bit-identical outcomes.
            heap = queue._heap
            heappop = heapq.heappop
            push = queue.push
            handle = self._handle
            while heap:
                time_ns, _, process = heappop(heap)
                # Each process keeps its own monotone clock; global time is
                # the high-water mark. A rendezvous released by a GPU-side
                # ready time can legitimately pop "behind" a CPU clock that
                # ran ahead.
                if time_ns > self.now:
                    self.now = time_ns
                processed += 1
                try:
                    request = (process.send(time_ns) if process.gi_suspended
                               else next(process))
                except StopIteration:
                    continue
                if (type(request) is tuple and len(request) == 2
                        and request[0] == "at"):
                    push(request[1], process)
                else:
                    handle(process, request)
        else:
            # Generic loop: any queue, Python < 3.11, or a causality log,
            # which records each pop (with the queue's tie-break sequence)
            # and attributes resources touched between yields to the pid.
            while queue:
                time_ns, tie, process = queue.pop_entry()
                self.now = max(self.now, time_ns)
                processed += 1
                if log is None:
                    self._step(process, time_ns)
                else:
                    log.resume(process, time_ns, tie)
                    log.current_pid = log.pid_of(process)
                    self._step(process, time_ns)
                    log.current_pid = -1
        self.events_processed += processed
        EVENTS_TOTAL += processed
        incomplete = [key for key, rdv in self._rendezvous.items()
                      if not rdv.complete and rdv.waiters]
        if incomplete:
            raise SimulationError(
                f"deadlock: rendezvous never completed: {incomplete[:3]}")

    def _step(self, process: Process, resume_ns: float) -> None:
        try:
            if _HAS_GI_SUSPENDED:
                # A just-started generator cannot receive a value; its code
                # up to the first yield runs on this first activation.
                request = (process.send(resume_ns) if process.gi_suspended
                           else next(process))
            elif inspect.getgeneratorstate(process) == inspect.GEN_CREATED:
                request = next(process)
            else:
                request = process.send(resume_ns)
        except StopIteration:
            if self._causality is not None:
                self._causality.exit(process, resume_ns)
            return
        self._handle(process, request)

    def _handle(self, process: Process, request: Any) -> None:
        if not isinstance(request, tuple) or not request:
            raise SimulationError(f"malformed process request: {request!r}")
        log = self._causality
        kind = request[0]
        if kind == "at":
            _, time_ns = request
            if log is not None:
                log.suspend(process, time_ns, "at")
            self._queue.push(time_ns, process)
        elif kind == "join":
            _, rdv, ready_ns = request
            if log is not None:
                log.join(process, rdv.key, rdv.parties, ready_ns)
                log.suspend(process, ready_ns, "join")
            rdv.join(process, ready_ns)
            if rdv.complete:
                release = rdv.release_ns
                if log is not None:
                    log.release(process, rdv.key, rdv.parties, release)
                    for waiter, _ in rdv.waiters:
                        log.wake(waiter, rdv.key, release)
                for waiter, _ in rdv.waiters:
                    self._queue.push(release, waiter)
        else:
            raise SimulationError(f"unknown process request kind: {kind!r}")
