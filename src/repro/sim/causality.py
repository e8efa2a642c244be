"""Causality log: the happens-before record of one simulation run.

When a :class:`~repro.sim.core.SimCore` is constructed with
``causality=CausalityLog()``, it records every scheduling decision the run
makes — process spawns, event-queue pops (with their tie-break metadata),
suspensions, rendezvous joins/releases, KV block grants and frees, and
stream/link/host-core occupancy intervals — as a flat, ordered stream of
:class:`CausalityEvent` records. The log is the *input* to the
happens-before race detector (:mod:`repro.check.hb`): from it the checker
rebuilds the run's causal order with vector clocks and certifies that
outcomes never hinged on an event-queue tie.

Logging is strictly opt-in and observational: with ``causality=None``
(the default everywhere) the core takes its unmodified fast path and the
run is bit-identical to one on a core that predates this module — the
parity tests in ``tests/sim/test_causality.py`` lock that.

Event vocabulary (``CausalityEvent.kind``):

========== ==================================================================
``spawn``   process ``pid`` scheduled to start at ``time_ns`` (``src`` is the
            spawning pid when a running process spawned it, else -1)
``resume``  the event queue popped ``pid`` at ``time_ns``; ``tie`` carries
            the queue's monotone tie-break sequence number
``suspend`` ``pid`` yielded a request (``key`` = verb) resuming no earlier
            than ``time_ns``
``exit``    ``pid`` ran to completion (StopIteration)
``join``    ``pid`` joined rendezvous ``key`` (``parties``) ready at
            ``time_ns``
``release`` rendezvous ``key`` completed; all parties release at ``time_ns``
``wake``    waiter ``pid`` of rendezvous ``key`` was rescheduled for
            ``time_ns`` (``src`` = the pid whose join completed the
            rendezvous)
``acquire`` ``pid`` requested ``blocks`` blocks on resource ``key`` for
            ``owner`` and waits for the grant (the simulator's resources
            grant synchronously and never write it; rule H003 reads it
            from logs written elsewhere)
``grant``   resource ``key`` granted ``blocks`` to ``owner`` (process
            ``pid``) effective ``time_ns``
``free``    ``owner`` released ``blocks`` blocks on resource ``key`` at
            ``time_ns``
``occupy``  resource ``key`` (a stream, the link or a host core) was
            occupied over ``[time_ns, end_ns)`` by work issued from ``pid``
``resource`` declaration: resource ``key`` exists with ``blocks`` capacity
========== ==================================================================
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Hashable

from repro.errors import AnalysisError

#: Schema tag written into every exported causality sidecar.
CAUSALITY_SCHEMA = "repro.causality/v1"

#: Every kind a :class:`CausalityEvent` may carry (see module docstring).
EVENT_KINDS = frozenset({
    "spawn", "resume", "suspend", "exit", "join", "release", "wake",
    "acquire", "grant", "free", "occupy", "resource",
})


@dataclass(frozen=True, slots=True)
class CausalityEvent:
    """One entry in a run's causality log.

    Attributes:
        seq: Global log position (strictly increasing within one run).
        kind: Event vocabulary entry (see module docstring).
        time_ns: The simulated instant the event is effective at.
        pid: The process the event belongs to (-1 for core-level events).
        src: The pid that *caused* the event when it differs from ``pid``
            (the releasing joiner for a ``wake``, the granting releaser for
            a post-release ``grant``, the spawner for a runtime ``spawn``);
            -1 when the event is self-caused.
        key: Rendezvous key, resource name, or stream label.
        owner: Resource owner for ``acquire``/``grant``/``free``.
        blocks: Block count (or resource capacity for ``resource``).
        parties: Rendezvous party count for ``join``/``release``.
        tie: Event-queue tie-break sequence for ``resume`` pops (None when
            the queue exposed no tie metadata — itself an H002 hazard).
        end_ns: Interval end for ``occupy`` events (None otherwise).
    """

    seq: int
    kind: str
    time_ns: float
    pid: int = -1
    src: int = -1
    key: str = ""
    owner: str = ""
    blocks: int = 0
    parties: int = 0
    tie: int | None = None
    end_ns: float | None = None


def _key_str(key: Hashable) -> str:
    """Stable string form of a rendezvous key or owner id."""
    return key if isinstance(key, str) else repr(key)


class CausalityLog:
    """Collects :class:`CausalityEvent` records for one simulation run.

    One log belongs to one :class:`~repro.sim.core.SimCore`; process ids
    are assigned densely in first-appearance order, which is spawn order
    for every process the core runs — so two bit-identical runs produce
    logs with identical pid assignments.
    """

    def __init__(self) -> None:
        self.events: list[CausalityEvent] = []
        #: The pid of the process the core is currently stepping; resources
        #: read this to attribute synchronous accesses (stream submits, KV
        #: try-acquires) performed between yields.
        self.current_pid: int = -1
        self._seq = 0
        self._pids: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- pid bookkeeping -------------------------------------------------
    def pid_of(self, process: Any) -> int:
        """The stable pid for ``process``, assigned on first sight."""
        key = id(process)
        pid = self._pids.get(key)
        if pid is None:
            pid = len(self._pids)
            self._pids[key] = pid
        return pid

    # -- low-level emit --------------------------------------------------
    def emit(self, kind: str, time_ns: float, pid: int = -1, *,
             src: int = -1, key: str = "", owner: str = "", blocks: int = 0,
             parties: int = 0, tie: int | None = None,
             end_ns: float | None = None) -> CausalityEvent:
        event = CausalityEvent(
            seq=self._seq, kind=kind, time_ns=time_ns, pid=pid, src=src,
            key=key, owner=owner, blocks=blocks, parties=parties, tie=tie,
            end_ns=end_ns)
        self._seq += 1
        self.events.append(event)
        return event

    # -- scheduling events (emitted by SimCore) --------------------------
    def spawn(self, process: Any, at_ns: float) -> None:
        self.emit("spawn", at_ns, self.pid_of(process), src=self.current_pid)

    def resume(self, process: Any, time_ns: float, tie: int | None) -> None:
        self.emit("resume", time_ns, self.pid_of(process), tie=tie)

    def suspend(self, process: Any, time_ns: float, verb: str) -> None:
        self.emit("suspend", time_ns, self.pid_of(process), key=verb)

    def exit(self, process: Any, time_ns: float) -> None:
        self.emit("exit", time_ns, self.pid_of(process))

    def join(self, process: Any, key: Hashable, parties: int,
             ready_ns: float) -> None:
        self.emit("join", ready_ns, self.pid_of(process),
                  key=_key_str(key), parties=parties)

    def release(self, process: Any, key: Hashable, parties: int,
                release_ns: float) -> None:
        self.emit("release", release_ns, self.pid_of(process),
                  key=_key_str(key), parties=parties)

    def wake(self, waiter: Any, key: Hashable, release_ns: float) -> None:
        self.emit("wake", release_ns, self.pid_of(waiter),
                  src=self.current_pid, key=_key_str(key))

    # -- resource events (KvCacheResource, CpuPool, streams, the link) ---
    def resource(self, name: str, capacity_blocks: int) -> None:
        self.emit("resource", 0.0, key=name, blocks=capacity_blocks)

    def grant(self, pid: int, name: str, owner: Hashable, blocks: int,
              grant_ns: float) -> None:
        self.emit("grant", grant_ns, pid, src=self.current_pid, key=name,
                  owner=_key_str(owner), blocks=blocks)

    def free(self, pid: int, name: str, owner: Hashable, blocks: int,
             ready_ns: float) -> None:
        self.emit("free", ready_ns, pid, key=name,
                  owner=_key_str(owner), blocks=blocks)

    def occupy(self, name: str, start_ns: float, end_ns: float) -> None:
        self.emit("occupy", start_ns, self.current_pid, key=name,
                  end_ns=end_ns)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": CAUSALITY_SCHEMA,
            "processes": len(self._pids),
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CausalityLog":
        schema = payload.get("schema")
        if schema != CAUSALITY_SCHEMA:
            raise AnalysisError(
                f"not a causality log: schema {schema!r} "
                f"(expected {CAUSALITY_SCHEMA!r})")
        log = cls()
        pids: set[int] = set()
        for raw in payload.get("events", []):
            try:
                event = CausalityEvent(**raw)
            except TypeError as exc:
                raise AnalysisError(f"malformed causality event: {exc}")
            if event.kind not in EVENT_KINDS:
                raise AnalysisError(
                    f"unknown causality event kind: {event.kind!r}")
            log.events.append(event)
            if event.pid >= 0:
                pids.add(event.pid)
        log._seq = (log.events[-1].seq + 1) if log.events else 0
        log._pids = {pid: pid for pid in sorted(pids)}
        return log

    def dump(self, path: str | Path) -> None:
        """Write the log as the JSON causality sidecar."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "CausalityLog":
        """Read a causality sidecar written by :meth:`dump`."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise AnalysisError(f"cannot read causality log {path}: {exc}")
        if not isinstance(payload, dict):
            raise AnalysisError(f"not a causality log: {path}")
        return cls.from_dict(payload)
