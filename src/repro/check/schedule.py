"""Schedule hazard detector: static deadlock/ordering analysis.

Models the multi-device execution statically: each device's dispatch
process is an ordered list of kernel issues and collective joins
(:class:`DeviceSchedule`), exactly the order
:mod:`repro.engine.processes` walks at run time. Because the simulator's
collectives are rendezvous barriers released only when *every* party has
joined, hazards are decidable without running anything:

* a **wait-for cycle** between collectives (device A joins X before Y,
  device B joins Y before X) hangs both devices;
* a collective whose **declared party count** disagrees across devices, or
  does not match the devices that actually join it, either hangs or
  over-fills the rendezvous;
* any event scheduled **after** a hanging collective is unreachable;
* a collective placed on a **different stream** than the device's compute
  stream breaks the in-order guarantee the engine relies on (the collective
  could start before the kernels queued ahead of it).

:func:`schedules_from_lowering` derives the schedules the engine would run
for a sharded lowering, so the CLI can verify every catalog model's TP
schedule; :func:`schedules_from_serving` lifts a finished serving run's
per-replica issue lists, :func:`schedules_from_trace` reconstructs schedules
from an exported Chrome trace, and tests hand-build adversarial schedules
directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.check.findings import Finding, Severity, register_rule
from repro.engine.lowering import LoweredOp
from repro.engine.tp import TPConfig

if TYPE_CHECKING:
    from repro.engine.pp import PPConfig
    from repro.serving.runtime import EngineSession
    from repro.trace.trace import Trace

#: Kernel-name prefix that marks a cross-device collective in traces
#: (mirrors ``repro.engine.lowering``'s all-reduce kernel naming).
COLLECTIVE_KERNEL_PREFIX = "ncclDevKernel"

S001 = register_rule(
    "S001", "schedule", "collective wait-for cycle (rendezvous deadlock)")
S002 = register_rule(
    "S002", "schedule", "collective party count disagrees across devices")
S003 = register_rule(
    "S003", "schedule", "collective participants do not match its party count")
S004 = register_rule(
    "S004", "schedule", "device joins the same collective twice")
S005 = register_rule(
    "S005", "schedule", "events unreachable behind a hanging collective")
S006 = register_rule(
    "S006", "schedule", "collective scheduled off the device's compute stream")
S007 = register_rule(
    "S007", "schedule",
    "chunked prefill interleaves out of order with its own decodes")
S008 = register_rule(
    "S008", "schedule", "pipeline-stage occupancy hazard (handoff disorder)")

#: Chunk kernels as the serving planner labels them
#: (``PromptChunk.schedule_label``).
_CHUNK_KERNEL = re.compile(
    r"^serving::prefill_chunk\[r(\d+):(\d+)\+(\d+)/(\d+)\]$")
#: Decode steps that carry first-decode markers for newly joined requests
#: (``decode_schedule_label``).
_DECODE_MARKER = re.compile(r"^serving::decode\[([^\]]*)\]$")
#: Inter-stage activation handoffs as :func:`schedules_from_pp` keys them.
_PP_HANDOFF = re.compile(r"^pp\.act@(\d+)->(\d+)\.mb(\d+)$")

#: Stream id of every device's compute stream (mirrors ``SimCore.add_device``).
COMPUTE_STREAM = 7


@dataclass(frozen=True)
class KernelIssue:
    """One kernel submission in a device's static schedule."""

    name: str
    stream: int = COMPUTE_STREAM


@dataclass(frozen=True)
class CollectiveJoin:
    """One rendezvous join in a device's static schedule."""

    key: str
    parties: int
    stream: int = COMPUTE_STREAM


ScheduleItem = KernelIssue | CollectiveJoin


@dataclass
class DeviceSchedule:
    """The ordered work one device's dispatch process performs."""

    device: int
    items: list[ScheduleItem] = field(default_factory=list)

    def collectives(self) -> list[CollectiveJoin]:
        return [item for item in self.items
                if isinstance(item, CollectiveJoin)]


def schedules_from_lowering(lowered: list[LoweredOp],
                            tp: TPConfig) -> list[DeviceSchedule]:
    """The per-device schedules the engine runs for a sharded lowering.

    All devices execute the same op stream (TP devices are symmetric), so
    each device's schedule is the kernel stream with collectives keyed by
    their program position — the same rendezvous keys
    :func:`repro.engine.processes._op_walk` derives for the threads of
    :func:`repro.engine.processes.per_device_launch_processes` — plus the
    end-of-iteration barrier.
    """
    world = max(1, tp.degree)
    schedules = []
    for device in range(world):
        items: list[ScheduleItem] = []
        for op_index, lowered_op in enumerate(lowered):
            for kernel_index, kernel in enumerate(lowered_op.kernels):
                if kernel.is_collective and world > 1:
                    items.append(CollectiveJoin(
                        key=f"allreduce@{op_index}.{kernel_index}",
                        parties=world))
                else:
                    items.append(KernelIssue(kernel.name))
        if world > 1:
            items.append(CollectiveJoin(key="iteration-end", parties=world))
        schedules.append(DeviceSchedule(device=device, items=items))
    return schedules


def schedules_from_serving(
        sessions: Iterable[EngineSession]) -> list[DeviceSchedule]:
    """The per-device schedules a finished serving run actually issued.

    :class:`~repro.serving.runtime.EngineSession` appends plain
    ``("kernel", name)`` / ``("join", key, parties)`` tuples as its policy
    process executes (the serving layer stays import-free of the checker);
    this lifts them into typed schedules so ``check_schedules`` can verify
    the run the same way it verifies engine lowerings.
    """
    schedules: list[DeviceSchedule] = []
    for session in sessions:
        for device in session.devices:
            items: list[ScheduleItem] = []
            for entry in session.schedule_items[device.index]:
                if entry[0] == "kernel":
                    items.append(KernelIssue(name=entry[1]))
                elif entry[0] == "join":
                    items.append(CollectiveJoin(key=entry[1],
                                                parties=entry[2]))
                else:
                    raise ValueError(
                        f"unknown serving schedule item: {entry!r}")
            schedules.append(DeviceSchedule(device=device.index, items=items))
    return schedules


def schedules_from_pp(stage_lowerings: list[list[LoweredOp]],
                      pp: PPConfig,
                      tp_degree: int = 1) -> list[DeviceSchedule]:
    """The per-device schedules a pipeline-parallel engine run performs.

    Mirrors :func:`repro.engine.pp.pp_stage_processes`: stage ``s`` owns
    devices ``[s*tp_degree, (s+1)*tp_degree)``; each microbatch joins the
    upstream handoff (except stage 0), issues the stage's kernel stream,
    and joins the downstream handoff (except the last stage); every device
    joins the iteration-end barrier. Within-stage TP collectives appear as
    plain kernel issues — a stage's one dispatch thread owns all of its
    shards, so the op walk joins no rendezvous for them at run time.
    """
    stages = len(stage_lowerings)
    schedules: list[DeviceSchedule] = []
    for stage in range(stages):
        for local in range(max(1, tp_degree)):
            device = stage * max(1, tp_degree) + local
            items: list[ScheduleItem] = []
            for microbatch in range(pp.microbatches):
                if stage > 0:
                    items.append(CollectiveJoin(
                        key=f"pp.act@{stage - 1}->{stage}.mb{microbatch}",
                        parties=2 * max(1, tp_degree)))
                for lowered_op in stage_lowerings[stage]:
                    for kernel in lowered_op.kernels:
                        items.append(KernelIssue(kernel.name))
                if stage < stages - 1:
                    items.append(CollectiveJoin(
                        key=f"pp.act@{stage}->{stage + 1}.mb{microbatch}",
                        parties=2 * max(1, tp_degree)))
            items.append(CollectiveJoin(key="pp.iteration-end",
                                        parties=stages * max(1, tp_degree)))
            schedules.append(DeviceSchedule(device=device, items=items))
    return schedules


def schedules_from_trace(trace: Trace) -> list[DeviceSchedule]:
    """Reconstruct per-device schedules from an exported Chrome trace.

    Kernels on each device become :class:`KernelIssue` entries in execution
    order. Collective kernels (``ncclDevKernel...``) are grouped into
    rendezvous by simultaneity — collective kernels sharing a name and a
    start instant are one collective — with the party count inferred from
    the group size. Because parties are inferred from the joiners, rule
    S003 cannot fire on trace-derived schedules; the value of this view is
    the ordering, cycle, duplicate-join, and stream checks.
    """
    collective_group: dict[tuple[str, float], str] = {}
    group_parties: dict[str, int] = {}
    collectives = sorted(
        (k for k in trace.kernels
         if k.name.startswith(COLLECTIVE_KERNEL_PREFIX)),
        key=lambda k: (k.ts, k.device, k.event_id))
    for kernel in collectives:
        group = collective_group.get((kernel.name, kernel.ts))
        if group is None:
            group = f"{kernel.name}@{len(group_parties)}"
            collective_group[(kernel.name, kernel.ts)] = group
            group_parties[group] = 0
        group_parties[group] += 1

    devices = sorted({k.device for k in trace.kernels})
    schedules = []
    for device in devices:
        items: list[ScheduleItem] = []
        ordered = sorted((k for k in trace.kernels if k.device == device),
                         key=lambda k: (k.ts, k.event_id))
        for kernel in ordered:
            group = collective_group.get((kernel.name, kernel.ts))
            if group is not None:
                items.append(CollectiveJoin(key=group,
                                            parties=group_parties[group],
                                            stream=kernel.stream))
            else:
                items.append(KernelIssue(kernel.name, stream=kernel.stream))
        schedules.append(DeviceSchedule(device=device, items=items))
    return schedules


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One cycle in a directed graph, as a node path, or None.

    Iterative DFS: serving traces chain one collective per decode step, so
    the graph can be tens of thousands of nodes deep — far past Python's
    recursion limit.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    path: list[str] = []

    for root in sorted(edges):
        if color[root] != WHITE:
            continue
        # Stack of (node, iterator over its successors).
        stack = [(root, iter(sorted(edges.get(root, ()))))]
        color[root] = GRAY
        path.append(root)
        while stack:
            node, successors = stack[-1]
            advanced = False
            for succ in successors:
                state = color.get(succ, WHITE)
                if state == GRAY:
                    return path[path.index(succ):] + [succ]
                if state == WHITE:
                    color[succ] = GRAY
                    path.append(succ)
                    stack.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def _check_chunk_order(schedule: DeviceSchedule) -> list[Finding]:
    """S007: per-request chunk progress must be monotone, decodes after it.

    The planner's invariant: a request's prompt chunks run in offset order
    ``0, b, 2b, ...`` until they cover the prompt, its first decode (the
    ``+r<id>`` marker on a decode step) comes only after the final chunk,
    and no chunk of that request runs after it started decoding. An
    offset-0 chunk of a request not yet decoding whose previous chunks
    covered their total starts a new stream: a recompute readmission
    re-prefills the prompt and the tokens generated so far. Schedules
    without chunk kernels pass vacuously.
    """
    findings: list[Finding] = []
    where = f"device {schedule.device}"
    expected: dict[int, int] = {}     # rid -> next chunk start offset
    totals: dict[int, int] = {}
    decoding: set[int] = set()
    for item in schedule.items:
        if not isinstance(item, KernelIssue):
            continue
        chunk = _CHUNK_KERNEL.match(item.name)
        if chunk is not None:
            rid, start, length, total = map(int, chunk.groups())
            if rid in decoding:
                findings.append(Finding(
                    S007, Severity.ERROR, where,
                    f"request {rid}: prompt chunk [{start}+{length}/{total}] "
                    f"scheduled after the request started decoding"))
                continue
            want = expected.get(rid, 0)
            if start == 0 and rid in totals and want >= totals[rid]:
                want = 0            # the previous stream was complete
                totals[rid] = total
            if start != want or totals.setdefault(rid, total) != total:
                findings.append(Finding(
                    S007, Severity.ERROR, where,
                    f"request {rid}: chunk starts at offset {start}, "
                    f"expected {want} (chunks must cover the prompt in "
                    f"order)"))
            expected[rid] = start + length
            continue
        marker = _DECODE_MARKER.match(item.name)
        if marker is None:
            continue
        for joined in marker.group(1).split(","):
            if not joined.startswith("+r"):
                continue
            rid = int(joined[2:])
            done = expected.get(rid)
            total = totals.get(rid)
            if done is not None and total is not None and done < total:
                findings.append(Finding(
                    S007, Severity.ERROR, where,
                    f"request {rid}: first decode scheduled with only "
                    f"{done}/{total} prompt tokens prefilled"))
            decoding.add(rid)
    return findings


def _check_pp_order(schedule: DeviceSchedule) -> list[Finding]:
    """S008: stage handoffs must drain microbatches in order.

    Per boundary, a device must join handoffs for microbatches
    ``0, 1, 2, ...`` exactly once each and in order (a stage cannot take
    microbatch 1 before 0 — the upstream stage produces them in order); and
    within one microbatch the upstream handoff (recv, boundary ``s-1->s``)
    must precede the downstream one (send, ``s->s+1``) — sending
    activations before receiving inputs is a hazard the rendezvous would
    deadlock on. Schedules without ``pp.act`` joins pass vacuously.
    """
    findings: list[Finding] = []
    where = f"device {schedule.device}"
    next_mb: dict[tuple[int, int], int] = {}     # boundary -> expected mb
    last_source: dict[int, int] = {}             # mb -> last boundary source
    for item in schedule.collectives():
        handoff = _PP_HANDOFF.match(item.key)
        if handoff is None:
            continue
        source, dest, microbatch = map(int, handoff.groups())
        boundary = (source, dest)
        want = next_mb.setdefault(boundary, 0)
        if microbatch != want:
            findings.append(Finding(
                S008, Severity.ERROR, where,
                f"boundary {source}->{dest}: rendezvous {item.key!r} joins "
                f"microbatch {microbatch} but microbatch {want} is next "
                f"(stages drain microbatches in order)"))
        next_mb[boundary] = microbatch + 1
        prev = last_source.get(microbatch)
        if prev is not None and source <= prev:
            findings.append(Finding(
                S008, Severity.ERROR, where,
                f"microbatch {microbatch}: rendezvous {item.key!r} "
                f"({source}->{dest}) joined after boundary {prev} (a stage "
                f"must receive its inputs before sending activations "
                f"downstream)"))
        last_source[microbatch] = source
    return findings


def check_schedules(schedules: list[DeviceSchedule]) -> list[Finding]:
    """Statically detect rendezvous/ordering hazards in device schedules."""
    findings: list[Finding] = []
    world = len(schedules)
    for schedule in schedules:
        findings.extend(_check_chunk_order(schedule))
        findings.extend(_check_pp_order(schedule))

    # Per-collective bookkeeping: declared party counts and joining devices.
    declared: dict[str, set[int]] = {}
    joiners: dict[str, list[int]] = {}
    for schedule in schedules:
        seen: set[str] = set()
        for item in schedule.collectives():
            declared.setdefault(item.key, set()).add(item.parties)
            joiners.setdefault(item.key, []).append(schedule.device)
            if item.key in seen:
                findings.append(Finding(
                    S004, Severity.ERROR, f"device {schedule.device}",
                    f"collective {item.key!r} joined twice by the same "
                    f"dispatch process"))
            seen.add(item.key)
            if item.stream != COMPUTE_STREAM:
                findings.append(Finding(
                    S006, Severity.ERROR, f"device {schedule.device}",
                    f"collective {item.key!r} scheduled on stream "
                    f"{item.stream}, not the compute stream "
                    f"{COMPUTE_STREAM}: in-order semantics with queued "
                    f"kernels are lost"))

    hanging: set[str] = set()
    for key in sorted(declared):
        parties = declared[key]
        if len(parties) > 1:
            findings.append(Finding(
                S002, Severity.ERROR, f"collective {key}",
                f"party count declared inconsistently across devices: "
                f"{sorted(parties)}"))
            hanging.add(key)
            continue
        (count,) = parties
        participants = len(joiners[key])
        if participants != count:
            findings.append(Finding(
                S003, Severity.ERROR, f"collective {key}",
                f"{participants} of {world} devices join but the "
                f"rendezvous waits for {count} parties"))
            if participants < count:
                hanging.add(key)

    # Wait-for graph: on each device, a later collective cannot be joined
    # until every earlier one released. A cycle means two devices block on
    # each other's collectives forever.
    edges: dict[str, set[str]] = {key: set() for key in declared}
    for schedule in schedules:
        order = [item.key for item in schedule.collectives()]
        for earlier, later in zip(order, order[1:]):
            if earlier != later:
                edges[earlier].add(later)
    cycle = _find_cycle(edges)
    if cycle is not None:
        findings.append(Finding(
            S001, Severity.ERROR, f"collective {cycle[0]}",
            "wait-for cycle between collectives: " + " -> ".join(cycle)))
        hanging.update(cycle[:-1])

    # Everything scheduled behind a hanging collective never executes.
    for schedule in schedules:
        for index, item in enumerate(schedule.items):
            if isinstance(item, CollectiveJoin) and item.key in hanging:
                behind = len(schedule.items) - index - 1
                if behind:
                    findings.append(Finding(
                        S005, Severity.ERROR, f"device {schedule.device}",
                        f"{behind} event(s) unreachable behind hanging "
                        f"collective {item.key!r}"))
                break
    return findings
