"""KV-pool accounting verification (rules ``K...``).

The kvcache subsystem logs every pool mutation as a
:class:`repro.kvcache.events.KvCacheEvent`; exported traces carry the log in
their ``kv`` metadata. This pass replays the log against four invariants:

* **K001** — no block leaked: every allocation is matched by a free,
  preempt, or swap-out before the run ends, and nothing stays stranded in
  host memory.
* **K002** — the pool never over-commits: the reconstructed allocation
  counter matches each event's recorded ``allocated`` field and never
  exceeds the registered capacity.
* **K003** — residency precedes decode: a sequence that was swapped out
  (or never allocated) must not take part in a decode step until its
  blocks are back on the device. Each id of a step's ``decode`` event is
  replayed, and a finding names the offending id.
* **K004** — recompute implies prior free: a fresh ``alloc`` for a
  sequence that still holds blocks (or is parked in host memory) means the
  preemption path dropped an eviction.

Shared-prefix (copy-on-write) events — ``prefix_alloc`` / ``prefix_ref`` /
``prefix_deref`` / ``prefix_free``, whose ``seq`` field is the prefix key —
are replayed alongside them: refcount misuse (double free, free while
shared, ref of an unknown group) raises rule **R003** from
:mod:`repro.check.clusterrules`, and a group still resident at run end is
a K001 leak like any other block.

The pass is pure log replay — it needs no simulation state, so it runs on
an exported trace file years after the run.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.check.clusterrules import R003
from repro.check.findings import Finding, Severity, register_rule
from repro.kvcache.events import KvCacheEvent

K001 = register_rule("K001", "kv", "KV blocks leaked at run end")
K002 = register_rule(
    "K002", "kv", "KV pool over-commit or inconsistent accounting")
K003 = register_rule(
    "K003", "kv", "decode of a sequence whose KV blocks are not resident")
K004 = register_rule(
    "K004", "kv", "sequence re-allocated without a prior free or preempt")


def check_kv_events(events: Sequence[KvCacheEvent],
                    capacity_blocks: int | None,
                    where: str = "kv") -> list[Finding]:
    """Replay one replica's KV event log against K001-K004."""
    findings: list[Finding] = []
    held: dict[int, int] = {}
    host: dict[int, int] = {}
    shared: dict[int, list[int]] = {}  # prefix key -> [blocks, refcount]
    running = 0

    def err(rule: str, index: int, event: KvCacheEvent, message: str,
            seq: int | None = None) -> None:
        seq = event.seq if seq is None else seq
        findings.append(Finding(
            rule, Severity.ERROR,
            f"{where} event {index} ({event.kind} seq {seq})", message))

    for index, event in enumerate(events):
        seq = event.seq
        resident = held.get(seq, 0)
        if event.kind == "alloc":
            if resident > 0:
                err(K004, index, event,
                    f"seq {seq} allocated again while still holding "
                    f"{resident} blocks (no free/preempt in between)")
            if seq in host:
                err(K004, index, event,
                    f"seq {seq} allocated fresh blocks while {host[seq]} of "
                    f"its blocks sit in host memory; swap-in was expected")
            held[seq] = resident + event.blocks
            running += event.blocks
        elif event.kind == "grow":
            if resident == 0:
                err(K004, index, event,
                    f"seq {seq} grew without a prior allocation")
            held[seq] = resident + event.blocks
            running += event.blocks
        elif event.kind in ("free", "preempt"):
            if event.blocks != resident:
                err(K002, index, event,
                    f"{event.kind} of {event.blocks} blocks but seq {seq} "
                    f"held {resident}")
            held.pop(seq, None)
            running -= resident
        elif event.kind == "swap_out":
            if resident == 0:
                err(K002, index, event,
                    f"seq {seq} swapped out while holding no blocks")
            elif event.blocks != resident:
                err(K002, index, event,
                    f"swap_out of {event.blocks} blocks but seq {seq} "
                    f"held {resident}")
            held.pop(seq, None)
            running -= resident
            host[seq] = host.get(seq, 0) + event.blocks
        elif event.kind == "swap_in":
            parked = host.pop(seq, None)
            if parked is None:
                err(K002, index, event,
                    f"seq {seq} swapped in but was never swapped out")
            elif event.blocks != parked:
                err(K002, index, event,
                    f"swap_in of {event.blocks} blocks but {parked} were "
                    f"parked in host memory")
            held[seq] = held.get(seq, 0) + event.blocks
            running += event.blocks
        elif event.kind == "prefix_alloc":
            if seq in shared:
                err(R003, index, event,
                    f"shared group {seq} allocated while already resident "
                    f"({shared[seq][0]} blocks, refcount {shared[seq][1]})")
            if event.refs != 1:
                err(K002, index, event,
                    f"fresh shared group {seq} recorded refcount "
                    f"{event.refs}, expected 1")
            shared[seq] = [event.blocks, 1]
            running += event.blocks
        elif event.kind == "prefix_ref":
            group = shared.get(seq)
            if group is None:
                err(R003, index, event,
                    f"reference taken on unknown shared group {seq}")
            else:
                group[1] += 1
                if event.refs != group[1]:
                    err(K002, index, event,
                        f"shared group {seq} recorded refcount "
                        f"{event.refs} but replay reconstructs {group[1]}")
        elif event.kind == "prefix_deref":
            group = shared.get(seq)
            if group is None:
                err(R003, index, event,
                    f"double free: dereference of unknown shared group "
                    f"{seq}")
            elif group[1] <= 0:
                err(R003, index, event,
                    f"double free: shared group {seq} dereferenced at "
                    f"refcount 0")
            else:
                group[1] -= 1
                if event.refs != group[1]:
                    err(K002, index, event,
                        f"shared group {seq} recorded refcount "
                        f"{event.refs} but replay reconstructs {group[1]}")
        elif event.kind == "prefix_free":
            group = shared.pop(seq, None)
            if group is None:
                err(R003, index, event,
                    f"double free: eviction of unknown shared group {seq}")
            else:
                if group[1] > 0:
                    err(R003, index, event,
                        f"shared group {seq} freed while refcount is "
                        f"{group[1]} (free-while-shared)")
                if event.blocks != group[0]:
                    err(K002, index, event,
                        f"prefix_free of {event.blocks} blocks but group "
                        f"{seq} held {group[0]}")
                running -= group[0]
        elif event.kind == "decode":
            for seq in event.seqs:
                if seq in host:
                    err(K003, index, event,
                        f"seq {seq} decoded while {host[seq]} of its blocks "
                        f"are swapped out; swap-in must precede the decode "
                        f"step", seq)
                elif held.get(seq, 0) == 0:
                    err(K003, index, event,
                        f"seq {seq} decoded while holding no KV blocks", seq)
        if running != event.allocated:
            err(K002, index, event,
                f"recorded allocated={event.allocated} but replay "
                f"reconstructs {running}")
        if capacity_blocks is not None and event.allocated > capacity_blocks:
            err(K002, index, event,
                f"allocated={event.allocated} exceeds pool capacity "
                f"{capacity_blocks}")

    leaked = {seq: blocks for seq, blocks in held.items() if blocks > 0}
    if leaked:
        findings.append(Finding(
            K001, Severity.ERROR, f"{where} run end",
            f"{sum(leaked.values())} device blocks leaked by "
            f"{len(leaked)} sequence(s): {sorted(leaked)[:5]}"))
    if host:
        findings.append(Finding(
            K001, Severity.ERROR, f"{where} run end",
            f"{sum(host.values())} blocks stranded in host memory by "
            f"sequence(s): {sorted(host)[:5]}"))
    if shared:
        findings.append(Finding(
            K001, Severity.ERROR, f"{where} run end",
            f"{sum(g[0] for g in shared.values())} blocks held by "
            f"{len(shared)} shared prefix group(s) never freed: "
            f"{sorted(shared)[:5]}"))
    return findings


def check_kv_metadata(kv_meta: Mapping, where: str = "kv") -> list[Finding]:
    """Verify the ``kv`` metadata block of an exported trace.

    The exporter writes ``{"pools": {replica: {capacity_blocks, ...}},
    "events": [...]}``; events are grouped by replica and each replica's
    log is replayed against its registered capacity.
    """
    findings: list[Finding] = []
    pools = kv_meta.get("pools", {})
    events = [KvCacheEvent.from_dict(payload)
              for payload in kv_meta.get("events", [])]
    by_replica: dict[int, list[KvCacheEvent]] = {}
    for event in events:
        by_replica.setdefault(event.replica, []).append(event)
    for replica in sorted(set(by_replica) | {int(r) for r in pools}):
        pool = pools.get(str(replica))
        replica_events = by_replica.get(replica, [])
        if pool is None and replica_events:
            findings.append(Finding(
                K002, Severity.ERROR, f"{where} replica {replica}",
                f"{len(replica_events)} kv events recorded for replica "
                f"{replica} but no pool was registered for it"))
        capacity = pool.get("capacity_blocks") if pool else None
        findings.extend(check_kv_events(
            replica_events, capacity, where=f"{where} replica {replica}"))
    return findings
