"""KV-cache event log: the audit trail the K-rules verify.

Every pool mutation (and every decode step's resident set) is logged as a
:class:`KvCacheEvent`. The log rides along in exported trace metadata, so
``repro check trace`` can re-verify pool accounting — no leaked blocks, no
over-commit, no decode of a swapped-out sequence — on a trace file alone,
long after the run that produced it.

A decode step is one ``decode`` event carrying the ids of the sequences
that took part (log v2). Logs written with one ``decode`` event per
sequence (v1) read back as one-id steps, so old traces still replay.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import AnalysisError

#: Event kinds, in the vocabulary the K-rules speak.
KV_EVENT_KINDS = frozenset({
    "alloc",      # first allocation for a sequence (admission prefill)
    "grow",       # decode-step block growth for a resident sequence
    "free",       # sequence completed; all its blocks returned
    "preempt",    # recompute policy evicted the sequence (blocks freed)
    "swap_out",   # offload policy moved the sequence's blocks to the host
    "swap_in",    # offloaded blocks returned to the device
    "decode",     # one decode step; its ``seqs`` took part (no pool change)
    # Shared-prefix (copy-on-write) cache events. For these four kinds the
    # ``seq`` field carries the *prefix key* (the group identity the
    # refcount rules replay), not a request id.
    "prefix_alloc",   # cold miss: shared group inserted, refcount 1
    "prefix_ref",     # hit: one more holder (no pool change)
    "prefix_deref",   # holder released its reference (no pool change)
    "prefix_free",    # idle group evicted/flushed; its blocks returned
})


class _KvCacheEventFields(NamedTuple):
    ts_ns: float
    kind: str
    seq: int
    blocks: int
    allocated: int
    replica: int = 0
    refs: int = 0
    seqs: tuple[int, ...] = ()


class KvCacheEvent(_KvCacheEventFields):
    """One KV-pool event on one replica (an immutable, validated record).

    A named tuple rather than a frozen dataclass: a decode window logs
    one of these per step, and a validated tuple costs less than half of
    a frozen dataclass to build.

    Attributes:
        ts_ns: Serving-clock time of the event.
        kind: One of :data:`KV_EVENT_KINDS`.
        seq: Sequence (request) id the event concerns; -1 on a ``decode``
            event, which concerns every id in ``seqs``.
        blocks: Blocks the event moved (0 for ``decode``).
        allocated: Device-resident blocks on the replica *after* the event —
            the running counter rule K002 checks against capacity.
        replica: Replica whose pool the event touched.
        refs: Shared-group refcount *after* the event (``prefix_*`` kinds
            only; 0 otherwise) — the counter rule R003 replays.
        seqs: ``decode`` only: the sequences that took part in the step,
            in batch order (the residency rule K003 replays each). Empty
            for every other kind.
    """

    __slots__ = ()

    def __new__(cls, ts_ns: float, kind: str, seq: int, blocks: int,
                allocated: int, replica: int = 0, refs: int = 0,
                seqs: tuple[int, ...] = ()) -> KvCacheEvent:
        if kind not in KV_EVENT_KINDS:
            raise AnalysisError(f"unknown kv event kind: {kind!r}")
        if blocks < 0:
            raise AnalysisError(f"kv event has negative blocks: {blocks}")
        if allocated < 0:
            raise AnalysisError(
                f"kv event has negative allocated count: {allocated}")
        if refs < 0:
            raise AnalysisError(f"kv event has negative refcount: {refs}")
        if kind == "decode":
            if not seqs:
                seqs = (seq,)  # a v1 record: one sequence per event
        elif seqs:
            raise AnalysisError(f"kv {kind} event carries seqs: {seqs!r}")
        return tuple.__new__(cls, (ts_ns, kind, seq, blocks, allocated,
                                   replica, refs, seqs))

    @classmethod
    def decode_step(cls, ts_ns: float, seqs: tuple[int, ...], allocated: int,
                    replica: int = 0) -> KvCacheEvent:
        """The ``decode`` event of one step that ``seqs`` took part in.

        Kind, ``seq``, blocks and refs are fixed, so only ``allocated``
        needs the constructor's check. ``seqs`` is stored as given: a
        decode window passes one tuple to all of its steps.
        """
        if allocated < 0:
            raise AnalysisError(
                f"kv event has negative allocated count: {allocated}")
        return tuple.__new__(cls, (ts_ns, "decode", -1, 0, allocated,
                                   replica, 0, seqs))

    def to_dict(self) -> dict:
        payload = {"ts_ns": self.ts_ns, "kind": self.kind, "seq": self.seq,
                   "blocks": self.blocks, "allocated": self.allocated,
                   "replica": self.replica, "refs": self.refs}
        if self.kind == "decode":
            payload["seqs"] = list(self.seqs)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> KvCacheEvent:
        """Read an exported event; a ``decode`` without ``seqs`` is a v1
        per-sequence record and reads as ``seqs=(seq,)``."""
        try:
            seqs = ()
            if "seqs" in payload:
                seqs = payload["seqs"]
                if (not isinstance(seqs, list) or not seqs
                        or any(type(seq) is not int for seq in seqs)):
                    raise AnalysisError(
                        f"kv event seqs must be a non-empty list of ints: "
                        f"{payload!r}")
                if payload["kind"] != "decode":
                    raise AnalysisError(
                        f"kv event seqs on a non-decode event: {payload!r}")
            return cls(ts_ns=float(payload["ts_ns"]),
                       kind=str(payload["kind"]),
                       seq=int(payload["seq"]),
                       blocks=int(payload["blocks"]),
                       allocated=int(payload["allocated"]),
                       replica=int(payload.get("replica", 0)),
                       refs=int(payload.get("refs", 0)),
                       seqs=tuple(seqs))
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(f"malformed kv event: {payload!r}") from exc
