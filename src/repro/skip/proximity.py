"""Kernel-chain mining and proximity scores (Section III-C, Eq. 6).

The proximity score of a chain ``C = (k_i, ..., k_{i+L-1})`` is
``PS(C) = f(C) / f(k_i)`` — the likelihood that executing ``k_i`` is followed
by exactly this chain. ``PS(C) = 1`` identifies a deterministic pattern, the
ideal fusion candidate.

Mining operates on *segments*: kernel-name sequences in launch order,
delimited by CPU/GPU synchronization (one segment per profiled iteration
and device for the engine's traces), matching the paper's "sequences
separated by intervening CPU operator dependency". Each device's kernels
form their own sequence: one dispatch thread that launches a TP step's
shards in turn would otherwise interleave the devices' kernels, and no
chain would reach PS=1. :func:`tape_segments` is the one
segment reader; :func:`kernel_segments` reads a trace through its tape form.
An engine run repeats one kernel sequence every iteration, so mining counts
each distinct segment once and weights it by how often it repeats; every
count and ratio stays exact.

:class:`ChainIndex` is the one miner. Ranks stand for windows: it interns
kernel names to ints in sorted order, and gives every window of a
power-of-two length a rank built from the pair of its halves' ranks
(Karp–Miller–Rosenberg doubling), so equal windows share a rank and ranks
order like the windows they stand for. Counting chains counts ints, and
only one window per distinct rank becomes a chain tuple. The fusable,
non-overlapping instances of the mined chains are picked by
:func:`repro.engine.fusion_apply.select_nonoverlapping`, the matcher the
engine fuses with.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import AnalysisError
from repro.trace.tape import (
    G_DEVICE, G_ID, G_NAME, G_TS, L_CALL_TS, L_DEVICE, L_NAME, TraceTape,
)
from repro.trace.trace import Trace


def kernel_segments(trace: Trace) -> list[list[str]]:
    """Kernel-name sequences per iteration, in launch order.

    Raises:
        AnalysisError: when the trace has no iteration marks.
        TraceError: when a launch call has no matching kernel, or two
            kernels share a correlation id.
    """
    return tape_segments(TraceTape.from_trace(trace))


def tape_segments(tape: TraceTape) -> list[list[str]]:
    """Kernel-name sequences per iteration and device of a tape, in
    launch order.

    Launched kernels come in tape order (launch order), then replayed
    kernels by ``(ts, id)``. A launch belongs to the iteration ``[ts,
    ts_end)`` holding its call's ``ts``, since a queued kernel may start
    after its iteration's CPU work ends; a replayed kernel has no launch
    call and belongs to the one holding its own start. Launches and
    replayed kernels are sorted by time once and each iteration is cut
    out of them by bisection. Each iteration yields one segment per
    device of the tape, by device ordinal, empty ones included, so a
    single-device tape yields exactly one segment per iteration.
    """
    if not tape.iterations:
        raise AnalysisError("trace has no iteration marks")
    launches = tape.launches
    by_call_ts = sorted(range(len(launches)),
                        key=lambda i: launches[i][L_CALL_TS])
    call_ts = [launches[i][L_CALL_TS] for i in by_call_ts]
    replayed = sorted(tape.graph_kernels, key=lambda k: (k[G_TS], k[G_ID]))
    replayed_ts = [k[G_TS] for k in replayed]
    devices = sorted({launch[L_DEVICE] for launch in launches}
                     | {kernel[G_DEVICE] for kernel in replayed}) or [0]
    segments: list[list[str]] = []
    for mark in tape.iterations:
        by_device: dict[int, list[str]] = {device: [] for device in devices}
        for i in sorted(by_call_ts[bisect_left(call_ts, mark.ts):
                                   bisect_left(call_ts, mark.ts_end)]):
            by_device[launches[i][L_DEVICE]].append(launches[i][L_NAME])
        for kernel in replayed[bisect_left(replayed_ts, mark.ts):
                               bisect_left(replayed_ts, mark.ts_end)]:
            by_device[kernel[G_DEVICE]].append(kernel[G_NAME])
        segments.extend(by_device.values())
    return segments


def distinct_segments(segments: Sequence[Sequence[str]]
                      ) -> Counter[tuple[str, ...]]:
    """Each distinct segment with its repeat count, in first-seen order."""
    return Counter(map(tuple, segments))


@dataclass(frozen=True)
class ChainStats:
    """Mining statistics for one distinct chain."""

    chain: tuple[str, ...]
    frequency: int
    anchor_frequency: int

    @property
    def proximity_score(self) -> float:
        """Eq. 6: f(C) / f(k_i)."""
        return self.frequency / self.anchor_frequency

    @property
    def length(self) -> int:
        return len(self.chain)


@dataclass
class MiningResult:
    """All distinct chains of one length mined from a set of segments."""

    length: int
    chains: list[ChainStats]
    total_instances: int

    @property
    def unique_candidates(self) -> int:
        return len(self.chains)

    def deterministic(self, threshold: float = 1.0) -> list[ChainStats]:
        """Chains whose proximity score meets the threshold."""
        if not (0 < threshold <= 1.0):
            raise AnalysisError("threshold must be in (0, 1]")
        return [c for c in self.chains if c.proximity_score >= threshold]


def mine_chains(segments: Sequence[Sequence[str]], length: int) -> MiningResult:
    """Mine all kernel chains of ``length`` from the segments.

    Args:
        segments: Kernel-name sequences (one per sync-delimited region).
        length: Chain length L (>= 2).
    """
    return mine_distinct(distinct_segments(segments), length)


def mine_distinct(distinct: Mapping[tuple[str, ...], int],
                  length: int) -> MiningResult:
    """:func:`mine_chains` over distinct segments weighted by repeat count.

    Args:
        distinct: Distinct segment -> how many times it occurs (see
            :func:`distinct_segments`).
        length: Chain length L (>= 2).
    """
    return ChainIndex(distinct).mine(length)


class ChainIndex:
    """Rank arrays over a set of distinct segments, shared by every length.

    Kernel names are interned to ints in sorted order, so the length-1
    rank of a position is its name's id. The rank of a window of length
    ``2p`` is the rank of the pair ``(r_p[i], r_p[i + p])`` among all
    such pairs; a length ``L`` with ``p < L < 2p`` ranks the overlapping
    pair ``(r_p[i], r_p[i + L - p])``. Pairs are ranked in sorted order
    across all segments, so two windows share a rank exactly when they
    are equal, and ranks order like the windows' name tuples. The
    power-of-two rank arrays are built once and kept for every later
    length.

    Raises:
        AnalysisError: when there are no segments.
    """

    def __init__(self, distinct: Mapping[tuple[str, ...], int]) -> None:
        if not distinct:
            raise AnalysisError("no segments to mine")
        self._segments = list(distinct)
        self._weights = list(distinct.values())
        names = sorted({name for segment in self._segments
                        for name in segment})
        ids = {name: k for k, name in enumerate(names)}
        self._powers: dict[int, tuple[list[list[int]], int]] = {
            1: ([list(map(ids.__getitem__, segment))
                 for segment in self._segments], len(names)),
        }
        self._anchor_counts: Counter[str] = Counter()
        for segment, weight in distinct.items():
            for name, count in Counter(segment).items():
                self._anchor_counts[name] += count * weight

    def _power(self, p: int) -> tuple[list[list[int]], int]:
        """Rank arrays and rank count of the windows of length ``p``, a
        power of two."""
        ranked = self._powers.get(p)
        if ranked is None:
            ranked = _rank_pairs(self._power(p // 2)[0], p // 2)
            self._powers[p] = ranked
        return ranked

    def _ranks(self, length: int) -> tuple[list[list[int]], int]:
        p = 1 << (length.bit_length() - 1)
        if p == length:
            return self._power(p)
        return _rank_pairs(self._power(p)[0], length - p)

    def mine(self, length: int) -> MiningResult:
        """All distinct chains of ``length``, by ``(-frequency, chain)``.

        Raises:
            AnalysisError: when ``length`` is below 2.
        """
        if length < 2:
            raise AnalysisError("chain length must be >= 2")
        ranks, count = self._ranks(length)
        frequency = [0] * count
        chains: list[tuple[str, ...]] = [()] * count
        total = 0
        for segment, seg_ranks, weight in zip(self._segments, ranks,
                                              self._weights):
            for rank, n in Counter(seg_ranks).items():
                frequency[rank] += n * weight
            # Every window of one rank is the same chain: slice one.
            for rank, i in dict(zip(seg_ranks, range(len(seg_ranks)))).items():
                chains[rank] = segment[i:i + length]
            total += len(seg_ranks) * weight
        anchors = self._anchor_counts
        # Ranks ascend like chains, and a reversed sort is still stable, so
        # sorting by frequency alone breaks ties by chain.
        order = sorted(range(count), key=frequency.__getitem__, reverse=True)
        return MiningResult(
            length=length,
            chains=[ChainStats(chains[rank], frequency[rank],
                               anchors[chains[rank][0]])
                    for rank in order],
            total_instances=total)


def _rank_pairs(ranks: list[list[int]], offset: int
                ) -> tuple[list[list[int]], int]:
    """Rank each pair ``(r[i], r[i + offset])`` among the distinct pairs
    of all segments, in sorted order."""
    pairs = [list(zip(seg_ranks, seg_ranks[offset:])) for seg_ranks in ranks]
    order = sorted(set().union(*pairs))
    rank_of = {pair: k for k, pair in enumerate(order)}
    return ([list(map(rank_of.__getitem__, seg_pairs)) for seg_pairs in pairs],
            len(order))
