"""Kernel-chain mining and proximity scores (Section III-C, Eq. 6).

The proximity score of a chain ``C = (k_i, ..., k_{i+L-1})`` is
``PS(C) = f(C) / f(k_i)`` — the likelihood that executing ``k_i`` is followed
by exactly this chain. ``PS(C) = 1`` identifies a deterministic pattern, the
ideal fusion candidate.

Mining operates on *segments*: kernel-name sequences in launch order,
delimited by CPU/GPU synchronization (one segment per profiled iteration for
the engine's traces), matching the paper's "sequences separated by
intervening CPU operator dependency". An engine run repeats one kernel
sequence every iteration, so mining counts each distinct segment once and
weights it by how often it repeats; every count and ratio stays exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import AnalysisError
from repro.trace.tape import (
    G_ID, G_NAME, G_TS, L_CALL_ID, L_CALL_TS, L_NAME, TraceTape,
)
from repro.trace.trace import Trace


def kernel_segments(trace: Trace) -> list[list[str]]:
    """Kernel-name sequences per iteration, in launch order."""
    if not trace.iterations:
        raise AnalysisError("trace has no iteration marks")
    segments: list[list[str]] = []
    for mark in trace.iterations:
        kernels = trace.kernels_in_iteration(mark.index)
        # Launch order: correlation ids ascend in launch order for launched
        # kernels; graph-replayed kernels (negative ids) keep time order.
        launched = sorted((k for k in kernels if k.correlation_id >= 0),
                          key=lambda k: k.correlation_id)
        replayed = sorted((k for k in kernels if k.correlation_id < 0),
                          key=lambda k: (k.ts, k.event_id))
        segments.append([k.name for k in [*launched, *replayed]])
    return segments


def tape_segments(tape: TraceTape) -> list[list[str]]:
    """:func:`kernel_segments` of the equivalent full trace, from a tape.

    Launched kernels come in call-id order (the tape's counterpart of the
    correlation id), then replayed kernels by ``(ts, id)``; a launch belongs
    to the iteration holding its call's ``ts``, a replayed kernel to the
    one holding its own, as in ``Trace.kernels_in_iteration``.
    """
    if not tape.iterations:
        raise AnalysisError("trace has no iteration marks")
    launched = sorted(tape.launches, key=lambda r: r[L_CALL_ID])
    replayed = sorted(tape.graph_kernels, key=lambda k: (k[G_TS], k[G_ID]))
    return [
        [r[L_NAME] for r in launched if mark.ts <= r[L_CALL_TS] < mark.ts_end]
        + [k[G_NAME] for k in replayed if mark.ts <= k[G_TS] < mark.ts_end]
        for mark in tape.iterations
    ]


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
    if length < 2:
        raise AnalysisError("chain length must be >= 2")
    if not distinct:
        raise AnalysisError("no segments to mine")

    window_counts: Counter[tuple[str, ...]] = Counter()
    anchor_counts: Counter[str] = Counter()
    for segment, weight in distinct.items():
        for name, count in Counter(segment).items():
            anchor_counts[name] += count * weight
        windows = Counter(segment[i:i + length]
                          for i in range(len(segment) - length + 1))
        for chain, count in windows.items():
            window_counts[chain] += count * weight

    chains = [
        ChainStats(chain=chain, frequency=freq,
                   anchor_frequency=anchor_counts[chain[0]])
        for chain, freq in window_counts.items()
    ]
    chains.sort(key=lambda c: (-c.frequency, c.chain))
    return MiningResult(length=length, chains=chains,
                        total_instances=sum(window_counts.values()))


def select_nonoverlapping(segment: Sequence[str],
                          chains: Sequence[ChainStats] | Sequence[tuple[str, ...]]
                          ) -> list[tuple[int, tuple[str, ...]]]:
    """Greedy left-to-right non-overlapping chain instances in one segment.

    Only non-overlapping instances can actually be fused; this mirrors the
    paper's "actual deterministic kernel candidates that can be fused".
    Returns (start index, chain) pairs.
    """
    chain_set: set[tuple[str, ...]] = set()
    for chain in chains:
        chain_set.add(chain.chain if isinstance(chain, ChainStats) else tuple(chain))
    if not chain_set:
        return []
    lengths = sorted({len(c) for c in chain_set}, reverse=True)

    selected: list[tuple[int, tuple[str, ...]]] = []
    i = 0
    n = len(segment)
    while i < n:
        matched = None
        for length in lengths:
            if i + length <= n:
                window = tuple(segment[i:i + length])
                if window in chain_set:
                    matched = window
                    break
        if matched is None:
            i += 1
        else:
            selected.append((i, matched))
            i += len(matched)
    return selected
