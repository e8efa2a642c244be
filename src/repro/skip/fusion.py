"""Kernel-fusion recommendation and idealized speedup (Eqs. 7-8).

For each candidate chain length L the recommender reports the paper's four
Fig. 7 quantities — unique candidates, total instances, deterministic (PS=1)
fused chains, and eager launch count — and the idealized speedup from pure
launch savings:

    K_fused = K_eager - C_fused * (L - 1)            (Eq. 7)
    Speedup = K_eager / K_fused                      (Eq. 8)

The idealization assumes constant launch overhead per kernel and no other
performance effects — exactly the paper's assumption. The
``PROXIMITY_FUSED`` engine mode exists to check that assumption end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.engine.fusion_apply import FusionPlan, select_nonoverlapping
from repro.errors import AnalysisError
from repro.skip.proximity import (
    ChainStats,
    distinct_segments,
    kernel_segments,
    mine_distinct,
)
from repro.trace.trace import Trace

#: The paper's Fig. 7/8 chain-length ladder.
DEFAULT_CHAIN_LENGTHS: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class FusionAnalysis:
    """Fusion-recommendation statistics for one chain length.

    ``fused_chain_count`` is the paper's ``C_fused`` — the number of distinct
    deterministic chains that survive non-overlapping selection (Eq. 7 counts
    chains, not instances; Fig. 7c's "kernels fused with PS=1" is
    ``C_fused * L``). ``fused_instances`` additionally reports how many
    *instances* of those chains occur per iteration — what an implementation
    (the engine's PROXIMITY_FUSED mode) actually fuses.
    """

    length: int
    unique_candidates: int
    total_instances: int
    deterministic_chains: tuple[ChainStats, ...]
    fused_chain_count: float      # C_fused (Eq. 7): distinct usable chains
    fused_instances: float        # chain instances per iteration (extension)
    kernels_fused: float          # C_fused * L (Fig. 7c)
    k_eager: float                # launches per iteration, eager
    k_fused: float                # launches per iteration after fusion (Eq. 7)

    @property
    def ideal_speedup(self) -> float:
        """Eq. 8, pure launch-count savings."""
        if self.k_fused <= 0:
            raise AnalysisError("K_fused must be positive")
        return self.k_eager / self.k_fused

    @property
    def instance_k_fused(self) -> float:
        """Launches per iteration when every chain instance is fused."""
        return self.k_eager - self.fused_instances * (self.length - 1)

    @property
    def instance_speedup(self) -> float:
        """Idealized speedup when every chain instance is fused (extension)."""
        if self.instance_k_fused <= 0:
            raise AnalysisError("instance K_fused must be positive")
        return self.k_eager / self.instance_k_fused

    def plan(self) -> FusionPlan | None:
        """An engine-executable plan for the recommended chains."""
        selected = tuple(c.chain for c in self.deterministic_chains)
        if not selected:
            return None
        return FusionPlan(chains=selected)


def analyze_trace(trace: Trace,
                  lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS,
                  threshold: float = 1.0) -> list[FusionAnalysis]:
    """Run the full recommendation analysis over a trace.

    Raises:
        AnalysisError: when the trace has no iteration marks.
        TraceError: when a launch call has no matching kernel.
    """
    return analyze_segments(kernel_segments(trace), lengths, threshold)


def analyze_segments(segments: Sequence[Sequence[str]],
                     lengths: Sequence[int] = DEFAULT_CHAIN_LENGTHS,
                     threshold: float = 1.0) -> list[FusionAnalysis]:
    """Recommendation analysis over prepared kernel segments.

    Args:
        segments: Kernel-name sequences (one per iteration).
        lengths: Chain lengths to analyze.
        threshold: Minimum proximity score T for a recommended chain.
    """
    if not segments:
        raise AnalysisError("no segments to analyze")
    # Each distinct segment is mined and selected once, weighted by how
    # often it repeats; all totals are integers, so the ratios are exact.
    distinct = distinct_segments(segments)
    k_eager = sum(len(s) * w for s, w in distinct.items()) / len(segments)
    results: list[FusionAnalysis] = []
    for length in sorted(set(lengths)):
        mining = mine_distinct(distinct, length)
        deterministic = mining.deterministic(threshold)
        chains = [c.chain for c in deterministic]

        instance_total = 0
        distinct_total = 0
        for segment, weight in distinct.items():
            selected = select_nonoverlapping(segment, chains)
            instance_total += weight * len(selected)
            distinct_total += weight * len({chain for _, chain in selected})
        c_fused = distinct_total / len(segments)
        instances = instance_total / len(segments)
        k_fused = k_eager - c_fused * (length - 1)

        results.append(FusionAnalysis(
            length=length,
            unique_candidates=mining.unique_candidates,
            total_instances=mining.total_instances,
            deterministic_chains=tuple(deterministic),
            fused_chain_count=c_fused,
            fused_instances=instances,
            kernels_fused=c_fused * length,
            k_eager=k_eager,
            k_fused=k_fused,
        ))
    return results


def best_speedup(analyses: Sequence[FusionAnalysis]) -> FusionAnalysis:
    """The analysis with the highest idealized speedup."""
    if not analyses:
        raise AnalysisError("no analyses given")
    return max(analyses, key=lambda a: a.ideal_speedup)


def combined_plan(analyses: Sequence[FusionAnalysis],
                  max_chains: int | None = None) -> FusionPlan | None:
    """Merge deterministic chains across lengths into one engine plan.

    Longer chains take precedence during application (the engine matches
    longest-first), so combining lengths is safe.
    """
    chains: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for analysis in sorted(analyses, key=lambda a: -a.length):
        for chain in analysis.deterministic_chains:
            if chain.chain not in seen:
                seen.add(chain.chain)
                chains.append(chain.chain)
            if max_chains is not None and len(chains) >= max_chains:
                break
        if max_chains is not None and len(chains) >= max_chains:
            break
    if not chains:
        return None
    return FusionPlan(chains=tuple(chains))
