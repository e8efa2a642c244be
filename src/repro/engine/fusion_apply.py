"""Applying a kernel-fusion plan to a lowered kernel stream.

The paper's proximity-score method *recommends* deterministic chains; this
module actually rewrites a lowering's per-iteration kernel stream so each
recommended chain launches once. Its greedy chain matcher,
:func:`select_nonoverlapping`, is the one SKIP's recommender counts fusable
instances with too. Per the paper's assumption (Section V-C), fusion saves
launches only: the fused kernel performs the sum of the member kernels' work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.lowering import KernelTask, LoweredOp
from repro.errors import AnalysisError


@dataclass(frozen=True)
class FusionPlan:
    """An ordered set of kernel-name chains to fuse.

    Chains are applied greedily left-to-right over the kernel stream; longer
    chains are tried first at each position.
    """

    chains: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for chain in self.chains:
            if len(chain) < 2:
                raise AnalysisError(f"fusion chain must have length >= 2: {chain}")

    @property
    def max_length(self) -> int:
        return max((len(c) for c in self.chains), default=0)


def fused_kernel_name(chain_length: int, index: int) -> str:
    """Name for a fused kernel covering ``chain_length`` originals."""
    return f"fused_chain_L{chain_length}_id{index}"


def select_nonoverlapping(segment: Sequence[str],
                          chains: Iterable[tuple[str, ...]]
                          ) -> list[tuple[int, tuple[str, ...]]]:
    """Greedy left-to-right non-overlapping chain instances in one segment.

    At each position the longest matching chain wins; a match skips past
    its last member. Only non-overlapping instances can actually be fused,
    which mirrors the paper's "actual deterministic kernel candidates that
    can be fused". Returns (start index, chain) pairs.
    """
    chain_set = set(chains)
    lengths = sorted({len(c) for c in chain_set}, reverse=True)
    selected: list[tuple[int, tuple[str, ...]]] = []
    i = 0
    n = len(segment)
    while i < n:
        for length in lengths:
            if i + length > n:
                continue
            window = tuple(segment[i:i + length])
            if window in chain_set:
                selected.append((i, window))
                i += length
                break
        else:
            i += 1
    return selected


def apply_fusion_plan(lowered: Sequence[LoweredOp],
                      plan: FusionPlan) -> list[LoweredOp]:
    """Rewrite a lowering so each matched chain launches once.

    Chains are matched by :func:`select_nonoverlapping` over the flat
    kernel stream, so they cross operator boundaries, but never across a
    collective: an all-reduce synchronizes devices and cannot merge into a
    single-device kernel, so each run of kernels between collectives is
    matched on its own. A fused kernel performs the sum of its members'
    work and belongs to the operator of its first member; later members'
    operators keep their dispatch but lose the launches, exactly the
    paper's "fusion saves launches only" accounting.
    """
    flat = [(owner, kernel) for owner, lowered_op in enumerate(lowered)
            for kernel in lowered_op.kernels]
    new_kernels: list[list[KernelTask]] = [[] for _ in lowered]
    collectives = [i for i, (_, kernel) in enumerate(flat)
                   if kernel.is_collective]
    fused_id = 0
    start = 0
    for stop in [*collectives, len(flat)]:
        run = flat[start:stop]
        done = 0
        for at, chain in select_nonoverlapping(
                [kernel.name for _, kernel in run], plan.chains):
            for owner, kernel in run[done:at]:
                new_kernels[owner].append(kernel)
            done = at + len(chain)
            members = [kernel for _, kernel in run[at:done]]
            new_kernels[run[at][0]].append(KernelTask(
                name=fused_kernel_name(len(chain), fused_id),
                flops=sum(k.flops for k in members),
                bytes_read=sum(k.bytes_read for k in members),
                bytes_written=sum(k.bytes_written for k in members),
                members=tuple(members),
            ))
            fused_id += 1
        # The run's unmatched tail, then the collective that ends it.
        for owner, kernel in flat[start + done:stop + 1]:
            new_kernels[owner].append(kernel)
        start = stop + 1
    return [LoweredOp(lowered_op.op, tuple(kernels))
            for lowered_op, kernels in zip(lowered, new_kernels)]
