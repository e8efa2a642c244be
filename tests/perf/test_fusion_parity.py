"""Fusion-plan application against the per-position reference matcher.

``apply_fusion_plan`` splits a lowering's flat kernel stream at its
collectives and matches each run between them with
``select_nonoverlapping``, the greedy matcher SKIP's recommender counts
with. :func:`reference_apply_plan` is the engine's own matcher it replaced,
kept here for exactly this comparison: at each position it tries every
chain, longest first, and refuses any window holding a collective.

The lowerings are the paper's models, sharded at TP 1 and 2 and built at
batch sizes 1 and 8. The plans are each lowering's profile plan and seeded
random plans drawn from its own kernel stream, one chain of which crosses
an all-reduce whenever the lowering has one.
"""

from __future__ import annotations

import random
import pytest

from repro.engine import (
    FusionPlan, KernelTask, LoweredOp, TPConfig, apply_fusion_plan,
    lower_graph, shard_lowered,
)
from repro.engine.fusion_apply import fused_kernel_name
from repro.hardware import INTEL_H100
from repro.skip import SkipProfiler
from repro.workloads import PAPER_MODELS, build_graph

SEQ_LEN = 64
RANDOM_PLANS = 30


def reference_apply_plan(lowered: list[LoweredOp],
                         plan: FusionPlan) -> list[LoweredOp]:
    """The plan applied position by position over the flat kernel stream."""
    flat: list[tuple[int, KernelTask]] = []
    for op_index, lowered_op in enumerate(lowered):
        for kernel in lowered_op.kernels:
            flat.append((op_index, kernel))

    by_length = sorted(plan.chains, key=len, reverse=True)
    names = [k.name for _, k in flat]
    new_kernels: dict[int, list[KernelTask]] = {i: [] for i in range(len(lowered))}
    fused_id = 0
    i = 0
    while i < len(flat):
        matched = None
        for chain in by_length:
            length = len(chain)
            if (i + length <= len(names)
                    and tuple(names[i:i + length]) == chain
                    and not any(k.is_collective for _, k in flat[i:i + length])):
                matched = chain
                break
        if matched is None:
            owner, kernel = flat[i]
            new_kernels[owner].append(kernel)
            i += 1
            continue
        members = flat[i:i + len(matched)]
        owner = members[0][0]
        new_kernels[owner].append(KernelTask(
            name=fused_kernel_name(len(matched), fused_id),
            flops=sum(k.flops for _, k in members),
            bytes_read=sum(k.bytes_read for _, k in members),
            bytes_written=sum(k.bytes_written for _, k in members),
            members=tuple(k for _, k in members),
        ))
        fused_id += 1
        i += len(matched)

    return [LoweredOp(lo.op, tuple(new_kernels[idx]))
            for idx, lo in enumerate(lowered)]


CASES = [pytest.param(model, degree, batch,
                      id=f"{model.name}-tp{degree}-bs{batch}")
         for model in PAPER_MODELS for degree in (1, 2) for batch in (1, 8)]


def _lowering(model, degree: int, batch: int) -> list[LoweredOp]:
    graph = build_graph(model, batch, SEQ_LEN)
    return shard_lowered(lower_graph(graph), TPConfig(degree=degree))


def random_plans(lowered: list[LoweredOp], seed: str) -> list[FusionPlan]:
    """Windows of the lowering's own kernel stream, plus a chain that
    crosses its first all-reduce when it has one."""
    kernels = [k for lo in lowered for k in lo.kernels]
    names = [k.name for k in kernels]
    collectives = [i for i, k in enumerate(kernels) if k.is_collective]
    rng = random.Random(seed)
    plans = []
    for _ in range(RANDOM_PLANS):
        chains = []
        for _ in range(rng.randint(1, 12)):
            length = rng.choice((2, 2, 3, 4, 8, 16))
            start = rng.randrange(len(names) - length + 1)
            chains.append(tuple(names[start:start + length]))
        if collectives:
            at = collectives[0]
            chains.append(tuple(names[at - rng.randint(1, 3):
                                      at + rng.randint(2, 4)]))
        plans.append(FusionPlan(chains=tuple(chains)))
    return plans


@pytest.mark.parametrize("model,degree,batch", CASES)
def test_fused_lowering_matches_the_reference(model, degree, batch):
    lowered = _lowering(model, degree, batch)
    profile_plan = SkipProfiler(INTEL_H100).profile(
        model, batch_size=batch, seq_len=SEQ_LEN,
        tp=TPConfig(degree=degree)).fusion_plan()
    plans = [profile_plan] if profile_plan is not None else []
    plans += random_plans(lowered, seed=f"{model.name}-{degree}-{batch}")
    fused_any = False
    for plan in plans:
        expected = reference_apply_plan(lowered, plan)
        assert apply_fusion_plan(lowered, plan) == expected
        fused_any |= expected != lowered
    assert fused_any
