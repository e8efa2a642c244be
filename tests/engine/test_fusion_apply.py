"""Fusion-plan application to lowered kernel streams."""

import pytest

from repro.engine import FusionPlan, LoweredOp, apply_fusion_plan
from repro.engine.lowering import KernelTask
from repro.errors import AnalysisError
from repro.workloads.ops import Op, OpKind

#: A kernel name in :func:`lowering` that stands for an all-reduce.
COLLECTIVE = "allreduce"


def lowering(*ops: str) -> list[LoweredOp]:
    """One op per argument, launching its space-separated kernel names."""
    return [
        LoweredOp(Op(OpKind.ADD, f"op{index}", 0.0, 0.0, 0.0, dims=()),
                  tuple(KernelTask(name, flops=1.0, bytes_read=2.0,
                                   bytes_written=3.0,
                                   comm_bytes=8.0 if name == COLLECTIVE else 0.0)
                        for name in names.split()))
        for index, names in enumerate(ops)
    ]


def kernels(lowered: list[LoweredOp]) -> list[KernelTask]:
    return [kernel for lowered_op in lowered for kernel in lowered_op.kernels]


def names(lowered: list[LoweredOp]) -> list[str]:
    return [kernel.name for kernel in kernels(lowered)]


def test_simple_chain_replacement():
    out = apply_fusion_plan(lowering("a b c d"), FusionPlan(chains=(("b", "c"),)))
    assert names(out) == ["a", "fused_chain_L2_id0", "d"]


def test_fused_kernel_sums_work():
    out = kernels(apply_fusion_plan(lowering("a b"),
                                    FusionPlan(chains=(("a", "b"),))))
    assert len(out) == 1
    assert out[0].flops == 2.0
    assert out[0].bytes_read == 4.0
    assert out[0].bytes_written == 6.0
    assert [m.name for m in out[0].members] == ["a", "b"]


def test_repeated_instances_all_fused():
    out = apply_fusion_plan(lowering("a b a b a b"),
                            FusionPlan(chains=(("a", "b"),)))
    assert names(out) == [f"fused_chain_L2_id{i}" for i in range(3)]


def test_longest_chain_wins():
    plan = FusionPlan(chains=(("a", "b"), ("a", "b", "c")))
    out = apply_fusion_plan(lowering("a b c"), plan)
    assert names(out) == ["fused_chain_L3_id0"]


def test_overlapping_instances_do_not_double_fuse():
    out = apply_fusion_plan(lowering("a a a"), FusionPlan(chains=(("a", "a"),)))
    # greedy: (a,a) fused, trailing 'a' left alone
    assert names(out) == ["fused_chain_L2_id0", "a"]


def test_no_match_passes_through():
    stream = lowering("x y")
    out = apply_fusion_plan(stream, FusionPlan(chains=(("a", "b"),)))
    assert out == stream


def test_fused_kernel_belongs_to_the_op_of_its_first_member():
    out = apply_fusion_plan(lowering("x a", "b", "c d"),
                            FusionPlan(chains=(("a", "b", "c"),)))
    assert [lo.op.label for lo in out] == ["op0", "op1", "op2"]
    assert [[k.name for k in lo.kernels] for lo in out] == [
        ["x", "fused_chain_L3_id0"], [], ["d"]]


def test_chains_never_fuse_across_a_collective():
    plan = FusionPlan(chains=(("a", "b", COLLECTIVE, "c"), ("b", COLLECTIVE),
                              ("a", "b"), ("c", "d")))
    out = apply_fusion_plan(lowering("a b", COLLECTIVE, "c d"), plan)
    assert [[k.name for k in lo.kernels] for lo in out] == [
        ["fused_chain_L2_id0"], [COLLECTIVE], ["fused_chain_L2_id1"]]


def test_chain_length_one_rejected():
    with pytest.raises(AnalysisError):
        FusionPlan(chains=(("a",),))


def test_plan_max_length():
    plan = FusionPlan(chains=(("a", "b"), ("a", "b", "c", "d")))
    assert plan.max_length == 4
    assert FusionPlan(chains=()).max_length == 0
