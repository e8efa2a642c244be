"""Graph verifier: clean on real lowerings, loud on mutated ones.

Every known-bad fixture is a minimal mutation of the real GPT-2 TP=2
sharding, so a rule that stops firing here means the verifier regressed,
not that the engine changed shape.
"""

from dataclasses import replace

import pytest

from repro.check import check_lowering, check_sharding
from repro.engine import TPConfig, shard_lowered
from repro.engine.lowering import KernelTask, LoweredOp
from repro.workloads.ops import OpKind


def _rule_ids(findings):
    return {f.rule_id for f in findings}


def _first_index(lowered, predicate):
    for index, lowered_op in enumerate(lowered):
        if predicate(lowered_op):
            return index
    raise AssertionError("no op matched the predicate")


def _sharded_compute_index(sharded):
    return _first_index(
        sharded,
        lambda lo: ".attn." in lo.op.label
        and lo.op.kind is not OpKind.ALL_REDUCE
        and any(k.flops > 0 for k in lo.kernels))


def _allreduce_index(sharded):
    return _first_index(sharded,
                        lambda lo: lo.op.kind is OpKind.ALL_REDUCE)


# ----------------------------------------------------------------------
# Clean artifacts pass clean
# ----------------------------------------------------------------------
def test_real_lowering_is_clean(gpt2_lowered):
    assert check_lowering(gpt2_lowered) == []


def test_real_sharding_is_clean(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    assert check_sharding(gpt2_lowered, gpt2_sharded, gpt2_tp2) == []


def test_degree_one_identity_is_clean(gpt2_lowered):
    tp1 = TPConfig(degree=1)
    sharded = shard_lowered(gpt2_lowered, tp1)
    assert check_sharding(gpt2_lowered, sharded, tp1) == []


@pytest.mark.parametrize("degree", [2, 3, 4, 6])
def test_all_dividing_degrees_are_clean(gpt2_lowered, degree):
    tp = TPConfig(degree=degree)
    sharded = shard_lowered(gpt2_lowered, tp)
    assert check_sharding(gpt2_lowered, sharded, tp) == []


# ----------------------------------------------------------------------
# Conservation violations (G001 / G002)
# ----------------------------------------------------------------------
def test_scaled_flops_flagged_g001(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    index = _sharded_compute_index(gpt2_sharded)
    victim = gpt2_sharded[index]
    kernels = tuple(replace(k, flops=k.flops * 1.5) for k in victim.kernels)
    mutated = list(gpt2_sharded)
    mutated[index] = victim._replace(kernels=kernels)
    findings = check_sharding(gpt2_lowered, mutated, gpt2_tp2)
    assert "G001" in _rule_ids(findings)
    assert any(victim.op.label in f.location for f in findings)


def test_scaled_bytes_flagged_g002(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    index = _sharded_compute_index(gpt2_sharded)
    victim = gpt2_sharded[index]
    kernels = tuple(replace(k, bytes_read=k.bytes_read * 2 + 64)
                    for k in victim.kernels)
    mutated = list(gpt2_sharded)
    mutated[index] = victim._replace(kernels=kernels)
    assert "G002" in _rule_ids(
        check_sharding(gpt2_lowered, mutated, gpt2_tp2))


def test_mutated_replicated_op_also_flagged(gpt2_lowered, gpt2_sharded,
                                            gpt2_tp2):
    index = _first_index(
        gpt2_sharded,
        lambda lo: lo.kernels and "norm" in lo.op.label)
    victim = gpt2_sharded[index]
    kernels = tuple(replace(k, flops=k.flops + 1e6) for k in victim.kernels)
    mutated = list(gpt2_sharded)
    mutated[index] = victim._replace(kernels=kernels)
    assert "G001" in _rule_ids(
        check_sharding(gpt2_lowered, mutated, gpt2_tp2))


# ----------------------------------------------------------------------
# All-reduce placement (G003 / G004)
# ----------------------------------------------------------------------
def test_dropped_allreduce_flagged_g003(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    index = _allreduce_index(gpt2_sharded)
    mutated = gpt2_sharded[:index] + gpt2_sharded[index + 1:]
    findings = check_sharding(gpt2_lowered, mutated, gpt2_tp2)
    assert "G003" in _rule_ids(findings)


def test_duplicated_allreduce_flagged(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    index = _allreduce_index(gpt2_sharded)
    mutated = (gpt2_sharded[:index + 1] + [gpt2_sharded[index]]
               + gpt2_sharded[index + 1:])
    rule_ids = _rule_ids(check_sharding(gpt2_lowered, mutated, gpt2_tp2))
    # The first boundary now has two all-reduces and the second all-reduce
    # follows another all-reduce, not a boundary.
    assert {"G003", "G004"} & rule_ids


def test_misplaced_allreduce_flagged_g004(gpt2_lowered, gpt2_sharded,
                                          gpt2_tp2):
    index = _allreduce_index(gpt2_sharded)
    allreduce = gpt2_sharded[index]
    without = gpt2_sharded[:index] + gpt2_sharded[index + 1:]
    mutated = [without[0], allreduce] + without[1:]
    rule_ids = _rule_ids(check_sharding(gpt2_lowered, mutated, gpt2_tp2))
    assert "G004" in rule_ids
    assert "G003" in rule_ids  # its boundary lost its all-reduce


# ----------------------------------------------------------------------
# Op-stream mutations (G005)
# ----------------------------------------------------------------------
def test_dropped_compute_op_flagged_g005(gpt2_lowered, gpt2_sharded,
                                         gpt2_tp2):
    index = _sharded_compute_index(gpt2_sharded)
    mutated = gpt2_sharded[:index] + gpt2_sharded[index + 1:]
    findings = check_sharding(gpt2_lowered, mutated, gpt2_tp2)
    assert _rule_ids(findings) == {"G005"}


def test_duplicated_kernel_flagged_g005(gpt2_lowered, gpt2_sharded, gpt2_tp2):
    index = _sharded_compute_index(gpt2_sharded)
    victim = gpt2_sharded[index]
    mutated = list(gpt2_sharded)
    mutated[index] = victim._replace(
        kernels=victim.kernels + (victim.kernels[0],))
    assert "G005" in _rule_ids(
        check_sharding(gpt2_lowered, mutated, gpt2_tp2))


# ----------------------------------------------------------------------
# Structural kernel checks (G006 / G007 / G008 / G009)
# ----------------------------------------------------------------------
def test_negative_work_flagged_g006(gpt2_lowered):
    index = _first_index(gpt2_lowered, lambda lo: bool(lo.kernels))
    victim = gpt2_lowered[index]
    mutated = list(gpt2_lowered)
    kernels = (object.__new__(KernelTask),)
    # Op.__post_init__ rejects negative work, so corrupt the kernel without
    # running validation — exactly the artifact a buggy pass could emit.
    object.__setattr__(kernels[0], "__dict__",
                       {**vars(victim.kernels[0]), "flops": -1.0})
    mutated[index] = victim._replace(kernels=kernels + victim.kernels[1:])
    assert "G006" in _rule_ids(check_lowering(mutated))


def test_fused_member_mismatch_flagged_g007(gpt2_lowered):
    member = KernelTask("m", flops=10.0, bytes_read=4.0, bytes_written=4.0)
    fused = KernelTask("fused", flops=999.0, bytes_read=8.0,
                       bytes_written=8.0, members=(member, member))
    index = _first_index(gpt2_lowered, lambda lo: bool(lo.kernels))
    mutated = list(gpt2_lowered)
    mutated[index] = gpt2_lowered[index]._replace(kernels=(fused,))
    assert "G007" in _rule_ids(check_lowering(mutated))


def test_wrong_collective_world_flagged_g008(gpt2_sharded, gpt2_tp2):
    index = _allreduce_index(gpt2_sharded)
    victim = gpt2_sharded[index]
    mutated = list(gpt2_sharded)
    mutated[index] = LoweredOp(op=replace(victim.op, dims=(4,)),
                               kernels=victim.kernels)
    assert "G008" in _rule_ids(check_lowering(mutated, gpt2_tp2))


def test_zero_work_kernel_warns_g009(gpt2_lowered):
    ghost = KernelTask("ghost", flops=0.0, bytes_read=0.0, bytes_written=0.0)
    index = _first_index(gpt2_lowered, lambda lo: bool(lo.kernels))
    mutated = list(gpt2_lowered)
    mutated[index] = gpt2_lowered[index]._replace(
        kernels=gpt2_lowered[index].kernels + (ghost,))
    findings = check_lowering(mutated)
    assert _rule_ids(findings) == {"G009"}
    assert all(f.severity.value == "warning" for f in findings)
