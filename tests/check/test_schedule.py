"""Schedule hazard detector: deadlocks the simulator would hang on.

The adversarial schedules are hand-built: ``DeviceSchedule`` is exactly the
abstraction the engine's dispatch processes walk, so each fixture is the
static shape of a real multi-device bug (swapped collective order, a
device skipping a barrier, a stray stream assignment).
"""

from repro.check import (
    CollectiveJoin,
    DeviceSchedule,
    KernelIssue,
    check_schedules,
    schedules_from_lowering,
)
from repro.check.schedule import COMPUTE_STREAM
from repro.engine import TPConfig, shard_lowered


def _rule_ids(findings):
    return {f.rule_id for f in findings}


def _symmetric(world, keys):
    """World identical devices joining ``keys`` in order."""
    return [
        DeviceSchedule(device=d, items=[
            CollectiveJoin(key=key, parties=world) for key in keys])
        for d in range(world)
    ]


# ----------------------------------------------------------------------
# Real engine schedules are hazard-free
# ----------------------------------------------------------------------
def test_engine_tp_schedule_is_clean(gpt2_lowered):
    tp = TPConfig(degree=2)
    schedules = schedules_from_lowering(shard_lowered(gpt2_lowered, tp), tp)
    assert check_schedules(schedules) == []


def test_engine_tp4_schedule_is_clean(gpt2_lowered):
    tp = TPConfig(degree=4)
    schedules = schedules_from_lowering(shard_lowered(gpt2_lowered, tp), tp)
    assert len(schedules) == 4
    assert check_schedules(schedules) == []


def test_derived_schedules_match_engine_shape(gpt2_lowered):
    tp = TPConfig(degree=2)
    sharded = shard_lowered(gpt2_lowered, tp)
    schedules = schedules_from_lowering(sharded, tp)
    kernel_count = sum(len(lo.kernels) for lo in sharded)
    for schedule in schedules:
        # every kernel appears exactly once, plus the iteration-end barrier
        assert len(schedule.items) == kernel_count + 1
        assert schedule.items[-1].key == "iteration-end"


# ----------------------------------------------------------------------
# S001: wait-for cycle (the classic mismatched-collective-order deadlock)
# ----------------------------------------------------------------------
def test_swapped_collective_order_deadlocks_s001():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2), CollectiveJoin("y", 2)])
    b = DeviceSchedule(1, [CollectiveJoin("y", 2), CollectiveJoin("x", 2)])
    findings = check_schedules([a, b])
    assert "S001" in _rule_ids(findings)
    (cycle,) = [f for f in findings if f.rule_id == "S001"]
    assert "x" in cycle.message and "y" in cycle.message


def test_three_device_rotation_deadlocks_s001():
    keys = ["x", "y", "z"]
    schedules = [
        DeviceSchedule(d, [CollectiveJoin(keys[(i + d) % 3], 3)
                           for i in range(3)])
        for d in range(3)
    ]
    assert "S001" in _rule_ids(check_schedules(schedules))


def test_consistent_order_has_no_cycle():
    assert check_schedules(_symmetric(2, ["x", "y", "z"])) == []


# ----------------------------------------------------------------------
# S002 / S003: party-count hazards
# ----------------------------------------------------------------------
def test_disagreeing_party_count_flagged_s002():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2)])
    b = DeviceSchedule(1, [CollectiveJoin("x", 3)])
    assert "S002" in _rule_ids(check_schedules([a, b]))


def test_missing_joiner_flagged_s003():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2), CollectiveJoin("y", 2)])
    b = DeviceSchedule(1, [CollectiveJoin("y", 2)])  # never joins x
    findings = check_schedules([a, b])
    assert "S003" in _rule_ids(findings)


def test_overfull_rendezvous_flagged_s003():
    schedules = _symmetric(3, ["x"])
    for schedule in schedules:
        schedule.items[0] = CollectiveJoin("x", 2)  # 3 join, 2 expected
    assert "S003" in _rule_ids(check_schedules(schedules))


# ----------------------------------------------------------------------
# S004: duplicate join
# ----------------------------------------------------------------------
def test_double_join_flagged_s004():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2), CollectiveJoin("x", 2)])
    b = DeviceSchedule(1, [CollectiveJoin("x", 2)])
    assert "S004" in _rule_ids(check_schedules([a, b]))


# ----------------------------------------------------------------------
# S005: unreachable work behind a hanging collective
# ----------------------------------------------------------------------
def test_work_behind_hanging_collective_flagged_s005():
    a = DeviceSchedule(0, [
        CollectiveJoin("x", 2),
        KernelIssue("gemm_after"),
        CollectiveJoin("iteration-end", 2),
    ])
    b = DeviceSchedule(1, [CollectiveJoin("iteration-end", 2)])
    findings = check_schedules([a, b])
    rule_ids = _rule_ids(findings)
    assert "S003" in rule_ids  # x waits for a party that never comes
    assert "S005" in rule_ids
    (unreachable,) = [f for f in findings if f.rule_id == "S005"]
    assert "2 event(s)" in unreachable.message


def test_deadlock_marks_downstream_unreachable():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2), CollectiveJoin("y", 2),
                           KernelIssue("tail")])
    b = DeviceSchedule(1, [CollectiveJoin("y", 2), CollectiveJoin("x", 2),
                           KernelIssue("tail")])
    rule_ids = _rule_ids(check_schedules([a, b]))
    assert {"S001", "S005"} <= rule_ids


# ----------------------------------------------------------------------
# S006: collective off the compute stream
# ----------------------------------------------------------------------
def test_collective_off_compute_stream_flagged_s006():
    a = DeviceSchedule(0, [CollectiveJoin("x", 2, stream=COMPUTE_STREAM + 1)])
    b = DeviceSchedule(1, [CollectiveJoin("x", 2)])
    assert "S006" in _rule_ids(check_schedules([a, b]))


def test_kernel_issues_alone_are_clean():
    schedules = [DeviceSchedule(d, [KernelIssue(f"k{i}") for i in range(5)])
                 for d in range(2)]
    assert check_schedules(schedules) == []


# ----------------------------------------------------------------------
# S007: chunked prefill interleaving with its own decodes
# ----------------------------------------------------------------------
def _chunk(rid, start, length, total):
    return KernelIssue(f"serving::prefill_chunk[r{rid}:{start}+{length}/{total}]")


def test_ordered_chunks_then_decode_are_clean():
    schedule = DeviceSchedule(0, [
        _chunk(1, 0, 256, 700), _chunk(1, 256, 256, 700),
        _chunk(1, 512, 188, 700),
        KernelIssue("serving::decode[+r1]"),
        KernelIssue("serving::decode"),
    ])
    assert check_schedules([schedule]) == []


def test_out_of_order_chunk_flagged_s007():
    schedule = DeviceSchedule(0, [
        _chunk(1, 0, 256, 700), _chunk(1, 512, 188, 700),  # skips 256
    ])
    findings = check_schedules([schedule])
    assert _rule_ids(findings) == {"S007"}
    (finding,) = findings
    assert "expected 256" in finding.message


def test_premature_decode_flagged_s007():
    schedule = DeviceSchedule(0, [
        _chunk(1, 0, 256, 700),
        KernelIssue("serving::decode[+r1]"),  # 444 prompt tokens missing
    ])
    findings = check_schedules([schedule])
    assert _rule_ids(findings) == {"S007"}
    (finding,) = findings
    assert "256/700" in finding.message


def test_chunk_after_decode_started_flagged_s007():
    schedule = DeviceSchedule(0, [
        _chunk(1, 0, 700, 700),
        KernelIssue("serving::decode[+r1]"),
        _chunk(1, 0, 256, 700),  # prompt work after decoding began
    ])
    findings = check_schedules([schedule])
    assert _rule_ids(findings) == {"S007"}
    assert "after the request started decoding" in findings[0].message


def test_interleaved_requests_progress_independently():
    schedule = DeviceSchedule(0, [
        _chunk(1, 0, 256, 512), _chunk(2, 0, 256, 300),
        _chunk(2, 256, 44, 300), _chunk(1, 256, 256, 512),
        KernelIssue("serving::decode[+r1,+r2]"),
    ])
    assert check_schedules([schedule]) == []


def test_restart_after_a_complete_stream_is_clean():
    # A recompute readmission re-prefills prompt plus generated tokens.
    schedule = DeviceSchedule(0, [
        _chunk(7, 0, 32, 48), _chunk(7, 32, 16, 48),
        _chunk(7, 0, 32, 50), _chunk(7, 32, 18, 50),
        _chunk(7, 0, 50, 50),
    ])
    assert check_schedules([schedule]) == []


def test_restart_before_the_stream_completes_flagged_s007():
    schedule = DeviceSchedule(0, [
        _chunk(7, 0, 32, 48),
        _chunk(7, 0, 32, 50),  # 16 prompt tokens never prefilled
    ])
    findings = check_schedules([schedule])
    assert _rule_ids(findings) == {"S007"}
    assert "expected 32" in findings[0].message


def test_chunked_recompute_serving_run_schedules_are_clean():
    """Recompute victims re-prefill their chunks from offset 0."""
    from repro.check import check_serving_schedules
    from repro.hardware import GH200
    from repro.kvcache import KvCacheConfig, KvPolicy
    from repro.serving import (
        ContinuousBatchPolicy,
        LatencyModel,
        poisson_requests,
        simulate_serving,
    )
    from repro.workloads import GPT2

    requests = poisson_requests(rate_per_s=40, duration_s=0.2,
                                prompt_len=48, output_tokens=32, seed=0)
    run = simulate_serving(
        requests, GPT2, LatencyModel(GH200),
        policy=ContinuousBatchPolicy(max_active=4, chunk_tokens=32),
        kv=KvCacheConfig(policy=KvPolicy.RECOMPUTE, pool_gib=0.0094))
    assert sum(kv.preemptions for kv in run.kv) > 0
    # Some request starts a second chunk stream at offset 0.
    streams = [
        name.split(":")[2].split("+")[0]  # "prefill_chunk[r<id>"
        for session in run.sessions
        for _, name in session.schedule_items[session.devices[0].index]
        if name.startswith("serving::prefill_chunk[") and ":0+" in name]
    assert len(streams) > len(set(streams))
    report = check_serving_schedules(run.sessions)
    assert report.findings == []


def test_chunked_serving_run_schedules_are_clean():
    """A real chunked continuous-batching run passes its own rule."""
    from repro.check import check_serving_schedules
    from repro.hardware import GH200
    from repro.serving import (
        ContinuousBatchPolicy,
        LatencyModel,
        poisson_requests,
        simulate_serving,
    )
    from repro.workloads import GPT2

    requests = poisson_requests(rate_per_s=30, duration_s=0.2,
                                prompt_len=700, output_tokens=4, seed=5)
    run = simulate_serving(
        requests, GPT2, LatencyModel(GH200),
        policy=ContinuousBatchPolicy(max_active=4, chunk_tokens=256))
    report = check_serving_schedules(run.sessions)
    assert report.findings == []


# ----------------------------------------------------------------------
# S008: pipeline handoff ordering
# ----------------------------------------------------------------------
def _handoff(source, dest, microbatch, parties=2):
    return CollectiveJoin(f"pp.act@{source}->{dest}.mb{microbatch}", parties)


def test_pp_schedules_from_partition_are_clean(gpt2_lowered):
    from repro.check import schedules_from_pp
    from repro.engine import PPConfig
    from repro.engine.pp import partition_lowered

    pp = PPConfig(stages=2, microbatches=4)
    schedules = schedules_from_pp(partition_lowered(gpt2_lowered, 2), pp)
    assert len(schedules) == 2
    assert check_schedules(schedules) == []


def test_pp_schedules_compose_with_tp(gpt2_lowered, gpt2_tp2):
    from repro.check import schedules_from_pp
    from repro.engine import PPConfig, shard_lowered
    from repro.engine.pp import partition_lowered

    pp = PPConfig(stages=2, microbatches=2)
    stage_lowerings = partition_lowered(
        shard_lowered(gpt2_lowered, gpt2_tp2), 2)
    schedules = schedules_from_pp(stage_lowerings, pp, tp_degree=2)
    assert len(schedules) == 4
    assert check_schedules(schedules) == []


def test_microbatch_out_of_order_flagged_s008():
    a = DeviceSchedule(0, [_handoff(0, 1, 0), _handoff(0, 1, 1),
                           CollectiveJoin("pp.iteration-end", 2)])
    b = DeviceSchedule(1, [_handoff(0, 1, 1), _handoff(0, 1, 0),  # swapped
                           CollectiveJoin("pp.iteration-end", 2)])
    findings = check_schedules([a, b])
    assert "S008" in _rule_ids(findings)
    s008 = [f for f in findings if f.rule_id == "S008"]
    assert any("microbatch 1" in f.message for f in s008)


def test_send_before_recv_flagged_s008():
    # Middle stage of a 3-stage pipeline sends downstream before receiving.
    middle = DeviceSchedule(1, [_handoff(1, 2, 0), _handoff(0, 1, 0)])
    findings = [f for f in check_schedules([middle])
                if f.rule_id == "S008"]
    assert findings, "send-before-recv must be flagged"
    assert "before sending activations" in findings[0].message
