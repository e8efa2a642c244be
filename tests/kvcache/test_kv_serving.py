"""KV-aware serving: bit-identity, pressure policies, the coupling lock."""

import pytest

from repro.check import check_kv_events, check_kv_metadata
from repro.engine.modes import ExecutionMode
from repro.errors import ConfigurationError
from repro.hardware import get_platform
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.obs.events import StepKind
from repro.obs.export import recording_to_trace
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.runtime import simulate_serving
from repro.workloads import GPT2
from tests.scenarios import MAX_ACTIVE, pressure_stream, pressured_run

A100 = get_platform("AMD+A100")
GH200 = get_platform("GH200")


def test_policy_none_is_bit_identical_to_no_kv_config():
    requests = pressure_stream()
    latency = LatencyModel(platform=GH200, mode=ExecutionMode.EAGER)
    policy = ContinuousBatchPolicy(max_active=MAX_ACTIVE)
    plain = simulate_serving(requests, GPT2, latency, policy=policy)
    gated = simulate_serving(requests, GPT2, latency, policy=policy,
                             kv=KvCacheConfig(policy=KvPolicy.NONE))
    assert gated.outcomes == plain.outcomes
    assert gated.throughput_tokens_per_s == plain.throughput_tokens_per_s
    assert gated.kv == [] and plain.kv == []
    assert all(session.kv is None for session in gated.sessions)


def test_recompute_preempts_and_still_completes_everything():
    requests, run = pressured_run(GH200, KvPolicy.RECOMPUTE)
    assert len(run.outcomes) == len(requests)
    stats = run.kv[0]
    assert stats.preemptions > 0
    assert stats.swap_out_events == 0
    manager = run.sessions[0].kv
    assert check_kv_events(manager.events, manager.capacity_blocks) == []


def test_recompute_readmission_is_not_a_new_request():
    """A recompute victim resumes: one admission, one first token, and
    only its own output tokens, however often it is preempted."""
    recorder = RunRecorder()
    requests, run = pressured_run(GH200, KvPolicy.RECOMPUTE,
                                  recorder=recorder)
    assert run.kv[0].preemptions > len(requests)
    aggregates = recorder.aggregates
    assert aggregates.requests_admitted == len(requests)
    assert aggregates.ttft_count == len(requests)
    assert aggregates.tokens_generated == sum(r.output_tokens - 1
                                              for r in requests)


def test_offload_swaps_and_still_completes_everything():
    requests, run = pressured_run(GH200, KvPolicy.OFFLOAD)
    assert len(run.outcomes) == len(requests)
    stats = run.kv[0]
    assert stats.preemptions == 0
    assert stats.swap_out_events > 0
    assert stats.swap_in_events > 0
    assert stats.swap_ns > 0
    manager = run.sessions[0].kv
    assert check_kv_events(manager.events, manager.capacity_blocks) == []


def test_request_that_can_never_fit_is_a_configuration_error():
    # 0.011 GiB is 20 blocks; one 512+128-token sequence needs 40.
    requests = pressure_stream()
    latency = LatencyModel(platform=GH200, mode=ExecutionMode.EAGER)
    with pytest.raises(ConfigurationError, match="cannot fit"):
        simulate_serving(requests, GPT2, latency,
                         policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE),
                         kv=KvCacheConfig(policy=KvPolicy.OFFLOAD,
                                          pool_gib=0.011))


def test_offload_on_gh200_outruns_a100_at_identical_settings():
    """The PR's acceptance lock: coupling decides the swap bill.

    Same model, stream, pool, and policy; the only degree of freedom is the
    CPU-GPU link. A100 pays PCIe Gen4 prices per swapped block, GH200 pays
    NVLink-C2C prices, so under pressure GH200 must deliver strictly more
    tokens/s.
    """
    _, a100 = pressured_run(A100, KvPolicy.OFFLOAD)
    _, gh200 = pressured_run(GH200, KvPolicy.OFFLOAD)
    assert a100.kv[0].swap_out_events > 0
    assert gh200.kv[0].swap_out_events > 0
    assert a100.kv[0].swap_ns > gh200.kv[0].swap_ns
    assert gh200.throughput_tokens_per_s > a100.throughput_tokens_per_s


def test_recorder_and_trace_carry_the_kv_audit_trail():
    recorder = RunRecorder()
    requests, run = pressured_run(GH200, KvPolicy.OFFLOAD,
                                  mode=ExecutionMode.EAGER, recorder=recorder)
    assert 0 in recorder.kv_pools
    assert recorder.kv_pools[0]["policy"] == "offload"
    kinds = {step.kind for step in recorder.steps}
    assert StepKind.SWAP_OUT in kinds and StepKind.SWAP_IN in kinds
    assert recorder.counters.as_dict()["kv_swap_out"] > 0

    latency = LatencyModel(platform=GH200, mode=ExecutionMode.EAGER)
    trace = recording_to_trace(recorder, latency, GPT2)
    assert "kv" in trace.metadata
    assert trace.metadata["kv"]["pools"]["0"]["capacity_blocks"] == \
        run.kv[0].capacity_blocks
    assert check_kv_metadata(trace.metadata["kv"]) == []
