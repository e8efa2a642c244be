"""Coverage for small public surfaces not exercised elsewhere."""

import pytest

from repro.engine import GpuStream
from repro.errors import AnalysisError


def test_stream_pending_at_counts_backlog():
    stream = GpuStream()
    stream.submit(0.0, 10.0)
    stream.submit(0.0, 10.0)   # starts at 10
    stream.submit(0.0, 10.0)   # starts at 20
    assert stream.pending_at(-1.0) == 3
    assert stream.pending_at(0.0) == 2
    assert stream.pending_at(15.0) == 1
    assert stream.pending_at(100.0) == 0


def test_latency_vs_cpu_scale_empty_rejected():
    from repro.analysis import latency_vs_cpu_scale
    from repro.hardware import GH200
    from repro.workloads import GPT2
    with pytest.raises(AnalysisError):
        latency_vs_cpu_scale(GPT2, GH200, scales=())


def test_top_k_slices(gpt2_profile):
    metrics = gpt2_profile.metrics
    assert len(metrics.top_k(3)) == 3
    assert len(metrics.top_k(10_000)) == len(metrics.top_kernels)


def test_mining_longer_than_segment_yields_nothing():
    from repro.skip import mine_chains
    result = mine_chains([["a", "b"]], 5)
    assert result.unique_candidates == 0
    assert result.total_instances == 0
    assert result.deterministic(1.0) == []


def test_attribution_on_flash_profile(intel_profiler):
    from repro.engine import ExecutionMode
    from repro.skip import attribute_costs
    from repro.workloads import BERT_BASE
    profile = intel_profiler.profile(BERT_BASE, batch_size=1, seq_len=128,
                                     mode=ExecutionMode.FLASH_ATTENTION)
    report = attribute_costs(profile.depgraph)
    sdpa = next(op for op in report.operators
                if op.name == "aten::scaled_dot_product_attention")
    assert sdpa.launches == 12 * 3  # one flash kernel/layer, 3 iterations


def test_coupling_enum_values():
    from repro.hardware import Coupling
    assert {c.value for c in Coupling} == {"LC", "CC", "TC"}


def test_iteration_metrics_queuing_property():
    from repro.skip.metrics import IterationMetrics
    metrics = IterationMetrics(
        index=0, tklqt_ns=100.0, akd_ns=1.0, inference_latency_ns=10.0,
        gpu_idle_ns=1.0, cpu_idle_ns=1.0, cpu_busy_ns=9.0, gpu_busy_ns=9.0,
        kernel_launches=10, min_launch_overhead_ns=5.0)
    assert metrics.queuing_ns == pytest.approx(100.0 - 50.0)


def test_kernel_aggregate_means(gpt2_profile):
    aggregate = gpt2_profile.metrics.top_kernels[0]
    assert aggregate.mean_duration_ns == pytest.approx(
        aggregate.total_duration_ns / aggregate.count)
    assert aggregate.mean_launch_queue_ns == pytest.approx(
        aggregate.total_launch_queue_ns / aggregate.count)


def test_fusion_analysis_plan_roundtrip_lengths(gpt2_profile):
    analyses = gpt2_profile.recommend_fusions(lengths=[4, 8])
    for analysis in analyses:
        plan = analysis.plan()
        if plan is not None:
            assert plan.max_length == analysis.length


def test_profile_result_metadata_flow(gpt2_profile):
    meta = gpt2_profile.trace.metadata
    assert meta["seq_len"] == 512
    assert gpt2_profile.run_result.mode.value == meta["mode"]


def test_launch_record_root_operator_none_safe():
    from repro.skip.depgraph import LaunchRecord
    from repro.trace import KernelEvent, LAUNCH_KERNEL, RuntimeEvent
    record = LaunchRecord(
        call=RuntimeEvent(name=LAUNCH_KERNEL, ts=0, dur=1, correlation_id=1),
        kernel=KernelEvent(name="k", ts=2, dur=1, correlation_id=1),
        operator=None,
    )
    assert record.root_operator is None
    assert record.launch_and_queue_ns == 2.0
