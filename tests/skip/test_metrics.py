"""SKIP metrics (Eqs. 1-5)."""

import pytest

from repro.engine import (
    DispatchMode, EngineConfig, ExecutionMode, PPConfig, TPConfig, run,
)
from repro.errors import AnalysisError
from repro.hardware import AMD_A100, GH200, INTEL_H100
from repro.obs import RunRecorder, recording_to_trace
from repro.serving import (
    ContinuousBatchPolicy, LatencyModel, poisson_requests, simulate_serving,
)
from repro.skip import SkipProfiler, compute_metrics
from repro.trace import TraceBuilder, Trace, chrome
from repro.workloads import BERT_BASE, GPT2
from tests.property.test_metrics_properties import assert_bit_identical

FAST = EngineConfig(iterations=1)


def build_synthetic_trace():
    """Two launches with known timings for exact metric checks."""
    builder = TraceBuilder()
    builder.begin_iteration(0.0)
    op = builder.begin_operator("aten::linear", 0.0)
    # launch at t=10, kernel starts t=15 (t_l = 5), runs 20
    builder.launch_kernel(10.0, 2.0, "gemm", 15.0, 20.0)
    # launch at t=20, kernel starts t=40 (t_l = 20: queued), runs 10
    builder.launch_kernel(20.0, 2.0, "bias", 40.0, 10.0)
    builder.end_operator(op, 30.0)
    builder.end_iteration(55.0)
    return builder.finish()


def test_exact_tklqt():
    metrics = compute_metrics(build_synthetic_trace())
    assert metrics.tklqt_ns == pytest.approx(5.0 + 20.0)


def test_exact_akd():
    metrics = compute_metrics(build_synthetic_trace())
    assert metrics.akd_ns == pytest.approx((20.0 + 10.0) / 2)


def test_exact_inference_latency():
    # IL = ts_e(k_n) - ts_b(p_1) = 50 - 0
    metrics = compute_metrics(build_synthetic_trace())
    assert metrics.inference_latency_ns == pytest.approx(50.0)


def test_exact_gpu_idle():
    # Eq. 5: IL - sum(t_k) = 50 - 30
    metrics = compute_metrics(build_synthetic_trace())
    assert metrics.gpu_idle_ns == pytest.approx(20.0)


def test_exact_cpu_idle():
    # IL - cpu busy (operator spans 0..30) = 50 - 30
    metrics = compute_metrics(build_synthetic_trace())
    assert metrics.cpu_idle_ns == pytest.approx(20.0)


def test_queuing_excess_over_floor():
    metrics = compute_metrics(build_synthetic_trace())
    # floor = 2 kernels * min t_l (5) = 10; queuing = 25 - 10
    assert metrics.queuing_ns == pytest.approx(15.0)


def test_top_kernels_ranked_by_count():
    result = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    metrics = compute_metrics(result.trace)
    top = metrics.top_k(5)
    assert len(top) == 5
    counts = [t.count for t in top]
    assert counts == sorted(counts, reverse=True)
    # splitKreduce bias epilogues are among the most frequent BERT kernels.
    assert any("splitKreduce" in t.name for t in top)


def test_metrics_averaged_across_iterations():
    result = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128,
                 config=EngineConfig(iterations=3))
    metrics = compute_metrics(result.trace)
    assert len(metrics.iterations) == 3
    ils = [it.inference_latency_ns for it in metrics.iterations]
    assert metrics.inference_latency_ns == pytest.approx(sum(ils) / 3)
    # Deterministic engine: every iteration identical.
    assert max(ils) - min(ils) < 1e-3 * metrics.inference_latency_ns


def test_kernel_launch_count(gpt2_profile):
    assert gpt2_profile.metrics.kernel_launches == 413


def test_mean_launch_queue(gpt2_profile):
    m = gpt2_profile.metrics
    assert m.mean_launch_queue_ns == pytest.approx(
        m.tklqt_ns / m.kernel_launches)


def test_graph_mode_metrics_have_zero_tklqt():
    result = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                 mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD, config=FAST)
    metrics = compute_metrics(result.trace)
    assert metrics.tklqt_ns == 0.0
    assert metrics.inference_latency_ns > 0
    assert metrics.kernel_launches > 0


def test_trace_without_iterations_raises():
    with pytest.raises(AnalysisError):
        compute_metrics(Trace())


def test_iteration_without_kernels_raises():
    builder = TraceBuilder()
    builder.begin_iteration(0.0)
    op = builder.begin_operator("aten::add", 0.0)
    builder.end_operator(op, 5.0)
    builder.end_iteration(6.0)
    with pytest.raises(AnalysisError):
        compute_metrics(builder.finish())


# ----------------------------------------------------------------------
# The tape-form cut against the per-iteration reference, bit for bit
# ----------------------------------------------------------------------
TOPOLOGIES = {
    "tp1": {},
    "tp2": {"tp": TPConfig(degree=2)},
    "tp2-per-device": {
        "tp": TPConfig(degree=2, dispatch=DispatchMode.THREAD_PER_DEVICE)},
    "pp2": {"pp": PPConfig(stages=2, microbatches=2)},
    "pp2-tp2": {"pp": PPConfig(stages=2, microbatches=2),
                "tp": TPConfig(degree=2)},
}


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("platform", [GH200, AMD_A100, INTEL_H100],
                         ids=lambda p: p.name)
def test_engine_traces_match_the_reference(platform, topology):
    kwargs = TOPOLOGIES[topology]
    plan = SkipProfiler(platform).profile(GPT2, seq_len=64).fusion_plan()
    for mode in ExecutionMode:
        if "pp" in kwargs and mode.uses_cuda_graph:
            continue  # pipeline stages launch kernel by kernel
        fusion_plan = plan if mode is ExecutionMode.PROXIMITY_FUSED else None
        trace = run(GPT2, platform, seq_len=64, mode=mode,
                    config=EngineConfig(iterations=2),
                    fusion_plan=fusion_plan, **kwargs).trace
        assert_bit_identical(trace)
        assert_bit_identical(chrome.loads(chrome.dumps(trace)))


def test_multi_replica_serve_export_matches_the_reference():
    latency = LatencyModel(INTEL_H100, tp=TPConfig(degree=2))
    recorder = RunRecorder()
    stream = poisson_requests(rate_per_s=40, duration_s=0.25, prompt_len=64,
                              output_tokens=4, seed=3)
    result = simulate_serving(stream, GPT2, latency,
                              policy=ContinuousBatchPolicy(max_active=4),
                              replicas=2, recorder=recorder)
    trace = recording_to_trace(recorder, latency, GPT2,
                               devices_per_replica=result.devices_per_replica)
    assert len(trace.iterations) > 10
    assert len({op.tid for op in trace.operators}) == 2
    assert_bit_identical(trace)
    assert_bit_identical(chrome.loads(chrome.dumps(trace)))
