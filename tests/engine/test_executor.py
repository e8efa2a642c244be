"""Discrete-event executor: trace structure and timing invariants."""

import pytest

from repro.engine import EngineConfig, ExecutionMode, FusionPlan, run
from repro.errors import ConfigurationError
from repro.hardware import GH200, INTEL_H100
from repro.skip import compute_metrics, kernel_segments
from repro.trace.events import DEVICE_SYNCHRONIZE, GRAPH_LAUNCH
from repro.workloads import BERT_BASE, GPT2, build_graph

FAST = EngineConfig(iterations=1)
TWO_ITER = EngineConfig(iterations=2)


@pytest.fixture(scope="module")
def bert_result():
    return run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128, config=TWO_ITER)


def test_trace_validates(bert_result):
    bert_result.trace.validate()


def test_one_launch_call_per_kernel(bert_result):
    trace = bert_result.trace
    assert len(trace.launches) == len(trace.kernels)


def test_kernel_count_matches_lowering(bert_result):
    per_iter = bert_result.kernels_per_iteration
    assert len(bert_result.trace.kernels) == per_iter * TWO_ITER.iterations


def test_kernels_start_after_launch_latency(bert_result):
    trace = bert_result.trace
    kernels = trace.kernels_by_correlation()
    for call in trace.launches:
        kernel = kernels[call.correlation_id]
        delta = kernel.ts - call.ts
        assert delta >= INTEL_H100.launch_latency_ns - 1e-6


def test_gpu_stream_is_in_order(bert_result):
    kernels = sorted(bert_result.trace.kernels, key=lambda k: k.correlation_id)
    for prev, cur in zip(kernels, kernels[1:]):
        assert cur.ts >= prev.ts_end - 1e-6


def test_iterations_do_not_overlap(bert_result):
    marks = bert_result.trace.iterations
    assert len(marks) == 2
    assert marks[1].ts >= marks[0].ts_end


def test_sync_at_end_of_each_iteration(bert_result):
    syncs = [r for r in bert_result.trace.runtime_calls
             if r.name == DEVICE_SYNCHRONIZE]
    assert len(syncs) == 2


def test_iterations_are_time_shifted_copies(bert_result):
    """The engine is deterministic; iteration k is iteration 0 shifted."""
    trace = bert_result.trace
    first, second = kernel_segments(trace)
    assert first == second
    it0, it1 = compute_metrics(trace).iterations
    assert it0.gpu_busy_ns == pytest.approx(it1.gpu_busy_ns)
    assert it0.tklqt_ns == pytest.approx(it1.tklqt_ns)


def test_run_accepts_prebuilt_graph():
    graph = build_graph(BERT_BASE, 2, 64)
    result = run(graph, INTEL_H100, config=FAST)
    assert result.graph is graph
    assert result.trace.metadata["batch_size"] == 2


def test_flash_mode_reduces_kernel_count():
    eager = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    flash = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128,
                mode=ExecutionMode.FLASH_ATTENTION, config=FAST)
    assert flash.kernels_per_iteration < eager.kernels_per_iteration
    assert any("flash_fwd" in k.name for k in flash.trace.kernels)


def test_compile_default_fuses_elementwise():
    eager = run(GPT2, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    compiled = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                   mode=ExecutionMode.COMPILE_DEFAULT, config=FAST)
    assert compiled.kernels_per_iteration < eager.kernels_per_iteration
    assert any("triton_fused" in k.name for k in compiled.trace.kernels)


def test_graph_mode_single_launch():
    result = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                 mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD, config=FAST)
    graph_launches = [r for r in result.trace.runtime_calls
                      if r.name == GRAPH_LAUNCH]
    assert len(graph_launches) == 1
    assert all(k.correlation_id < 0 for k in result.trace.kernels)
    assert not result.trace.launches or all(
        r.name == GRAPH_LAUNCH for r in result.trace.launches)


def test_proximity_mode_requires_plan():
    with pytest.raises(ConfigurationError):
        run(GPT2, INTEL_H100, mode=ExecutionMode.PROXIMITY_FUSED, config=FAST)


def test_plan_on_other_modes_rejected():
    plan = FusionPlan(chains=(("a", "b"),))
    with pytest.raises(ConfigurationError):
        run(GPT2, INTEL_H100, fusion_plan=plan, config=FAST)


def test_proximity_mode_reduces_launches():
    eager = run(GPT2, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    names = [k.name for k in eager.flat_kernels()]
    plan = FusionPlan(chains=(tuple(names[:8]),))
    fused = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                mode=ExecutionMode.PROXIMITY_FUSED, fusion_plan=plan,
                config=FAST)
    assert fused.kernels_per_iteration == eager.kernels_per_iteration - 7
    assert any(k.name.startswith("fused_chain_L8") for k in fused.trace.kernels)


def test_proximity_mode_preserves_total_work():
    eager = run(GPT2, INTEL_H100, batch_size=1, seq_len=128, config=FAST)
    names = [k.name for k in eager.flat_kernels()]
    plan = FusionPlan(chains=(tuple(names[:8]),))
    fused = run(GPT2, INTEL_H100, batch_size=1, seq_len=128,
                mode=ExecutionMode.PROXIMITY_FUSED, fusion_plan=plan,
                config=FAST)
    assert sum(k.flops for k in fused.flat_kernels()) == pytest.approx(
        sum(k.flops for k in eager.flat_kernels()))


def test_launch_queue_depth_throttles_cpu():
    deep = run(BERT_BASE, GH200, batch_size=32, seq_len=512, config=FAST)
    shallow = run(BERT_BASE, GH200, batch_size=32, seq_len=512,
                  config=EngineConfig(iterations=1, launch_queue_depth=4))
    # With a tiny queue the CPU blocks on the GPU, stretching CPU-side time.
    deep_end = max(o.ts_end for o in deep.trace.operators)
    shallow_end = max(o.ts_end for o in shallow.trace.operators)
    assert shallow_end > deep_end


def test_warmup_iterations_excluded_from_marks():
    config = EngineConfig(iterations=2, warmup_iterations=1)
    result = run(BERT_BASE, INTEL_H100, batch_size=1, seq_len=128,
                 config=config)
    trace = result.trace
    assert len(trace.iterations) == 2
    # Warm-up kernels exist in the trace but before the first mark.
    per_iter = result.kernels_per_iteration
    assert len(trace.kernels) == 3 * per_iter
    first_mark = trace.iterations[0].ts
    warmup_kernels = [k for k in trace.kernels if k.ts < first_mark]
    assert len(warmup_kernels) == per_iter
    # Metrics see only the measured iterations.
    from repro.skip import compute_metrics
    metrics = compute_metrics(trace)
    assert len(metrics.iterations) == 2


def test_warmup_does_not_change_measured_metrics():
    from repro.skip import compute_metrics
    cold = compute_metrics(run(BERT_BASE, INTEL_H100, batch_size=1,
                               seq_len=128, config=FAST).trace)
    warm = compute_metrics(run(
        BERT_BASE, INTEL_H100, batch_size=1, seq_len=128,
        config=EngineConfig(iterations=1, warmup_iterations=2)).trace)
    assert warm.inference_latency_ns == pytest.approx(
        cold.inference_latency_ns, rel=1e-6)
    assert warm.tklqt_ns == pytest.approx(cold.tklqt_ns, rel=1e-6)


def test_engine_config_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(iterations=0)
    with pytest.raises(ConfigurationError):
        EngineConfig(launch_queue_depth=0)
    with pytest.raises(ConfigurationError):
        EngineConfig(dispatch_epilogue_fraction=1.0)
    for field in ("inter_iteration_gap_ns", "sync_call_ns"):
        for value in (-1.0, float("nan")):
            with pytest.raises(ConfigurationError, match=field):
                EngineConfig(**{field: value})


def test_compile_report_attached(bert_result):
    assert bert_result.compile_report.total_s == pytest.approx(0.406)


def test_metadata_complete(bert_result):
    meta = bert_result.trace.metadata
    assert meta["platform"] == "Intel+H100"
    assert meta["model"] == "bert-base-uncased"
    assert meta["mode"] == "eager"
    assert meta["phase"] == "prefill"
