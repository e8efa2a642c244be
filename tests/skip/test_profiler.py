"""SkipProfiler facade."""

import pytest

from repro.engine import DispatchMode, EngineConfig, ExecutionMode, TPConfig
from repro.hardware import INTEL_H100
from repro.skip import Boundedness, SkipProfiler
from repro.workloads import GPT2, LLAMA_3_2_1B, PAPER_MODELS, Phase


def test_profile_produces_full_result(intel_profiler):
    result = intel_profiler.profile(GPT2, batch_size=1, seq_len=128)
    assert result.metrics.kernel_launches > 0
    assert result.depgraph.launches
    assert result.run_result is not None
    assert result.trace.metadata["model"] == "gpt2"


def test_boundedness_property(intel_profiler):
    result = intel_profiler.profile(GPT2, batch_size=1, seq_len=128)
    assert result.boundedness in (Boundedness.CPU_BOUND, Boundedness.GPU_BOUND)


def test_recommend_fusions_shortcut(gpt2_profile):
    analyses = gpt2_profile.recommend_fusions(lengths=[2, 4])
    assert [a.length for a in analyses] == [2, 4]


def test_fusion_plan_picks_best_length(gpt2_profile):
    plan = gpt2_profile.fusion_plan()
    assert plan is not None
    # best idealized speedup for GPT-2 is at L=256 (Fig. 8)
    assert max(len(c) for c in plan.chains) == 256


def test_profile_then_refuse_roundtrip(intel_profiler):
    """End-to-end: recommend chains, re-run under PROXIMITY_FUSED, and
    check the launch count drops accordingly."""
    baseline = intel_profiler.profile(GPT2, batch_size=1, seq_len=512)
    plan = baseline.fusion_plan(lengths=[64])
    assert plan is not None
    fused = intel_profiler.profile(GPT2, batch_size=1, seq_len=512,
                                   mode=ExecutionMode.PROXIMITY_FUSED,
                                   fusion_plan=plan)
    assert fused.metrics.kernel_launches < baseline.metrics.kernel_launches
    assert fused.metrics.inference_latency_ns < baseline.metrics.inference_latency_ns


def test_decode_phase_profile(intel_profiler):
    result = intel_profiler.profile(LLAMA_3_2_1B, batch_size=1, seq_len=1,
                                    phase=Phase.DECODE, context_len=256)
    assert result.trace.metadata["phase"] == "decode"
    assert result.metrics.kernel_launches > 0


def test_analyze_static_method_on_existing_trace(gpt2_profile):
    reanalyzed = SkipProfiler.analyze(gpt2_profile.trace)
    assert reanalyzed.metrics.tklqt_ns == pytest.approx(
        gpt2_profile.metrics.tklqt_ns)
    assert reanalyzed.run_result is None


def test_custom_engine_config():
    profiler = SkipProfiler(INTEL_H100, EngineConfig(iterations=2))
    result = profiler.profile(GPT2, batch_size=1, seq_len=128)
    assert len(result.metrics.iterations) == 2


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("model", PAPER_MODELS, ids=lambda m: m.name)
def test_single_thread_tp_gets_the_per_device_fusion_plan(model, batch_size):
    """One dispatch thread launches a TP step's shards in turn, so its
    segments interleave the devices' kernels unless cut per device."""
    def plan(**tp):
        return SkipProfiler(INTEL_H100).profile(
            model, batch_size=batch_size, seq_len=64,
            tp=TPConfig(degree=2, **tp)).fusion_plan()

    single = plan()
    per_device = plan(dispatch=DispatchMode.THREAD_PER_DEVICE)
    assert single is not None and per_device is not None
    assert single.chains == per_device.chains
