"""Parity locks for tape-first SKIP profiles.

``SkipProfiler.profile`` runs the engine once in tape mode and derives
metrics, metadata and the fusion miner's kernel segments from the tape; the
full trace, its dependency graph and a trace-carrying run result are built
only when first read. These tests hold every tape-derived value to its
full-trace reference: ``tape_segments`` against ``kernel_segments`` in each
engine mode and topology, and a lazily read result against
``compute_metrics``/``analyze_trace`` on its own trace.
"""

from functools import lru_cache

import pytest

from repro.engine import DispatchMode, ExecutionMode, PPConfig, TPConfig
from repro.engine.executor import run
from repro.hardware import get_platform
from repro.sim.causality import CausalityLog
from repro.skip import SkipProfiler
from repro.skip.fusion import analyze_trace
from repro.skip.metrics import compute_metrics
from repro.skip.proximity import kernel_segments, tape_segments
from repro.workloads import get_model

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")


@lru_cache(maxsize=None)
def _gpt2_plan():
    return SkipProfiler(INTEL_H100).profile(GPT2, seq_len=256).fusion_plan()


def _fused():
    return dict(mode=ExecutionMode.PROXIMITY_FUSED, fusion_plan=_gpt2_plan())


MODES = [
    pytest.param(lambda: dict(batch_size=4), id="eager"),
    pytest.param(lambda: dict(mode=ExecutionMode.FLASH_ATTENTION,
                              batch_size=2), id="flash"),
    pytest.param(lambda: dict(mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD,
                              batch_size=2), id="graph-replay"),
    pytest.param(lambda: dict(tp=TPConfig(degree=2)), id="tp2-single"),
    pytest.param(lambda: dict(tp=TPConfig(
        degree=2, dispatch=DispatchMode.THREAD_PER_DEVICE)),
        id="tp2-per-device"),
    pytest.param(lambda: dict(pp=PPConfig(stages=2, microbatches=2)),
                 id="pp2"),
    pytest.param(_fused, id="proximity-fused"),
]


@pytest.mark.parametrize("kwargs", MODES)
def test_tape_segments_match_trace_segments(kwargs):
    full = run(GPT2, INTEL_H100, seq_len=256, **kwargs())
    taped = run(GPT2, INTEL_H100, seq_len=256, tape=True, **kwargs())
    assert tape_segments(taped.tape) == kernel_segments(full.trace)


@pytest.mark.parametrize("kwargs", MODES)
def test_lazy_trace_reproduces_the_tape_profile(kwargs):
    result = SkipProfiler(INTEL_H100).profile(GPT2, seq_len=256, **kwargs())
    assert "trace" not in vars(result)
    assert compute_metrics(result.trace) == result.metrics
    assert result.recommend_fusions() == analyze_trace(result.trace)
    assert result.trace.metadata == result.metadata
    assert result.run_result.trace is result.trace


def test_profile_reads_no_trace_for_metrics_or_fusions():
    result = SkipProfiler(INTEL_H100).profile(GPT2, seq_len=256)
    result.fusion_plan()
    assert not {"trace", "depgraph", "run_result"} & set(vars(result))


def test_causality_log_holds_exactly_one_run():
    reference = CausalityLog()
    run(GPT2, INTEL_H100, seq_len=256, causality=reference)
    log = CausalityLog()
    result = SkipProfiler(INTEL_H100).profile(GPT2, seq_len=256,
                                              causality=log)
    assert len(log) > 0 and log.events == reference.events
    result.trace
    assert log.events == reference.events


def test_analyzed_trace_keeps_its_trace():
    full = run(GPT2, INTEL_H100, seq_len=256)
    result = SkipProfiler.analyze(full.trace, full)
    assert result.trace is full.trace and result.run_result is full
    assert result.metadata == full.trace.metadata
    assert result.recommend_fusions() == analyze_trace(full.trace)
