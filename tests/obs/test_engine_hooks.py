"""Engine-level recorder hooks: per-launch sampling and engine steps."""

import pytest

from repro.engine import DispatchMode, EngineConfig, PPConfig, TPConfig, run
from repro.hardware import INTEL_H100
from repro.obs import RunRecorder, StepKind
from repro.obs.recorder import H_LAUNCH_DELAY, H_LAUNCH_QUEUE
from repro.workloads import GPT2


def test_executor_records_engine_steps_and_launch_samples():
    recorder = RunRecorder()
    result = run(GPT2, INTEL_H100, batch_size=1, seq_len=64,
                 config=EngineConfig(iterations=2), recorder=recorder)
    engine_steps = [s for s in recorder.steps if s.kind is StepKind.ENGINE]
    assert len(engine_steps) == len(result.trace.iterations) == 2
    for step, mark in zip(engine_steps, result.trace.iterations):
        assert step.ts_ns == mark.ts
        assert step.dur_ns == mark.ts_end - mark.ts
    # Every launch contributed one delay and one queue-occupancy sample.
    delays = recorder.histogram(H_LAUNCH_DELAY)
    queue = recorder.histogram(H_LAUNCH_QUEUE)
    assert delays.count == queue.count == len(result.trace.kernels)
    assert delays.percentile(0) >= 0
    assert queue.percentile(0) >= 0


@pytest.mark.parametrize("tp,pp", [
    (TPConfig(degree=2), None),
    (TPConfig(degree=2, dispatch=DispatchMode.THREAD_PER_DEVICE), None),
    (None, PPConfig(stages=2, microbatches=2)),
    (TPConfig(degree=2), PPConfig(stages=2, microbatches=2)),
], ids=["single-tp2", "per-device-tp2", "pp2x2", "pp2x2-tp2"])
def test_every_launch_mode_samples_every_launch(tp, pp):
    """Each multi-device launch-mode driver feeds the launch histograms
    once per kernel launch: every per-device thread, and every pipeline
    stage."""
    recorder = RunRecorder()
    result = run(GPT2, INTEL_H100, batch_size=1, seq_len=64,
                 config=EngineConfig(iterations=1), tp=tp, pp=pp,
                 recorder=recorder)
    kernels = len(result.trace.kernels)
    assert recorder.histogram(H_LAUNCH_DELAY).count == kernels
    assert recorder.histogram(H_LAUNCH_QUEUE).count == kernels


def test_executor_without_recorder_is_unchanged():
    plain = run(GPT2, INTEL_H100, batch_size=1, seq_len=64,
                config=EngineConfig(iterations=1))
    recorded = run(GPT2, INTEL_H100, batch_size=1, seq_len=64,
                   config=EngineConfig(iterations=1),
                   recorder=RunRecorder())
    assert plain.trace.span == recorded.trace.span
    assert len(plain.trace.kernels) == len(recorded.trace.kernels)
