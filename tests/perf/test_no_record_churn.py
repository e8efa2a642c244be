"""Allocation-churn regression locks for unrecorded runs.

The churn audit found two classes of waste on runs nobody observes:

* serving policies built :class:`~repro.obs.events.EngineShape` objects for
  every step even with ``recorder=None``, where they were dropped unread;
* metrics-only engine runs built a full :class:`~repro.trace.trace.Trace`
  (every event drawing a global event id) when only the aggregate numbers
  were wanted — the tape fast path records plain tuples instead.

These tests pin both behaviors: a no-record serving run must construct
zero ``EngineShape`` objects, and a tape-mode engine run, or a SKIP
profile read only for its metrics and fusion plan, must draw zero global
trace event ids. The global id counter in ``repro.trace.events`` is
the allocation probe: every trace event constructed anywhere in the
process advances it exactly once.

A recorded serve keeps a decode window of k steps as one record of its
step log, not k ``StepEvent`` records, and every step that keeps its kind's
default kernel name appends one shared schedule item per kind.
"""

from repro.engine.executor import run
from repro.hardware import get_platform
from repro.kvcache import KvPolicy
from repro.obs import RunRecorder, StepEvent, StepKind
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    SpeculativeServingPolicy,
    poisson_requests,
    simulate_serving,
)
from repro.skip import SkipProfiler
from repro.trace import events as trace_events
from repro.workloads import get_model

INTEL_H100 = get_platform("Intel+H100")
GPT2 = get_model("gpt2")


def _event_ids_drawn(fn) -> int:
    """Global trace-event ids drawn while ``fn`` runs (probe draws excluded)."""
    before = next(trace_events._event_ids)
    fn()
    after = next(trace_events._event_ids)
    return after - before - 1


def test_unrecorded_serving_run_allocates_no_trace_events():
    requests = poisson_requests(rate_per_s=60, duration_s=0.1, prompt_len=64,
                                output_tokens=4, seed=5)
    drawn = _event_ids_drawn(lambda: simulate_serving(
        requests, GPT2, LatencyModel(INTEL_H100),
        policy=ContinuousBatchPolicy(max_active=4)))
    assert drawn == 0


def test_tape_mode_engine_run_allocates_no_trace_events():
    drawn = _event_ids_drawn(lambda: run(
        GPT2, INTEL_H100, batch_size=2, seq_len=128, tape=True))
    assert drawn == 0


def test_skip_profile_metrics_and_fusions_allocate_no_trace_events():
    # The tape-first profile builds its trace only when ``.trace`` is read.
    def profile_and_plan():
        result = SkipProfiler(INTEL_H100).profile(GPT2, seq_len=128)
        result.metrics
        assert result.fusion_plan() is not None

    assert _event_ids_drawn(profile_and_plan) == 0


def test_unrecorded_policies_build_no_engine_shapes(monkeypatch):
    from repro.obs import events as obs_events

    built = []
    real_shape = obs_events.EngineShape

    def counting_shape(*args, **kwargs):
        built.append(args)
        return real_shape(*args, **kwargs)

    # Policies import the symbol into their own namespaces; patch each one.
    for module in ("repro.serving.continuous", "repro.serving.batched",
                   "repro.serving.speculative", "repro.serving.planner"):
        monkeypatch.setattr(f"{module}.EngineShape", counting_shape)

    from repro.kvcache import KvCacheConfig

    requests = poisson_requests(rate_per_s=40, duration_s=0.1, prompt_len=512,
                                output_tokens=32, seed=7)
    simulate_serving(requests, GPT2, LatencyModel(INTEL_H100),
                     policy=ContinuousBatchPolicy(max_active=4))
    simulate_serving(requests, GPT2,
                     LatencyModel(get_platform("GH200")),
                     policy=ContinuousBatchPolicy(max_active=4),
                     kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.04))
    simulate_serving(requests, GPT2, LatencyModel(INTEL_H100),
                     policy=SpeculativeServingPolicy(draft=GPT2,
                                                     max_batch_size=4))
    assert built == []


def test_recorded_decode_windows_are_one_step_record_each(monkeypatch):
    from tests.perf.test_step_bookkeeping_parity import offload_chunked_serve

    window_lengths = []
    record_steps = RunRecorder.record_steps

    def counting_record_steps(self, kind, starts, *args, **kwargs):
        window_lengths.append(len(starts))
        return record_steps(self, kind, starts, *args, **kwargs)

    monkeypatch.setattr(RunRecorder, "record_steps", counting_record_steps)
    recorder, served = offload_chunked_serve()
    windows = [k for k in window_lengths if k >= 2]
    records = recorder.steps._records
    assert len(windows) > 20 and sum(windows) > 200
    assert sum(type(r) is not StepEvent for r in records) == len(windows)
    assert len(records) == len(recorder.steps) - sum(k - 1 for k in windows)

    # Default-name kernel items are one shared tuple per kind; chunk
    # labels (unique per chunk) are not.
    for session in served.sessions:
        for items in session.schedule_items.values():
            kernels = [item for item in items if item[0] == "kernel"]
            for kind in StepKind:
                default = ("kernel", f"serving::{kind.value}")
                assert len({id(item) for item in kernels
                            if item == default}) <= 1
            assert any(item[1].startswith("serving::prefill_chunk[")
                       for item in kernels)
            assert len({id(item) for item in kernels}) < len(kernels) / 4
