"""Trace linter: clean on real exports, loud on scrambled/tampered traces.

Every fixture starts from a real TP=2 engine trace exported through
:mod:`repro.trace.chrome` and applies one surgical mutation, so each test
pins exactly one rule to exactly one corruption.
"""

import json
import math

import pytest
from hypothesis import given, settings

from repro.check import lint_chrome_text
from repro.check.tracelint import _independent_sweep
from repro.engine import (
    DispatchMode, EngineConfig, ExecutionMode, TPConfig, run,
)
from repro.errors import AnalysisError
from repro.hardware import AMD_A100
from repro.trace import Trace, chrome
from repro.trace.events import (
    KernelEvent, LAUNCH_KERNEL, OperatorEvent, RuntimeEvent,
)
from repro.workloads import GPT2
from tests.property.test_metrics_properties import sorted_traces


def _rule_ids(findings):
    return {f.rule_id for f in findings}


@pytest.fixture(scope="module")
def payload(tp2_trace):
    return json.loads(chrome.dumps(tp2_trace))


def _lint(payload):
    findings, trace = lint_chrome_text(json.dumps(payload))
    return findings, trace


def _events(payload, cat=None, name=None):
    return [e for e in payload["traceEvents"]
            if (cat is None or e.get("cat") == cat)
            and (name is None or e.get("name") == name)]


def _copy(payload):
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------------
# Clean exports lint clean
# ----------------------------------------------------------------------
def test_fresh_export_is_clean(payload):
    findings, trace = _lint(payload)
    assert findings == []
    assert trace is not None
    assert trace.kernels


def test_export_is_deterministic(tp2_trace):
    assert chrome.dumps(tp2_trace) == chrome.dumps(tp2_trace)


def test_export_is_canonically_ordered(payload):
    begins = [e["args"]["ts_ns"] for e in payload["traceEvents"]]
    assert begins == sorted(begins)


# ----------------------------------------------------------------------
# T001 / T002: raw-file checks
# ----------------------------------------------------------------------
def test_scrambled_events_flagged_t001(payload):
    scrambled = _copy(payload)
    scrambled["traceEvents"] = list(reversed(scrambled["traceEvents"]))
    findings, _ = _lint(scrambled)
    assert "T001" in _rule_ids(findings)


def test_invalid_json_flagged_t002():
    findings, trace = lint_chrome_text("{not json")
    assert _rule_ids(findings) == {"T002"}
    assert trace is None


def test_negative_duration_flagged_t002(payload):
    mutated = _copy(payload)
    kernel = _events(mutated, cat="kernel")[0]
    kernel["dur"] = -1.0
    kernel["args"]["dur_ns"] = -1000.0
    findings, trace = _lint(mutated)
    assert "T002" in _rule_ids(findings)
    assert trace is None  # malformed traces are not parsed further


def test_non_list_trace_events_flagged_t002():
    findings, trace = lint_chrome_text('{"traceEvents": 42}')
    assert _rule_ids(findings) == {"T002"}
    assert trace is None


# ----------------------------------------------------------------------
# T003-T006: launch <-> kernel correlation
# ----------------------------------------------------------------------
def test_duplicate_correlation_flagged_t003(payload):
    mutated = _copy(payload)
    kernels = _events(mutated, cat="kernel")
    kernels[1]["args"]["correlation"] = kernels[0]["args"]["correlation"]
    findings, _ = _lint(mutated)
    assert "T003" in _rule_ids(findings)


def test_orphan_kernel_flagged_t004(payload):
    mutated = _copy(payload)
    kernel = _events(mutated, cat="kernel")[0]
    kernel["args"]["correlation"] = 10**9  # no launch carries this id
    findings, _ = _lint(mutated)
    rule_ids = _rule_ids(findings)
    assert "T004" in rule_ids
    assert "T005" in rule_ids  # its old launch lost its kernel


def test_deleted_kernel_flagged_t005(payload):
    mutated = _copy(payload)
    kernel = _events(mutated, cat="kernel")[0]
    mutated["traceEvents"].remove(kernel)
    findings, _ = _lint(mutated)
    assert "T005" in _rule_ids(findings)


def test_kernel_before_launch_flagged_t006(payload):
    mutated = _copy(payload)
    launches = {e["args"]["correlation"]: e for e in _events(
        mutated, cat="cuda_runtime", name=LAUNCH_KERNEL)}
    kernel = next(e for e in _events(mutated, cat="kernel")
                  if e["args"]["correlation"] in launches)
    launch = launches[kernel["args"]["correlation"]]
    early = launch["args"]["ts_ns"] - 5000.0
    kernel["args"]["ts_ns"] = early
    kernel["ts"] = early / 1e3
    findings, _ = _lint(mutated)
    assert "T006" in _rule_ids(findings)


# ----------------------------------------------------------------------
# T007 / T008: stream and iteration ordering
# ----------------------------------------------------------------------
def test_overlapping_kernels_flagged_t007(payload):
    mutated = _copy(payload)
    kernels = sorted(
        (e for e in _events(mutated, cat="kernel")
         if e["args"]["stream"] == _events(
             mutated, cat="kernel")[0]["args"]["stream"]
         and e["args"]["device"] == _events(
             mutated, cat="kernel")[0]["args"]["device"]),
        key=lambda e: e["args"]["ts_ns"])
    first, second = kernels[0], kernels[1]
    stretched = second["args"]["ts_ns"] - first["args"]["ts_ns"] + 2000.0
    first["args"]["dur_ns"] = stretched
    first["dur"] = stretched / 1e3
    findings, _ = _lint(mutated)
    assert "T007" in _rule_ids(findings)


def test_overlapping_iterations_flagged_t008(payload):
    mutated = _copy(payload)
    marks = sorted(_events(mutated, cat="user_annotation"),
                   key=lambda e: e["args"]["ts_ns"])
    assert len(marks) >= 2
    stretched = (marks[1]["args"]["ts_ns"] - marks[0]["args"]["ts_ns"]
                 + 1000.0)
    marks[0]["args"]["dur_ns"] = stretched
    marks[0]["dur"] = stretched / 1e3
    findings, _ = _lint(mutated)
    assert "T008" in _rule_ids(findings)


# ----------------------------------------------------------------------
# T009: sidecar tampering
# ----------------------------------------------------------------------
def test_sidecar_disagreement_flagged_t009(payload):
    mutated = _copy(payload)
    kernel = _events(mutated, cat="kernel")[0]
    kernel["args"]["ts_ns"] = kernel["args"]["ts_ns"] + 500.0  # us untouched
    findings, _ = _lint(mutated)
    assert "T009" in _rule_ids(findings)


# ----------------------------------------------------------------------
# T010: metric identities
# ----------------------------------------------------------------------
def test_diverging_pipeline_metrics_flagged_t010(payload, monkeypatch):
    import repro.skip.metrics as skip_metrics

    real = skip_metrics.compute_metrics

    def distorted(trace):
        metrics = real(trace)
        iteration = metrics.iterations[0]
        object.__setattr__(iteration, "__dict__",
                           {**vars(iteration),
                            "tklqt_ns": iteration.tklqt_ns * 2 + 1e6})
        return metrics

    monkeypatch.setattr(skip_metrics, "compute_metrics", distorted)
    findings, _ = _lint(payload)
    assert "T010" in _rule_ids(findings)
    assert any("tklqt_ns" in f.message for f in findings)


def test_uncomputable_metrics_flagged_t010(payload, monkeypatch):
    import repro.skip.metrics as skip_metrics

    def broken(trace):
        raise AnalysisError("no iterations survived attribution")

    monkeypatch.setattr(skip_metrics, "compute_metrics", broken)
    findings, _ = _lint(payload)
    assert _rule_ids(findings) == {"T010"}


def test_identities_skipped_when_structure_is_broken(payload):
    # A structurally broken trace must not cascade into T010 noise.
    mutated = _copy(payload)
    kernel = _events(mutated, cat="kernel")[0]
    mutated["traceEvents"].remove(kernel)
    findings, _ = _lint(mutated)
    assert "T010" not in _rule_ids(findings)


# ----------------------------------------------------------------------
# T010's one-pass sweep against its per-iteration form
# ----------------------------------------------------------------------
def reference_iteration_metrics(trace, ts, ts_end):
    """Eq. 2-5 for one iteration, filtered out of the whole trace."""
    kernels_by_corr = {k.correlation_id: k for k in trace.kernels
                       if k.correlation_id >= 0}
    matched = []
    for call in trace.runtime_calls:
        if (call.name == LAUNCH_KERNEL and call.correlation_id >= 0
                and ts <= call.ts < ts_end):
            kernel = kernels_by_corr.get(call.correlation_id)
            if kernel is not None:
                matched.append((call, kernel))
    kernels = [k for _, k in matched]
    kernels += [k for k in trace.kernels
                if k.correlation_id < 0 and ts <= k.ts < ts_end]
    if not kernels:
        return None

    roots = []
    open_end = {}
    for op in sorted(trace.operators, key=lambda o: (o.ts, -o.dur, o.seq)):
        if op.ts >= open_end.get(op.tid, -math.inf):
            roots.append(op)
            open_end[op.tid] = op.ts_end
    window_roots = [o for o in roots if ts <= o.ts < ts_end]
    if not window_roots:
        return None

    gpu_busy = sum(k.dur for k in kernels)
    latency = (max(k.ts_end for k in kernels)
               - min(o.ts for o in window_roots))
    return {
        "tklqt_ns": sum(k.ts - call.ts for call, k in matched),
        "akd_ns": gpu_busy / len(kernels),
        "inference_latency_ns": latency,
        "gpu_idle_ns": latency - gpu_busy,
        "kernel_launches": float(len(kernels)),
    }


def assert_sweep_matches_reference(trace):
    """Every iteration's identities equal the reference, float bits
    included; returns how many iterations were compared."""
    sweep = _independent_sweep(trace)
    for mark in trace.iterations:
        expected = reference_iteration_metrics(trace, mark.ts, mark.ts_end)
        assert repr(sweep(mark.ts, mark.ts_end)) == repr(expected), mark
    return len(trace.iterations)


def _reversed_lists(trace):
    """The same events, stored newest first (as an unsorted trace may)."""
    return Trace(operators=trace.operators[::-1],
                 runtime_calls=trace.runtime_calls[::-1],
                 kernels=trace.kernels[::-1],
                 iterations=list(trace.iterations))


@pytest.mark.parametrize("kwargs", [
    pytest.param({}, id="tp2-single-thread"),
    pytest.param({"tp": TPConfig(degree=2,
                                 dispatch=DispatchMode.THREAD_PER_DEVICE)},
                 id="tp2-per-device"),
    pytest.param({"mode": ExecutionMode.COMPILE_REDUCE_OVERHEAD},
                 id="graph-replay"),
])
def test_independent_sweep_matches_per_iteration_form(kwargs):
    kwargs = {"tp": TPConfig(degree=2), **kwargs}
    trace = run(GPT2, AMD_A100, seq_len=64, config=EngineConfig(iterations=3),
                **kwargs).trace
    trace = chrome.loads(chrome.dumps(trace))
    assert assert_sweep_matches_reference(trace) == 3
    # Cut windows are put back in storage order, not begin order.
    assert_sweep_matches_reference(_reversed_lists(trace))


@given(trace=sorted_traces)
@settings(max_examples=60, deadline=None)
def test_independent_sweep_matches_on_iteration_boundaries(trace):
    # Launches, roots and replayed kernels sit exactly on iteration ends.
    assert_sweep_matches_reference(trace)
    assert_sweep_matches_reference(_reversed_lists(trace))


def test_independent_sweep_leaves_a_root_at_ts_end_to_the_next_iteration():
    trace = Trace()
    trace.add(RuntimeEvent(LAUNCH_KERNEL, 2.0, 1.0, tid=1, correlation_id=0))
    trace.add(KernelEvent("k", 4.0, 3.0, correlation_id=0))
    trace.add(OperatorEvent("aten::op", 10.0, 5.0, tid=1, seq=0))
    trace.mark_iteration(0.0, 10.0)
    trace.mark_iteration(10.0, 20.0)
    trace.sort()
    sweep = _independent_sweep(trace)
    assert sweep(0.0, 10.0) is None  # kernels but no operator of its own
    assert sweep(10.0, 20.0) is None  # an operator but no kernels
    assert assert_sweep_matches_reference(trace) == 2
