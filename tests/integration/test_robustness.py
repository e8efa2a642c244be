"""Failure injection: malformed and adversarial inputs.

A profiler that crashes confusingly on a weird trace is useless; these tests
pin down the failure modes (clean ReproError subclasses, never KeyError /
IndexError / ZeroDivisionError).
"""

import json

import pytest

from repro.errors import AnalysisError, ReproError, TraceError
from repro.skip import (
    DependencyGraph,
    SkipProfiler,
    analyze_trace,
    compute_metrics,
    kernel_segments,
)
from repro.trace import (
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    Trace,
    chrome,
)


def test_chrome_trace_with_garbage_events_is_tolerated():
    payload = {"traceEvents": [
        {"ph": "M", "name": "process_name"},                 # metadata event
        {"ph": "X", "cat": "cpu_op", "name": "aten::add",
         "ts": 0, "dur": 5, "tid": 1, "args": {}},
        "not-a-dict",
        {"ph": "B", "name": "unsupported begin event"},
        {"ph": "X", "cat": "weird_category", "name": "x", "ts": 0, "dur": 1},
    ]}
    trace = chrome.loads(json.dumps(payload))
    assert len(trace.operators) == 1


def test_chrome_trace_missing_fields_defaults():
    payload = {"traceEvents": [
        {"ph": "X", "cat": "kernel", "name": "k"},  # no ts/dur/args
    ]}
    trace = chrome.loads(json.dumps(payload))
    assert trace.kernels[0].ts == 0.0
    assert trace.kernels[0].correlation_id == -1


def test_kernel_before_its_launch_is_a_trace_error():
    trace = Trace()
    trace.add(OperatorEvent(name="op", ts=0.0, dur=10.0, tid=1, seq=0))
    trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=5.0, dur=1.0, tid=1,
                           correlation_id=1))
    trace.add(KernelEvent(name="k", ts=2.0, dur=1.0, correlation_id=1))
    trace.mark_iteration(0.0, 20.0)
    trace.sort()
    # The dependency graph still builds; the metric layer reports the
    # negative t_l rather than crashing (real clock-skewed traces do this).
    graph = DependencyGraph.from_trace(trace)
    assert graph.launches[0].launch_and_queue_ns == -3.0
    metrics = compute_metrics(trace)
    assert metrics.tklqt_ns == -3.0


def test_overlapping_iterations_attribute_by_launch_time():
    trace = Trace()
    trace.add(OperatorEvent(name="op", ts=0.0, dur=30.0, tid=1, seq=0))
    trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=5.0, dur=1.0, tid=1,
                           correlation_id=1))
    trace.add(KernelEvent(name="k", ts=8.0, dur=2.0, correlation_id=1))
    trace.mark_iteration(0.0, 20.0)
    trace.mark_iteration(10.0, 40.0)   # overlaps the first
    trace.sort()
    assert kernel_segments(trace) == [["k"], []]


def test_launch_without_kernel_is_a_trace_error_for_every_analysis():
    trace = Trace()
    trace.add(OperatorEvent(name="op", ts=0.0, dur=10.0, tid=1, seq=0))
    trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=5.0, dur=1.0, tid=1,
                           correlation_id=1))
    trace.mark_iteration(0.0, 20.0)
    trace.sort()
    for analysis in (compute_metrics, kernel_segments, analyze_trace,
                     SkipProfiler.analyze):
        with pytest.raises(TraceError, match="has no kernel"):
            analysis(trace)


def test_segments_on_empty_iteration_raise_cleanly():
    trace = Trace()
    trace.mark_iteration(0.0, 1.0)
    assert kernel_segments(trace) == [[]]
    with pytest.raises(AnalysisError):
        compute_metrics(trace)


def test_analyze_rejects_traces_without_iterations():
    trace = Trace()
    trace.add(KernelEvent(name="k", ts=0.0, dur=1.0, correlation_id=-1))
    with pytest.raises(ReproError):
        SkipProfiler.analyze(trace)


def test_duplicate_correlation_is_a_trace_error():
    trace = Trace()
    for ts in (0.0, 5.0):
        trace.add(RuntimeEvent(name=LAUNCH_KERNEL, ts=ts, dur=1.0, tid=1,
                               correlation_id=7))
        trace.add(KernelEvent(name="k", ts=ts + 2, dur=1.0, correlation_id=7))
    trace.mark_iteration(0.0, 20.0)
    with pytest.raises(TraceError):
        DependencyGraph.from_trace(trace)


def test_every_public_error_is_a_repro_error():
    from repro.errors import (
        AnalysisError,
        ConfigurationError,
        SimulationError,
        TraceError,
    )
    for error_type in (AnalysisError, ConfigurationError, SimulationError,
                       TraceError):
        assert issubclass(error_type, ReproError)
