"""Kernel segments against the per-iteration reference.

``kernel_segments(trace)`` is ``tape_segments`` over
``TraceTape.from_trace(trace)``: the tape lists launches in correlation-id
order, and ``tape_segments`` sorts them by call ``ts`` once, cuts each
iteration ``[ts, ts_end)`` out by bisection and puts each cut back in
launch order. :func:`reference_segments` is the per-iteration body it
replaced, kept here for exactly this comparison. It scans every launch
call and every kernel once per iteration.

The traces cover what the cut must get right: the engine's modes and
topologies on the three paper platforms, each trace's Chrome round trip
(which renumbers event ids in time order but keeps correlation ids), every
engine tape, and hand-built traces with overlapping iterations, a
``cudaGraphLaunch`` marker with the default id -1, launch calls on two
threads at one timestamp, kernels queued past ``ts_end`` and launches on
an iteration boundary.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.engine import (
    DispatchMode, EngineConfig, ExecutionMode, PPConfig, TPConfig, run,
)
from repro.hardware import PAPER_PLATFORMS
from repro.skip import kernel_segments
from repro.skip.proximity import tape_segments
from repro.trace import (
    GRAPH_LAUNCH,
    KernelEvent,
    LAUNCH_KERNEL,
    OperatorEvent,
    RuntimeEvent,
    Trace,
    chrome,
)
from repro.trace.tape import TraceTape
from repro.workloads import GPT2
from tests.property.test_metrics_properties import sorted_traces


def reference_segments(trace: Trace) -> list[list[str]]:
    """Kernel names per iteration: launched kernels by correlation id,
    then graph-replayed kernels by ``(ts, event_id)``."""
    segments = []
    for mark in trace.iterations:
        launched_here = {
            r.correlation_id for r in trace.runtime_calls
            if r.is_launch and r.correlation_id >= 0
            and mark.ts <= r.ts < mark.ts_end
        }
        kernels = [
            k for k in trace.kernels
            if k.correlation_id in launched_here
            or (k.correlation_id < 0 and mark.ts <= k.ts < mark.ts_end)
        ]
        launched = sorted((k for k in kernels if k.correlation_id >= 0),
                          key=lambda k: k.correlation_id)
        replayed = sorted((k for k in kernels if k.correlation_id < 0),
                          key=lambda k: (k.ts, k.event_id))
        segments.append([k.name for k in [*launched, *replayed]])
    return segments


def assert_segments_match(trace: Trace) -> list[list[str]]:
    """Both segment readers equal the reference; returns the segments."""
    expected = reference_segments(trace)
    assert kernel_segments(trace) == expected
    assert tape_segments(TraceTape.from_trace(trace)) == expected
    return expected


# ----------------------------------------------------------------------
# Engine traces, their Chrome round trips and engine tapes
# ----------------------------------------------------------------------
MODES = (ExecutionMode.EAGER, ExecutionMode.FLASH_ATTENTION,
         ExecutionMode.COMPILE_DEFAULT, ExecutionMode.COMPILE_REDUCE_OVERHEAD)
TOPOLOGIES = {
    "tp1": {},
    "tp2": {"tp": TPConfig(degree=2)},
    "tp2-per-device": {
        "tp": TPConfig(degree=2, dispatch=DispatchMode.THREAD_PER_DEVICE)},
    "pp2": {"pp": PPConfig(stages=2, microbatches=2)},
}
# Pipeline stages launch kernel by kernel, and graph replay ignores the
# dispatch mode (per-device replay is the tp2 run again).
CASES = [pytest.param(mode, topology, id=f"{mode.value}-{topology}")
         for topology in TOPOLOGIES for mode in MODES
         if not (mode.uses_cuda_graph and topology in ("tp2-per-device", "pp2"))]


@pytest.mark.parametrize("mode,topology", CASES)
@pytest.mark.parametrize("platform", PAPER_PLATFORMS, ids=lambda p: p.name)
def test_engine_segments_match_the_reference(platform, mode, topology):
    kwargs = dict(seq_len=64, mode=mode, config=EngineConfig(iterations=2),
                  **TOPOLOGIES[topology])
    trace = run(GPT2, platform, **kwargs).trace
    expected = assert_segments_match(trace)
    assert len(expected) == 2 and all(expected)
    assert assert_segments_match(chrome.loads(chrome.dumps(trace))) == expected
    assert tape_segments(run(GPT2, platform, tape=True, **kwargs).tape) == expected


@given(trace=sorted_traces)
@settings(max_examples=60, deadline=None)
def test_multi_thread_segments_match_the_reference(trace):
    assert_segments_match(trace)
    assert_segments_match(chrome.loads(chrome.dumps(trace)))


# ----------------------------------------------------------------------
# Hand-built traces
# ----------------------------------------------------------------------
def launch(trace: Trace, name: str, call_ts: float, kernel_ts: float,
           correlation: int, tid: int = 1) -> None:
    trace.add(RuntimeEvent(LAUNCH_KERNEL, call_ts, 1.0, tid=tid,
                           correlation_id=correlation))
    trace.add(KernelEvent(name, kernel_ts, 2.0, correlation_id=correlation))


def test_overlapping_iterations():
    trace = Trace()
    trace.add(OperatorEvent("op", 0.0, 40.0, tid=1, seq=0))
    launch(trace, "a", 5.0, 8.0, 1)
    launch(trace, "b", 12.0, 14.0, 2)
    launch(trace, "c", 25.0, 60.0, 3)
    trace.add(KernelEvent("g", 15.0, 1.0, correlation_id=-2))
    trace.mark_iteration(0.0, 20.0)
    trace.mark_iteration(10.0, 40.0)
    trace.sort()
    assert assert_segments_match(trace) == [["a", "b", "g"], ["b", "c", "g"]]


def test_graph_launch_marker_with_the_default_id():
    # The marker's id -1 is also the first replayed kernel's; a replayed
    # kernel belongs to the iteration holding its own start.
    trace = Trace()
    trace.add(RuntimeEvent(GRAPH_LAUNCH, 1.0, 1.0, tid=1))
    trace.add(KernelEvent("g0", 60.0, 1.0, correlation_id=-1))
    trace.add(KernelEvent("g1", 3.0, 1.0, correlation_id=-3))
    trace.add(KernelEvent("g2", 3.0, 1.0, correlation_id=-2))
    launch(trace, "k", 2.0, 70.0, 4)
    trace.mark_iteration(0.0, 50.0)
    trace.mark_iteration(50.0, 100.0)
    trace.sort()
    assert assert_segments_match(trace) == [["k", "g1", "g2"], ["g0"]]


def test_launch_calls_on_two_threads_at_one_timestamp():
    # Thread 2's call is built first, so its event id comes first; launch
    # order is the correlation order, which puts thread 1's call first.
    trace = Trace()
    launch(trace, "second", 4.0, 9.0, 2, tid=2)
    launch(trace, "first", 4.0, 5.0, 1, tid=1)
    launch(trace, "third", 4.0, 6.0, 3, tid=2)
    trace.mark_iteration(0.0, 10.0)
    trace.sort()
    assert assert_segments_match(trace) == [["first", "second", "third"]]
    round_trip = chrome.loads(chrome.dumps(trace))
    assert assert_segments_match(round_trip) == [["first", "second", "third"]]


def test_kernels_queued_past_the_iteration_end():
    trace = Trace()
    launch(trace, "a", 1.0, 30.0, 1)
    launch(trace, "b", 2.0, 45.0, 2)
    launch(trace, "c", 25.0, 50.0, 3)
    trace.mark_iteration(0.0, 20.0)
    trace.mark_iteration(20.0, 40.0)
    trace.sort()
    assert assert_segments_match(trace) == [["a", "b"], ["c"]]


def test_launches_on_an_iteration_boundary_belong_to_the_next():
    trace = Trace()
    launch(trace, "a", 0.0, 1.0, 1)
    launch(trace, "b", 10.0, 11.0, 2)
    trace.add(KernelEvent("g", 10.0, 1.0, correlation_id=-3))
    launch(trace, "c", 20.0, 21.0, 4)
    trace.mark_iteration(0.0, 10.0)
    trace.mark_iteration(10.0, 20.0)
    trace.sort()
    assert assert_segments_match(trace) == [["a"], ["b", "g"]]
