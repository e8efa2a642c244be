"""Property-based tests for the paper's metric invariants (Eq. 1-6).

The schedules here are arbitrary valid launch timelines, not engine output:
the invariants must hold for *any* trace SKIP could be handed, including
traces exported from recorded serving runs by :mod:`repro.obs`.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stats import Histogram
from repro.skip import compute_metrics, mine_chains
from repro.trace import TraceBuilder
from repro.trace.trace import Trace


@st.composite
def launch_schedules(draw):
    """A monotone schedule of (call_ts, kernel_start, duration) launches."""
    count = draw(st.integers(1, 20))
    schedule = []
    cpu = 0.0
    gpu_free = 0.0
    for _ in range(count):
        cpu += draw(st.floats(1.0, 1000.0))
        latency = draw(st.floats(0.5, 500.0))
        duration = draw(st.floats(0.5, 2000.0))
        start = max(cpu + latency, gpu_free)
        gpu_free = start + duration
        schedule.append((cpu, start, duration))
        cpu += 1.0
    return schedule


def build_trace(schedule, extra_queue_ns: float = 0.0) -> Trace:
    """One-iteration trace; ``extra_queue_ns`` delays every kernel start."""
    builder = TraceBuilder()
    builder.begin_iteration(0.0)
    op = builder.begin_operator("aten::op", 0.0)
    for call_ts, start, duration in schedule:
        builder.launch_kernel(call_ts, 0.5, "k", start + extra_queue_ns,
                              duration)
    last_cpu = schedule[-1][0] + 2.0
    builder.end_operator(op, last_cpu)
    end = (max(last_cpu, max(s + d for _, s, d in schedule))
           + extra_queue_ns + 1.0)
    builder.end_iteration(end)
    return builder.finish()


@given(schedule=launch_schedules(), delay=st.floats(0.0, 1e6))
@settings(max_examples=100, deadline=None)
def test_tklqt_nonnegative_and_monotone_in_queuing_delay(schedule, delay):
    """Eq. 2: TKLQT >= 0, and extra queuing can only grow it."""
    baseline = compute_metrics(build_trace(schedule))
    delayed = compute_metrics(build_trace(schedule, extra_queue_ns=delay))
    assert baseline.tklqt_ns >= 0
    assert delayed.tklqt_ns >= baseline.tklqt_ns - 1e-6
    # The delay adds exactly len(schedule) * delay of queuing.
    assert delayed.tklqt_ns == pytest.approx(
        baseline.tklqt_ns + len(schedule) * delay, rel=1e-9, abs=1e-6)


@given(schedule=launch_schedules())
@settings(max_examples=100, deadline=None)
def test_latency_decomposition_identities(schedule):
    """Eq. 4/5: busy + idle sums reproduce the inference latency, per PU."""
    metrics = compute_metrics(build_trace(schedule))
    il = metrics.inference_latency_ns
    assert metrics.gpu_busy_ns + metrics.gpu_idle_ns == pytest.approx(il)
    if il >= metrics.cpu_busy_ns:
        assert metrics.cpu_busy_ns + metrics.cpu_idle_ns == pytest.approx(il)
    else:
        # The CPU tail ran past the last kernel: IL (kernel-anchored, Eq. 4)
        # is shorter than CPU busy and idle clamps to zero.
        assert metrics.cpu_idle_ns == 0.0


@given(schedule=launch_schedules())
@settings(max_examples=100, deadline=None)
def test_gpu_idle_nonnegative(schedule):
    """Eq. 5: an in-order stream can never be idle a negative time."""
    metrics = compute_metrics(build_trace(schedule))
    assert metrics.gpu_idle_ns >= -1e-9


@given(schedule=launch_schedules(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_metrics_invariant_under_event_reordering(schedule, data):
    """AKD (Eq. 3) and friends depend on event *times*, not storage order."""
    original = build_trace(schedule)
    events = original.all_events()
    shuffled = Trace(metadata=dict(original.metadata))
    for event in data.draw(st.permutations(events)):
        shuffled.add(event)
    for mark in original.iterations:
        shuffled.mark_iteration(mark.ts, mark.ts_end)
    shuffled.sort()

    before = compute_metrics(original)
    after = compute_metrics(shuffled)
    assert after.akd_ns == pytest.approx(before.akd_ns)
    assert after.tklqt_ns == pytest.approx(before.tklqt_ns)
    assert after.inference_latency_ns == pytest.approx(
        before.inference_latency_ns)
    assert after.kernel_launches == before.kernel_launches


@given(segments=st.lists(
    st.lists(st.sampled_from(string.ascii_lowercase[:6]), min_size=1,
             max_size=30),
    min_size=1, max_size=5),
    length=st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_proximity_score_bounded(segments, length):
    """Eq. 6: PS(C) = f(C) / f(k_i) always lands in (0, 1]."""
    result = mine_chains(segments, length)
    for chain in result.chains:
        assert chain.frequency >= 1
        assert chain.frequency <= chain.anchor_frequency
        assert 0.0 < chain.proximity_score <= 1.0


@given(observations=st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_histogram_percentiles_ordered_and_bounded(observations):
    """Nearest-rank percentiles are monotone and within range."""
    histogram = Histogram("h")
    for value in observations:
        histogram.observe(value)
    summary = histogram.summary()
    assert summary.count == len(observations)
    assert summary.minimum <= summary.p50 <= summary.p90 <= summary.p99
    assert summary.p99 <= summary.maximum
    # The mean carries rounding steps the extrema do not.
    slack = 1e-9 * max(1.0, abs(summary.minimum), abs(summary.maximum))
    assert summary.minimum - slack <= summary.mean <= summary.maximum + slack
