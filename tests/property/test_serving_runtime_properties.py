"""Property-based tests for the sim-backed serving runtime.

Invariants that must hold for *any* arrival stream, policy, and replica
count: conservation (every request completes exactly once, on exactly one
replica), causality (service never precedes arrival; first token never
follows completion), per-replica clock monotonicity, and the law the
legacy closed-form loops encoded: one replica books its steps back to
back, idle only while nothing is waiting.

The legacy loops' own outcomes for a fixed seeded corpus of streams drawn
within these bounds are frozen in
``tests/golden/data/legacy_corpus_rows.json``; one replica must reproduce
every row exactly.
"""

import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import INTEL_H100
from repro.obs import RunRecorder
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    Request,
    StaticBatchPolicy,
    simulate_serving,
)
from repro.workloads import GPT2
from tests.golden.conftest import DATA_DIR

# One latency model across all examples: caching makes the property runs
# cheap after the first few engine calls.
_LATENCY = LatencyModel(INTEL_H100)


@st.composite
def request_streams(draw):
    count = draw(st.integers(1, 14))
    requests = []
    clock = 0.0
    for i in range(count):
        clock += draw(st.floats(0, 2e8))  # up to 200 ms gaps
        requests.append(Request(
            request_id=i,
            arrival_ns=clock,
            prompt_len=draw(st.sampled_from([64, 128, 256])),
            output_tokens=draw(st.integers(1, 6)),
        ))
    return requests


@st.composite
def policies(draw):
    if draw(st.booleans()):
        return ContinuousBatchPolicy(max_active=draw(st.integers(1, 8)))
    return StaticBatchPolicy(max_batch_size=draw(st.integers(1, 8)),
                             max_wait_ns=draw(st.sampled_from([0.0, 5e7])))


@given(stream=request_streams(), policy=policies(),
       replicas=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_conservation_and_causality(stream, policy, replicas):
    result = simulate_serving(stream, GPT2, _LATENCY, policy=policy,
                              replicas=replicas)
    served = [o.request.request_id for o in result.report.outcomes]
    assert sorted(served) == [r.request_id for r in stream]
    assert len(served) == len(set(served))  # exactly once, one replica each
    for outcome in result.report.outcomes:
        assert 0 <= outcome.replica < replicas
        assert outcome.queue_ns >= 0.0
        assert outcome.ttft_ns >= outcome.queue_ns
        assert outcome.completion_ns >= outcome.ttft_ns


@given(stream=request_streams(), policy=policies(),
       replicas=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_replica_clocks_monotone(stream, policy, replicas):
    """Each replica's recorded engine steps advance monotonically — a
    policy process never travels back in time on its own session."""
    recorder = RunRecorder()
    simulate_serving(stream, GPT2, _LATENCY, policy=policy,
                     replicas=replicas, recorder=recorder)
    last_start: dict[int, float] = {}
    for step in recorder.steps:
        assert step.ts_ns >= last_start.get(step.replica, 0.0)
        last_start[step.replica] = step.ts_ns


def _rows(outcomes):
    return json.loads(json.dumps(
        [(o.request.request_id, o.ttft_ns, o.completion_ns, o.batch_size,
          o.queue_ns) for o in outcomes]))


@pytest.fixture(scope="module")
def corpus():
    return json.loads((DATA_DIR / "legacy_corpus_rows.json").read_text())


def _stream(entry):
    return [Request(request_id=rid, arrival_ns=arrival, prompt_len=prompt,
                    output_tokens=output)
            for rid, arrival, prompt, output in entry["requests"]]


def test_one_replica_matches_legacy_continuous(corpus):
    for entry in corpus:
        policy = ContinuousBatchPolicy(max_active=entry["max_active"])
        sim = simulate_serving(_stream(entry), GPT2, _LATENCY, policy=policy,
                               replicas=1)
        assert _rows(sim.report.outcomes) == entry["continuous"], entry["seed"]


def test_one_replica_matches_legacy_static(corpus):
    for entry in corpus:
        policy = StaticBatchPolicy(max_batch_size=entry["max_batch_size"],
                                   max_wait_ns=entry["max_wait_ns"])
        sim = simulate_serving(_stream(entry), GPT2, _LATENCY, policy=policy,
                               replicas=1)
        assert _rows(sim.report.outcomes) == entry["static"], entry["seed"]


def assert_steps_back_to_back(stream, recorder):
    """Each step starts exactly at ``max(end of the step before, earliest
    arrival not yet completed)``; no two steps overlap.

    A request counts as completed at the end of the step it completed in
    (the last one starting before its completion time), so the law reads
    only recorded step bounds and arrivals.
    """
    steps = recorder.steps
    starts = [step.ts_ns for step in steps]
    done_at = {}
    for rid, span in recorder.spans.items():
        step = steps[bisect_left(starts, span.completed_ns) - 1]
        done_at[rid] = step.ts_ns + step.dur_ns
    end = 0.0
    for step in steps:
        assert step.ts_ns >= end, ("overlap", step)
        pending = min(r.arrival_ns for r in stream
                      if done_at[r.request_id] > end)
        assert step.ts_ns == max(end, pending), step
        end = step.ts_ns + step.dur_ns


@st.composite
def back_to_back_policies(draw):
    """Policies that never hold a replica idle while a request waits."""
    if draw(st.booleans()):
        return ContinuousBatchPolicy(max_active=draw(st.integers(1, 8)))
    return StaticBatchPolicy(max_batch_size=draw(st.integers(1, 8)),
                             max_wait_ns=0.0)


@given(stream=request_streams(), policy=back_to_back_policies())
@settings(max_examples=40, deadline=None)
def test_one_replica_books_steps_back_to_back(stream, policy):
    recorder = RunRecorder()
    simulate_serving(stream, GPT2, _LATENCY, policy=policy, replicas=1,
                     recorder=recorder)
    assert_steps_back_to_back(stream, recorder)
