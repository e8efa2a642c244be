"""Property-based tests for the token-budget step planner.

Two conservation laws hold for *any* admission/step sequence:

* no plan the planner emits ever exceeds ``max_num_batched_tokens``;
* a prompt's chunks tile it exactly — lengths sum to the prompt length,
  offsets are contiguous, and no chunk exceeds the budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.planner import (
    PlannerConfig,
    StepPlanner,
    chunk_plan,
)
from repro.serving.requests import Request


@given(prompt_len=st.integers(1, 5000), budget=st.integers(0, 600))
def test_chunk_plan_tiles_the_prompt_exactly(prompt_len, budget):
    chunks = chunk_plan(7, prompt_len, budget)
    assert sum(c.length for c in chunks) == prompt_len
    offset = 0
    for chunk in chunks:
        assert chunk.start == offset
        assert chunk.total == prompt_len
        if budget > 0:
            assert chunk.length <= budget
        offset += chunk.length
    assert chunks[0].is_first and chunks[-1].is_last
    if budget == 0:
        assert len(chunks) == 1 and chunks[0].is_whole


@st.composite
def admissions(draw):
    """A sequence of admitted prompt batches interleaved with step calls."""
    events = []
    rid = 0
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            batch = []
            for _ in range(draw(st.integers(1, 3))):
                batch.append(Request(
                    request_id=rid, arrival_ns=0.0,
                    prompt_len=draw(st.integers(1, 2000)),
                    output_tokens=1))
                rid += 1
            events.append(("admit", batch))
        else:
            events.append(("step", draw(st.integers(0, 8))))
    return events


@given(events=admissions(), budget=st.integers(8, 512))
@settings(max_examples=60, deadline=None)
def test_no_step_exceeds_the_token_budget(events, budget):
    planner = StepPlanner(PlannerConfig(chunk_tokens=budget))
    prefilled: dict[int, int] = {}
    totals: dict[int, int] = {}
    for kind, payload in events:
        if kind == "admit":
            planner.admit(payload)
            for request in payload:
                totals[request.request_id] = request.prompt_len
            continue
        decode_count = min(payload, budget)
        plan = planner.plan_step(decode_count)
        assert plan.total_tokens <= planner.config.max_num_batched_tokens
        assert plan.decode_tokens == decode_count
        for chunk in plan.chunks:
            # Chunks continue exactly where the previous one stopped.
            assert chunk.start == prefilled.get(chunk.request_id, 0)
            assert chunk.total == totals[chunk.request_id]
            prefilled[chunk.request_id] = chunk.start + chunk.length
    # Drain: every admitted prompt eventually tiles exactly.
    while planner.has_pending:
        plan = planner.plan_step(0)
        assert 0 < plan.total_tokens <= budget
        for chunk in plan.chunks:
            assert chunk.start == prefilled.get(chunk.request_id, 0)
            prefilled[chunk.request_id] = chunk.start + chunk.length
    assert prefilled == totals or all(
        prefilled[rid] == total for rid, total in totals.items()
        if rid in prefilled)
    for rid, total in totals.items():
        assert prefilled[rid] == total


@given(decode_count=st.integers(0, 64))
def test_disabled_planner_emits_pure_decode_plans(decode_count):
    planner = StepPlanner(PlannerConfig(chunk_tokens=0))
    plan = planner.plan_step(decode_count)
    assert plan.chunks == ()
    assert plan.total_tokens == decode_count
