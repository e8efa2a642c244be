"""Sim-backed serving reproduces the legacy loops' outcomes exactly.

The original closed-form loops were the parity oracles of the sim-backed
processes. Their outcome rows ``(request_id, ttft_ns, completion_ns,
batch_size, queue_ns)`` for one jittered stream are frozen in
``tests/golden/data/legacy_parity_rows.json``, floats stored by ``repr``
so the JSON round trip is exact. With one replica every outcome field must
equal its frozen row *exactly* — not approximately. The one deliberate
divergence is the priority scheduler's completion times (the legacy loop
charged every member of a mixed-length batch the batch's longest
generation; see ``test_scheduler.py``), where the sim may only ever be
earlier.
"""

import json

import pytest

from repro.hardware import GH200, INTEL_H100
from repro.serving import (
    ClassifiedRequest,
    ContinuousBatchPolicy,
    LatencyModel,
    PriorityPolicy,
    RequestClass,
    StaticBatchPolicy,
    simulate_continuous_batching,
    simulate_priority_scheduling,
    simulate_static_batching,
    poisson_requests,
)
from repro.workloads import GPT2
from tests.golden.conftest import DATA_DIR

FIXTURE = DATA_DIR / "legacy_parity_rows.json"

#: Jittered lengths exercise uneven batches; 1.2 s at 60 req/s keeps idle
#: gaps, saturated stretches, and stragglers all in one stream.
STREAM = dict(rate_per_s=60, duration_s=1.2, prompt_len=256,
              prompt_jitter=64, output_tokens=8, output_jitter=6, seed=11)
STATIC = StaticBatchPolicy(max_batch_size=6, max_wait_ns=40e6)
CONTINUOUS = ContinuousBatchPolicy(max_active=8)
PRIORITY = PriorityPolicy(interactive_batch=2, bulk_batch=16)


def stream():
    return poisson_requests(**STREAM)


def classified(requests):
    """Every fourth request interactive, the rest bulk."""
    return [ClassifiedRequest(
        request=request,
        request_class=(RequestClass.INTERACTIVE if request.request_id % 4 == 0
                       else RequestClass.BULK))
        for request in requests]


def rows(outcomes):
    """Outcome rows as the fixture stores them (JSON round-tripped)."""
    return json.loads(json.dumps(
        [(o.request.request_id, o.ttft_ns, o.completion_ns, o.batch_size,
          o.queue_ns) for o in outcomes]))


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text())


def test_static_batching_matches_legacy_exactly(frozen):
    sim = simulate_static_batching(stream(), GPT2, LatencyModel(INTEL_H100),
                                   STATIC)
    assert rows(sim.outcomes) == frozen["static"]


def test_continuous_batching_matches_legacy_exactly(frozen):
    sim = simulate_continuous_batching(stream(), GPT2,
                                       LatencyModel(INTEL_H100), CONTINUOUS)
    assert rows(sim.outcomes) == frozen["continuous"]


def test_priority_matches_legacy_except_bulk_overcharge(frozen):
    sim = simulate_priority_scheduling(classified(stream()), GPT2,
                                       LatencyModel(GH200), PRIORITY)
    for kind, report in (("interactive", sim.interactive),
                         ("bulk", sim.bulk)):
        ours = rows(report.outcomes)
        theirs = frozen[f"priority_{kind}"]
        assert [row[:2] + row[3:] for row in ours] == (
            [row[:2] + row[3:] for row in theirs])
        # The fix can only move completions earlier, never later.
        assert all(mine[2] <= legacy[2]
                   for mine, legacy in zip(ours, theirs))
