"""Shared fixtures: one small recorded continuous-batching run."""

from __future__ import annotations

import pytest

from repro.hardware import INTEL_H100
from repro.obs import RunRecorder
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    poisson_requests,
    simulate_serving,
)
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def recorded_run():
    """(recorder, latency, report, requests) for a short continuous run."""
    latency = LatencyModel(INTEL_H100)
    requests = poisson_requests(rate_per_s=25, duration_s=0.3, prompt_len=64,
                                output_tokens=4, seed=3)
    recorder = RunRecorder()
    report = simulate_serving(
        requests, GPT2, latency, ContinuousBatchPolicy(max_active=4),
        recorder=recorder).report
    return recorder, latency, report, requests
