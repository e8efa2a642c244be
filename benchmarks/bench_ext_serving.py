"""Extension — static vs continuous batching under one arrival stream.

Section IV-B cites vLLM's continuous batching as the way to "maximize
throughput while approaching the low latency characteristic of BS=1". This
bench quantifies that claim with the engine-backed serving loop.
"""

from _harness import report, run_once
from repro.hardware import INTEL_H100
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    StaticBatchPolicy,
    poisson_requests,
    simulate_serving,
)
from repro.units import ns_to_ms
from repro.viz import render_table
from repro.workloads import GPT2


def _compare():
    latency = LatencyModel(INTEL_H100)
    stream = poisson_requests(rate_per_s=40, duration_s=2.0, prompt_len=256,
                              output_tokens=16, seed=5)
    static_1 = simulate_serving(
        stream, GPT2, latency, StaticBatchPolicy(max_batch_size=1)).report
    static_16 = simulate_serving(
        stream, GPT2, latency,
        StaticBatchPolicy(max_batch_size=16, max_wait_ns=100e6)).report
    continuous = simulate_serving(
        stream, GPT2, latency, ContinuousBatchPolicy(max_active=16)).report
    return {"static BS=1": static_1, "static BS<=16": static_16,
            "continuous (16)": continuous}


def test_ext_static_vs_continuous(benchmark):
    reports = run_once(benchmark, _compare)
    rows = []
    for name, serving in reports.items():
        rows.append([
            name,
            f"{ns_to_ms(serving.mean_ttft_ns()):.1f}",
            f"{ns_to_ms(serving.p99_ttft_ns()):.1f}",
            f"{serving.throughput_tokens_per_s():.0f}",
        ])
    report(render_table(
        ["policy", "mean TTFT (ms)", "p99 TTFT (ms)", "tokens/s"],
        rows, title="Extension: GPT-2 serving on Intel+H100, 40 req/s"))

    static_16 = reports["static BS<=16"]
    continuous = reports["continuous (16)"]
    # Continuous batching beats same-capacity static batching on latency
    # without giving up throughput.
    assert continuous.mean_ttft_ns() < static_16.mean_ttft_ns()
    assert (continuous.throughput_tokens_per_s()
            >= 0.8 * static_16.throughput_tokens_per_s())
