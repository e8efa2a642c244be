"""Self-hosting: SKIP analyzes the simulator's own serving traces.

The acceptance path of the observability layer: a ``repro.serving``
continuous-batching simulation records itself, exports a Chrome trace, and
SKIP's depgraph/metrics/classification/fusion pipeline runs on that file
unmodified — both through the library API and the CLI
(``repro serve ... --emit-trace out.json && repro skip analyze out.json``).
"""

import pytest

from repro.cli import main
from repro.hardware import INTEL_H100
from repro.obs import RunRecorder, recording_to_trace
from repro.serving import (
    ContinuousBatchPolicy,
    LatencyModel,
    poisson_requests,
    simulate_continuous_batching,
)
from repro.skip import (
    Boundedness,
    DependencyGraph,
    analyze_trace,
    classify_metrics,
    compute_metrics,
)
from repro.trace import chrome
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def serving_trace_file(tmp_path_factory):
    latency = LatencyModel(INTEL_H100)
    requests = poisson_requests(rate_per_s=30, duration_s=0.25,
                                prompt_len=64, output_tokens=4, seed=7)
    recorder = RunRecorder()
    simulate_continuous_batching(
        requests, GPT2, latency, ContinuousBatchPolicy(max_active=4),
        recorder=recorder)
    path = tmp_path_factory.mktemp("obs") / "serving.json"
    chrome.dump(recording_to_trace(recorder, latency, GPT2), path)
    return path


def test_skip_pipeline_runs_on_serving_trace(serving_trace_file):
    trace = chrome.load(serving_trace_file)
    assert DependencyGraph.from_trace(trace).launches
    metrics = compute_metrics(trace)
    assert metrics.tklqt_ns > 0
    assert metrics.akd_ns > 0
    assert metrics.kernel_launches > 0
    assert classify_metrics(metrics) in (Boundedness.CPU_BOUND,
                                         Boundedness.GPU_BOUND)
    # GPT-2 BS<=4 prefill/decode on Intel+H100 sits deep in the paper's
    # CPU-bound region; the serving trace must agree with the engine-level
    # classification.
    assert classify_metrics(metrics) is Boundedness.CPU_BOUND


def test_fusion_mining_runs_on_serving_trace(serving_trace_file):
    trace = chrome.load(serving_trace_file)
    analyses = analyze_trace(trace, lengths=(2, 4))
    assert all(a.ideal_speedup >= 1.0 for a in analyses)
    assert any(a.total_instances > 0 for a in analyses)


def test_cli_serve_emit_then_skip_analyze(tmp_path, capsys):
    """The documented two-command self-hosting flow."""
    out = tmp_path / "run.json"
    code = main(["serve", "--rate", "20", "--duration", "0.2",
                 "--prompt-len", "64", "--output-tokens", "3",
                 "--emit-trace", str(out)])
    serve_out = capsys.readouterr().out
    assert code == 0
    assert out.exists()
    assert "TTFT" in serve_out

    code = main(["skip", "analyze", str(out)])
    analyze_out = capsys.readouterr().out
    assert code == 0
    assert "TKLQT" in analyze_out
    assert "classification" in analyze_out
    assert "repro.obs" in analyze_out  # provenance metadata survived
