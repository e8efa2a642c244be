"""Documentation stays consistent with the code it describes."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_design_lists_existing_benchmarks():
    text = _read("DESIGN.md")
    for match in re.findall(r"`(benchmarks/bench_\w+\.py)`", text):
        assert (ROOT / match).exists(), match


def test_every_benchmark_is_listed_in_design():
    text = _read("DESIGN.md")
    for path in (ROOT / "benchmarks").glob("bench_*.py"):
        assert f"benchmarks/{path.name}" in text, (
            f"{path.name} missing from DESIGN.md's experiment index")


def test_readme_examples_exist():
    text = _read("README.md")
    for match in re.findall(r"python (examples/\w+\.py)", text):
        assert (ROOT / match).exists(), match


def test_experiments_references_existing_benches():
    text = _read("EXPERIMENTS.md")
    for match in re.findall(r"`(benchmarks/bench_\w+\.py)`", text):
        assert (ROOT / match).exists(), match


def test_design_module_map_matches_source_tree():
    text = _read("DESIGN.md")
    for match in re.findall(r"^\s{4}(\w+\.py)\s", text, flags=re.M):
        hits = list((ROOT / "src" / "repro").rglob(match))
        assert hits, f"DESIGN.md lists {match} but no such module exists"


def test_paper_check_is_documented():
    # The task requires confirming the paper text matched; DESIGN.md records
    # that check.
    assert "matches the stated title" in _read("DESIGN.md")


def test_calibration_doc_mentions_all_knobs():
    text = _read("docs/calibration.md")
    for token in ("dispatch score", "sustain", "ramp_flops", "Table V"):
        assert token in text


def test_observability_doc_matches_api():
    text = _read("docs/observability.md")
    import repro.obs as obs
    for name in ("RunRecorder", "recording_to_trace", "EngineShape",
                 "StepEvent", "RequestSpan"):
        assert name in text
        assert hasattr(obs, name), name
    assert "repro serve" in text and "skip analyze" in text


def test_readme_mentions_emit_trace_quickstart():
    text = _read("README.md")
    assert "--emit-trace" in text
    assert "docs/observability.md" in text
    assert (ROOT / "docs/observability.md").exists()


def test_static_analysis_doc_covers_every_rule():
    """Every registered check rule is documented, and vice versa.

    K-rules are tabled in docs/kvcache.md, R-rules in docs/cluster.md,
    and N-rules in docs/host.md, next to the subsystems they verify;
    everything else lives in docs/static-analysis.md.
    """
    from repro.check import RULES

    text = (_read("docs/static-analysis.md") + _read("docs/kvcache.md")
            + _read("docs/cluster.md") + _read("docs/host.md"))
    documented = set(re.findall(r"^\| ([GSTCKHRN]\d{3}) \|", text,
                                re.MULTILINE))
    assert documented == set(RULES)


def test_static_analysis_doc_is_linked():
    assert "static-analysis.md" in _read("README.md")
    assert "static-analysis.md" in _read("docs/architecture.md")
    assert (ROOT / "docs/static-analysis.md").exists()


def test_serving_doc_matches_api():
    text = _read("docs/serving.md")
    import repro.serving as serving
    for name in ("ServingRuntime", "AdmissionQueue", "EngineSession",
                 "simulate_serving", "queue_delay_ns",
                 "measured_retrieval_ns"):
        assert name in text
        assert hasattr(serving, name), name
    for fixture in ("legacy_parity_rows.json", "legacy_corpus_rows.json",
                    "legacy_engine_digests.json"):
        assert fixture in text, fixture
        assert (ROOT / "tests/golden/data" / fixture).exists(), fixture
    assert "--replicas" in text
    assert "check schedule --trace" in text


def test_serving_doc_is_linked():
    assert "serving.md" in _read("README.md")
    assert "serving.md" in _read("docs/architecture.md")
    assert "serving.md" in _read("docs/observability.md")
    assert (ROOT / "docs/serving.md").exists()


def test_serving_doc_test_references_exist():
    text = _read("docs/serving.md")
    for match in re.findall(r"`(tests/[\w/]+\.py)`", text):
        assert (ROOT / match).exists(), match


def test_kvcache_doc_matches_api():
    text = _read("docs/kvcache.md")
    import repro.kvcache as kvcache
    for name in ("KvCacheConfig", "KvPolicy", "BlockPool", "KvCacheResource",
                 "KvCacheEvent", "RUNTIME_RESERVE_BYTES"):
        assert name in text
    for name in ("KvCacheConfig", "KvPolicy", "BlockPool", "KvCacheResource",
                 "KvCacheEvent"):
        assert hasattr(kvcache, name), name
    for token in ("--kv-policy", "--kv-pool-gib", "repro kvpressure",
                  "block_tokens", "capacity_blocks"):
        assert token in text, token


def test_kvcache_doc_rule_table_matches_registry():
    """The K-rule table in docs/kvcache.md covers exactly the K rules."""
    from repro.check import RULES

    text = _read("docs/kvcache.md")
    documented = set(re.findall(r"^\| (K\d{3}) \|", text, re.MULTILINE))
    registered = {rule for rule in RULES if rule.startswith("K")}
    assert documented == registered


def test_kvcache_doc_is_linked():
    assert "kvcache.md" in _read("docs/architecture.md")
    assert "kvcache.md" in _read("docs/calibration.md")
    assert "kvcache.md" in _read("README.md")
    assert (ROOT / "docs/kvcache.md").exists()


def test_cluster_doc_matches_api():
    text = _read("docs/cluster.md")
    import repro.serving as serving
    import repro.traffic as traffic
    for name in ("ClusterRuntime", "RouterPolicy", "RouterStats",
                 "AutoscaleConfig", "simulate_cluster", "ClusterRunResult"):
        assert name in text
        assert hasattr(serving, name), name
    for name in ("ArrivalSpec", "TrafficConfig", "PrefixSpec",
                 "generate_traffic", "tag_requests", "arrival_times_ns"):
        assert name in text
        assert hasattr(traffic, name), name
    for token in ("--arrival", "--router", "--prefix-share", "--replicas",
                  "--autoscale-max", "--sessions", "acquire_prefix",
                  "release_prefix", "prefill_cached"):
        assert token in text, token


def test_cluster_doc_rule_table_matches_registry():
    """The R-rule table in docs/cluster.md covers exactly the R rules."""
    from repro.check import RULES

    text = _read("docs/cluster.md")
    documented = set(re.findall(r"^\| (R\d{3}) \|", text, re.MULTILINE))
    registered = {rule for rule in RULES if rule.startswith("R")}
    assert documented == registered


def test_cluster_doc_is_linked():
    assert "cluster.md" in _read("README.md")
    assert "cluster.md" in _read("docs/architecture.md")
    assert "cluster.md" in _read("docs/serving.md")
    assert "cluster.md" in _read("docs/static-analysis.md")
    assert (ROOT / "docs/cluster.md").exists()


def test_cluster_doc_flags_exist():
    """The CLI flags the cluster doc advertises are real."""
    import repro.cli as cli

    parser = cli.build_parser()
    args = parser.parse_args([
        "serve", "--arrival", "bursty", "--rate", "400",
        "--router", "least-loaded", "--replicas", "4",
        "--prefix-share", "0.5", "--prefix-len", "256",
        "--prefix-pool", "4", "--autoscale-max", "8", "--sessions", "16"])
    assert args.arrival == "bursty"
    assert args.router == "least-loaded"
    assert args.prefix_share == 0.5
    assert args.autoscale_max == 8


def test_calibration_doc_covers_kv_capacities():
    text = _read("docs/calibration.md")
    for token in ("memory_gib", "bandwidth_gbs", "transfer_ns"):
        assert token in text, token


def test_observability_doc_covers_multi_replica_export():
    text = _read("docs/observability.md")
    assert "devices_per_replica" in text
    assert "--replicas" in text
    from repro.obs import recording_to_trace
    import inspect
    assert "devices_per_replica" in inspect.signature(
        recording_to_trace).parameters


def test_performance_doc_names_every_benchmark_workload():
    """docs/performance.md names, in backticks, each workload that
    BENCHMARK.json declares."""
    workloads = json.loads(_read("BENCHMARK.json"))["workloads"]
    text = _read("docs/performance.md")
    assert workloads
    for workload in workloads:
        assert f"`{workload['name']}`" in text, (
            f"benchmark workload {workload['name']!r} missing from "
            "docs/performance.md")
    # And no stale workload bullets.
    documented = re.findall(r"^\* `(\w+)` —", text, re.MULTILINE)
    assert set(documented) == {workload["name"] for workload in workloads}


def test_performance_doc_is_linked():
    assert "performance.md" in _read("docs/architecture.md")
    assert "performance.md" in _read("README.md")
    assert (ROOT / "docs/performance.md").exists()


def test_serving_doc_covers_chunked_prefill_and_pp():
    """The planner/PP sections name real API and real CLI flags."""
    import repro.serving as serving
    import repro.cli as cli

    text = _read("docs/serving.md")
    for name in ("StepPlanner", "PlannerConfig", "PromptChunk", "StepPlan"):
        assert name in text, name
        assert hasattr(serving, name), name
    for token in ("--chunk-tokens", "--pp", "max_num_batched_tokens",
                  "S007", "S008", "chunk_budget_sweep"):
        assert token in text, token
    parser = cli.build_parser()
    args = parser.parse_args(["serve", "--chunk-tokens", "256",
                              "--pp", "2", "--pp-microbatches", "2"])
    assert args.chunk_tokens == 256
    assert args.pp == 2 and args.pp_microbatches == 2


def test_host_doc_matches_api():
    text = _read("docs/host.md")
    import repro.host as host
    import repro.hardware as hardware
    for name in ("HostSpec", "HOST_SPECS", "host_for"):
        assert name in text
        assert hasattr(hardware, name), name
    for name in ("CpuPool", "CoreGrant", "HostModel", "HostConfig",
                 "HostStats"):
        assert name in text
        assert hasattr(host, name), name
    import repro.analysis as analysis
    for name in ("run_replicas_per_host", "scaled_host_spec"):
        assert name in text
        assert hasattr(analysis, name), name
    for token in ("--host-cores", "--numa", "--pin", "repro hostsweep",
                  "remote_penalty", "cpu_utilization", "host-contention"):
        assert token in text, token


def test_host_doc_rule_table_matches_registry():
    """The N-rule table in docs/host.md covers exactly the N rules."""
    from repro.check import RULES

    text = _read("docs/host.md")
    documented = set(re.findall(r"^\| (N\d{3}) \|", text, re.MULTILINE))
    registered = {rule for rule in RULES if rule.startswith("N")}
    assert documented == registered


def test_host_doc_is_linked():
    assert "host.md" in _read("README.md")
    assert "host.md" in _read("docs/architecture.md")
    assert "host.md" in _read("docs/serving.md")
    assert "host.md" in _read("docs/static-analysis.md")
    assert "host.md" in _read("docs/performance.md")
    assert (ROOT / "docs/host.md").exists()


def test_host_doc_flags_exist():
    """The CLI flags the host doc advertises are real."""
    import repro.cli as cli

    parser = cli.build_parser()
    args = parser.parse_args([
        "serve", "--replicas", "4", "--host-cores", "8",
        "--numa", "1", "--pin"])
    assert args.host_cores == 8
    assert args.numa == 1 and args.pin
    sweep = parser.parse_args(["hostsweep", "--scale", "8",
                               "--knee-fraction", "0.4"])
    assert sweep.scale == 8
    assert sweep.knee_fraction == 0.4


def test_host_doc_test_references_exist():
    text = _read("docs/host.md")
    for match in re.findall(r"`(tests/[\w/]+\.py)`", text):
        assert (ROOT / match).exists(), match


def test_performance_doc_flags_exist():
    """The CLI flags the performance doc advertises are real."""
    import repro.cli as cli

    text = _read("docs/performance.md")
    assert "--jobs" in text and "--record-sample" in text
    parser = cli.build_parser()
    assert parser.parse_args(["sweep", "--jobs", "4"]).jobs == 4
    assert parser.parse_args(
        ["serve", "--record-sample", "8"]).record_sample == 8
