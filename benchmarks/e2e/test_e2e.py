"""Self-tests of the end-to-end benchmark (run at a reduced size).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Workloads run in-process through ``worker.run_once`` at ``SCALE``, the
size only these tests set; the command line always runs full size.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

SCALE = 0.05
SERVING = ("chat_decode", "kv_longprompt", "cluster_prefix")
SPEC = run.load_spec()


def in_process(name, seed, trace, spans_path=None):
    return worker.run_once(name, seed, trace, scale=SCALE,
                           spans_path=spans_path)


@pytest.fixture(scope="module")
def full_set():
    """One reduced full set: timed runs of every workload, then traced."""
    saved = run.FULL_REPEATS
    run.FULL_REPEATS = 2
    try:
        results = run.measure_all(1, runner=in_process)
    finally:
        run.FULL_REPEATS = saved
    return {name: (timed, traced, *run.report(name, timed, traced, SPEC))
            for name, (timed, traced) in results.items()}


def test_spec_names_the_code_workloads():
    assert ([w["name"] for w in SPEC["workloads"]]
            == list(workloads.WORKLOADS))
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert SPEC["paths"] == [str(Path(run.__file__).parent.relative_to(
        run.ROOT))]


def test_every_metric_is_printed_with_its_unit(full_set):
    for name, (_, _, lines, summary) in full_set.items():
        assert summary["correct"], (name, lines)
        text = "\n".join(lines)
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                assert metric["name"] in summary[section], (name, metric)
                line = next(row for row in lines
                            if row.split()[0] == metric["name"])
                assert line.split()[2] == metric["unit"], line
        assert "sent" in text and "completed" in text and "failed" in text
        for metric in SPEC["end_to_end"]:
            assert summary["end_to_end"][metric["name"]]["value"] != 0, (
                name, metric["name"])


def test_every_layer_metric_is_measured_somewhere(full_set):
    produced = set()
    for _, traced, _, _ in full_set.values():
        produced |= set(traced["layers"]) | set(traced["sim"])
    produced.add("trace.overhead_s")
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in produced]
    assert not missing


def test_layer_self_times_fit_inside_the_traced_wall(full_set):
    for name, (_, traced, _, _) in full_set.items():
        layers = traced["layers"]
        self_times = {k: v for k, v in layers.items() if k.endswith("self_s")}
        assert all(v >= 0 for v in self_times.values()), (name, self_times)
        # Traffic generation runs before the timed call, outside its root.
        inside = (sum(v for k, v in self_times.items()
                      if k != "traffic.self_s")
                  + layers["trace.unattributed_s"])
        assert inside <= traced["wall_s"] + 1e-6, name


def test_latency_misses_are_the_engine_runs_under_latency_spans():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup = workloads.prepare("cluster_prefix", 1, SCALE)
        with tracer.root():
            setup.call()
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    model = setup.latency
    assert totals["latency.misses"] == (len(model._ttft_cache)
                                        + len(model._decode_cache))
    assert 0 < totals["latency.misses"] < totals["latency.calls"]


def test_tracing_is_removed_and_changes_no_output():
    from repro.engine import executor
    from repro.serving import latency
    from repro.sim.core import SimCore

    core_run, engine_run = SimCore.run, executor.run
    traced = in_process("kv_longprompt", 1, True)
    assert SimCore.run is core_run
    assert executor.run is engine_run and latency.run is engine_run
    assert traced["digest"] == in_process("kv_longprompt", 1, False)["digest"]


def test_dropped_outcome_is_a_failure():
    setup = workloads.prepare("chat_decode", 1, SCALE)
    result = setup.call()
    assert not setup.evaluate(result).failures
    result.outcomes.pop()
    assert setup.evaluate(result).failures


def test_changed_digest_is_a_failure():
    record = in_process("cluster_prefix", 1, False)
    other = dict(record, digest="0" * 16)
    failed = run.failed_runs([record, record, other])
    assert failed == [False, False, True]
    _, summary = run.report("cluster_prefix", [record, record, other], None,
                            SPEC)
    assert not summary["correct"]
    assert summary["end_to_end"]["pass_share"]["value"] < 1


@pytest.mark.parametrize("name", SERVING)
def test_both_seeds_pass_and_differ(name):
    first, held_out = in_process(name, 1, False), in_process(name, 2, False)
    assert not first["failures"] and not held_out["failures"]
    assert first["digest"] != held_out["digest"]
    assert (workloads.prepare(name, 1, SCALE).requests
            != workloads.prepare(name, 2, SCALE).requests)


def test_needs_the_program_source(tmp_path):
    """Given only BENCHMARK.json and the benchmark, the command fails fast."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "chat_decode",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
