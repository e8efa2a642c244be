"""End-to-end simulator benchmark: four workloads, host time and results.

Usage::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--out PATH]
    python3 benchmarks/e2e/run.py --workload NAME [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH]

Without ``--workload`` the command makes 5 timed runs of every workload,
round-robin so that a slow spell on the machine spreads over all of them,
then one traced run per workload, and prints every metric. With
``--workload`` it runs that workload alone: timed runs for ``--seconds``
(5 runs when omitted) and, with ``--trace 1``, one traced run first. The
last line of its output is then one JSON object: the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
``BENCHMARK.json``.

Every run is a fresh single-threaded process (``worker.py``), so caches
start cold. Output checks run after the timed call in every run; a run
that raises, fails a check, or produces a digest that differs from the
other runs' counts as failed, and the command exits 1. The default seed is
1; seed 2 is held out for verifying claims.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
FULL_REPEATS = 5
#: A worker that has not finished by then is stuck, not slow (a full-size
#: run takes seconds).
WORKER_TIMEOUT_S = 150

Runner = Callable[[str, int, bool, "str | None"], dict]


def spawn(name: str, seed: int, trace: bool,
          spans_path: str | None = None) -> dict:
    """Run ``worker.py`` for one run in a fresh single-threaded process."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    args = [sys.executable, str(HERE / "worker.py"), name, str(seed),
            "1" if trace else "0", repr(spawned_at)]
    if spans_path:
        args.append(spans_path)
    try:
        proc = subprocess.run(args, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"workload": name, "sent": 0, "completed": 0,
                "failures": [f"worker timed out after {WORKER_TIMEOUT_S}s"]}
    error = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"workload": name, "sent": 0, "completed": 0,
                "failures": [error]}
    if proc.returncode != 0:
        record["failures"].append(error)
    return record


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def failed_runs(records: list[dict]) -> list[bool]:
    """Per record: did it raise, fail a check, or disagree on the digest?

    The digest every run must match is the most common one.
    """
    digests = Counter(r["digest"] for r in records if "digest" in r)
    expected = digests.most_common(1)[0][0] if digests else None
    return [bool(r["failures"]) or "digest" not in r
            or r["digest"] != expected for r in records]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of ``values``."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def end_to_end(timed: list[dict], failed: list[bool]) -> dict:
    """Every end-to-end metric as ``{name: [values over the timed runs]}``.

    ``failed`` covers every run made, the traced one included.
    """
    timed = [r for r in timed if "wall_s" in r]
    values: dict[str, list[float]] = {
        name: [r[name] for r in timed]
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")}
    values["ns_per_sim_token"] = [r["wall_s"] * 1e9 / r["sim_tokens"]
                                  for r in timed if "sim_tokens" in r]
    values["pass_share"] = [1.0 - sum(failed) / len(failed)]
    values["sim_slo_attain"] = [r["sim"]["sim_slo_attain"]
                                for r in timed if "sim" in r][:1]
    return values


def per_layer(traced: dict, timed: list[dict]) -> dict[str, float]:
    """Layer metrics of the traced run, its simulated results, and the
    tracing overhead against the untraced median."""
    layers = dict(traced.get("layers", {}))
    layers.update(traced.get("sim", {}))
    walls = [r["wall_s"] for r in timed if "wall_s" in r]
    if "wall_s" in traced and walls:
        layers["trace.overhead_s"] = (traced["wall_s"]
                                      - statistics.median(walls))
    return layers


def request_counts(records: list[dict], failed: list[bool]) -> tuple[int, int]:
    """(attempted, failed) requests — grid points for the sweep — over all
    runs. A failed run counts all its requests as failed."""
    attempted = failures = 0
    for record, bad in zip(records, failed):
        sent = max(1, record["sent"])
        attempted += sent
        failures += sent if bad else sent - record["completed"]
    return attempted, failures


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float | None, trace: bool,
            runner: Runner = spawn,
            spans_path: str | None = None) -> tuple[list[dict], dict | None]:
    """Timed runs of one workload (plus a traced one first, if asked).

    With ``seconds`` set, timed runs continue while another one of the
    mean duration so far still fits; at least one always runs.
    """
    start = time.monotonic()
    traced = runner(name, seed, True, spans_path) if trace else None
    timed: list[dict] = []
    while True:
        timed.append(runner(name, seed, False, None))
        elapsed = time.monotonic() - start
        if seconds is None:
            if len(timed) == FULL_REPEATS:
                break
        elif elapsed + elapsed / (len(timed) + trace) > seconds:
            break
    return timed, traced


def measure_all(seed: int, runner: Runner = spawn,
                spans_path: Callable[[str], str | None] = lambda name: None,
                ) -> dict[str, tuple[list[dict], dict]]:
    """Round-robin timed runs of every workload, then one traced run each."""
    names = [w["name"] for w in load_spec()["workloads"]]
    timed: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(FULL_REPEATS):
        for name in names:
            timed[name].append(runner(name, seed, False, None))
    return {name: (timed[name], runner(name, seed, True, spans_path(name)))
            for name in names}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def report(name: str, timed: list[dict], traced: dict | None,
           spec: dict) -> tuple[list[str], dict]:
    """Human-readable lines plus a JSON-ready summary of one workload."""
    records = timed + ([traced] if traced is not None else [])
    failed = failed_runs(records)
    attempted, failures = request_counts(records, failed)
    completed = sum(r["completed"] for r in records)
    digests = sorted({r["digest"] for r in records if "digest" in r})
    lines = [f"== {name} (seed {timed[0].get('seed')}) ==",
             f"requests  sent {attempted}  completed {completed}  "
             f"failed {failures}  (over {len(records)} runs, "
             f"{sum(failed)} failed)",
             f"digest    {' '.join(digests) or '-'}"]
    for record, bad in zip(records, failed):
        for failure in record["failures"] if bad else ():
            lines.append(f"FAILED    {failure.strip()}")
    summary: dict = {"attempted": attempted, "failed": failures,
                     "runs": len(records), "failed_runs": sum(failed),
                     "digests": digests, "end_to_end": {}, "per_layer": {}}
    values = end_to_end(timed, failed)
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        if not series:
            continue
        median, iqr = spread(series)
        summary["end_to_end"][metric["name"]] = {
            "value": median, "unit": metric["unit"], "iqr": iqr,
            "n": len(series), "values": series}
        lines.append(f"{metric['name']:<28} {median:>14.6g} "
                     f"{metric['unit']:<10} IQR {iqr:.4g}  n={len(series)}")
    if traced is not None and "layers" in traced:
        layers = per_layer(traced, timed)
        lines.append("-- per layer (traced run) --")
        for metric in spec["per_layer"]:
            value = layers.get(metric["name"], 0.0)
            summary["per_layer"][metric["name"]] = {
                "value": value, "unit": metric["unit"]}
            lines.append(f"{metric['name']:<28} {value:>14.6g} "
                         f"{metric['unit']}")
    summary["correct"] = not any(failed)
    return lines, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end simulator benchmark (see README.md)")
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all, round-robin)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-run budget for --workload "
                             "(default: 5 runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="write the full report (JSON) here, and each "
                             "traced run's spans next to it")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"run.py: needs {ROOT / 'src' / 'repro'} and {SPEC_PATH}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    def spans_path(name: str) -> str | None:
        if args.out is None:
            return None
        return str(Path(args.out).with_suffix(f".{name}.spans.json"))

    if args.workload is None:
        results = measure_all(args.seed, spans_path=spans_path)
    elif args.workload in names:
        trace = bool(args.trace)
        results = {args.workload: measure(
            args.workload, args.seed, args.seconds, trace,
            spans_path=spans_path(args.workload))}
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(names)}")

    summaries = {}
    for name, (timed, traced) in results.items():
        lines, summaries[name] = report(name, timed, traced, spec)
        print("\n".join(lines))
    correct = all(s["correct"] for s in summaries.values())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "correct": correct,
                       "workloads": summaries}, fh, indent=1)
    if args.workload is not None:
        summary = summaries[args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": correct, "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in summary[section].items()}}))
    else:
        print("result:", "all checks passed" if correct else "FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
