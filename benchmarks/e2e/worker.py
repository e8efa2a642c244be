"""One benchmark run in a fresh process: set up, time the call, check.

Usage::

    python benchmarks/e2e/worker.py WORKLOAD SEED TRACE SPAWNED_AT [SPANS]

``run.py`` spawns this script once per run, so the lowering cache and the
``LatencyModel`` caches start cold, as they do for every ``repro serve`` or
``repro run``. ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before the spawn; set-up time runs from there to the start of the timed
call. With ``TRACE`` 1 the layer tracer is installed before the inputs are
generated, and ``SPANS`` (optional) receives the recorded spans. The run's
record is printed as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def run_once(name: str, seed: int, trace: bool = False, scale: float = 1.0,
             spawned_at: float | None = None,
             spans_path: str | None = None) -> dict:
    """Run ``name`` once in this process and return its record.

    ``scale`` < 1 shrinks the workload (the self-tests use it). A run that
    raises returns a record whose ``failures`` hold the traceback.
    """
    start = time.monotonic() if spawned_at is None else spawned_at
    import workloads
    from repro.engine.cache import LOWERING_CACHE
    from tracing import Tracer

    record: dict = {"workload": name, "seed": seed, "trace": trace,
                    "sent": 0, "completed": 0, "failures": []}
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            setup = workloads.prepare(name, seed, scale)
            record["sent"] = setup.sent
            stats = LOWERING_CACHE.stats
            lowerings = (stats.lowering_hits, stats.lowering_misses)
            call_start = time.monotonic()
            wall = time.perf_counter()
            cpu = time.process_time()
            with tracer.root() if tracer is not None else nullcontext():
                result = setup.call()
            record["wall_s"] = time.perf_counter() - wall
            record["cpu_s"] = time.process_time() - cpu
            record["setup_s"] = call_start - start
            # ru_maxrss is in KiB on Linux.
            record["peak_rss_mib"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            hits = stats.lowering_hits - lowerings[0]
            misses = stats.lowering_misses - lowerings[1]
        finally:
            if tracer is not None:
                tracer.uninstall()
        evaluation = setup.evaluate(result)
    except Exception:
        record["failures"].append(traceback.format_exc())
        return record
    layers = dict(evaluation.layers)
    layers["engine.lowering_hit_ratio"] = (hits / (hits + misses)
                                           if hits + misses else 0.0)
    if tracer is not None:
        layers.update(tracer.layer_totals())
        if spans_path:
            tracer.dump(spans_path)
    record.update(completed=evaluation.completed,
                  sim_tokens=evaluation.sim_tokens, digest=evaluation.digest,
                  sim=evaluation.sim, layers=layers,
                  failures=evaluation.failures)
    return record


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5):
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, trace, spawned_at = argv[:4]
    record = run_once(name, int(seed), trace == "1",
                      spawned_at=float(spawned_at),
                      spans_path=argv[4] if len(argv) == 5 else None)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        print(f"worker: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    raise SystemExit(main(sys.argv[1:]))
