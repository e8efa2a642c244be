"""Simulator performance harness: events/sec and wall-time per token.

Runs three canonical scenarios spanning the simulator's main workloads:

* ``single_run`` — one SKIP profile (eager llama-3.2-1b, BS=8, 3 iters);
* ``tp_sweep`` — a tensor-parallel sweep over degrees 1/2/4/8 with
  per-device dispatch threads (the heaviest engine shape);
* ``serve_kv_offload`` — a 4-replica continuous-batching serve under KV
  pressure with offload swaps, recorder attached;
* ``serve_chunked`` — chunked-prefill continuous batching over the mixed
  long-prompt stream (the stall-free-scheduling workload: budget-sized
  prompt chunks interleave with decodes, ~3x the engine steps of the
  whole-prompt run);
* ``serve_cluster`` — the routed cluster stack end to end: a bursty
  generated stream through the least-loaded router onto 4 replicas with
  copy-on-write prefix caching (router process + per-replica queues on
  top of the continuous-batching engine);
* ``serve_host_contention`` — the cluster stack on a finite host: 4
  replicas plus the router contending for a 4-core AMD+A100 pool, every
  engine step booking its dispatch-CPU share through ``repro.host``.

Each scenario reports:

* **wall_s** — best-of-N wall time;
* **ns_per_token** — wall nanoseconds per simulated token;
* **sim_events** — :data:`repro.sim.core.EVENTS_TOTAL` delta (scheduler
  events processed — an implementation-independent work measure);
* **events_per_sec** — sim_events / wall_s.

``BEFORE_BASELINES`` holds the wall times of the same scenario definitions
measured on the tree *before* the fast paths (lowering cache, tape metrics,
slimmed event loop, sampled recording) landed. Those fast paths change
per-event cost, never which events the processes schedule. The scalar
pricing pass (:mod:`repro.engine.pricing`) does change the count: a
single-GPU eager ``LatencyModel`` miss is a priced engine call that
simulates nothing, so the three eager serve scenarios lose their
engine-run events (full size:
``serve_chunked`` 411 → 227, ``serve_cluster`` 801 → 593,
``serve_host_contention`` 471 → 451). ``serve_kv_offload`` prices through
CUDA-graph replay and keeps its 14,217. ``BEFORE_EVENTS`` holds the
earlier counts, so the before events/sec is ``before_event_count /
before_wall``, with today's count wherever none is recorded.

Usage::

    python -m repro.perf.harness            # full run, BENCH_simperf.json
    python -m repro.perf.harness --quick    # CI smoke: small shapes, no
                                            # before/after comparison
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass

#: Wall seconds per scenario measured pre-optimization (same definitions,
#: best of 3) — the denominator of this PR's speedup column.
BEFORE_BASELINES: dict[str, float] = {
    "single_run": 0.0224,
    "tp_sweep": 0.305,
    "serve_kv_offload": 0.5896,
    # serve_chunked and serve_cluster postdate the fast-path PR, so their
    # befores were measured on this tree with the same paths forced off
    # (lowering cache disabled, full unsampled recording), best of 3.
    "serve_chunked": 0.4305,
    "serve_cluster": 0.3197,
    # serve_host_contention postdates everything above; its before is the
    # scenario's wall on the tree that introduced repro.host, best of 3
    # (the column tracks regressions from here on, not a speedup story).
    "serve_host_contention": 0.0358,
}

#: Scheduler events per full-size scenario on the trees the baselines
#: were measured on, where today's count differs (see the module
#: docstring): the engine runs behind eager serving lookups.
BEFORE_EVENTS: dict[str, int] = {
    "serve_chunked": 411,
    "serve_cluster": 801,
    "serve_host_contention": 471,
}

#: Canonical scenario names, in run order. docs/performance.md documents
#: each by name (a docs-lock test holds the two lists together).
SCENARIO_NAMES: tuple[str, ...] = (
    "single_run", "tp_sweep", "serve_kv_offload", "serve_chunked",
    "serve_cluster", "serve_host_contention")


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's measurement."""

    name: str
    wall_s: float
    simulated_tokens: int
    sim_events: int

    @property
    def ns_per_token(self) -> float:
        return self.wall_s * 1e9 / self.simulated_tokens

    @property
    def events_per_sec(self) -> float:
        return self.sim_events / self.wall_s


def _scenario_single_run(quick: bool) -> int:
    from repro.engine import EngineConfig, ExecutionMode
    from repro.hardware import get_platform
    from repro.skip import SkipProfiler
    from repro.workloads import get_model

    iterations = 1 if quick else 3
    batch = 4 if quick else 8
    seq = 256 if quick else 512
    profiler = SkipProfiler(get_platform("Intel+H100"),
                            EngineConfig(iterations=iterations))
    result = profiler.profile(get_model("llama-3.2-1b"), batch_size=batch,
                              seq_len=seq, mode=ExecutionMode.EAGER)
    assert result.metrics.tklqt_ns > 0
    return batch * seq * iterations


def _scenario_tp_sweep(quick: bool) -> int:
    from repro.analysis.tpsweep import run_tp_sweep
    from repro.engine import DispatchMode, EngineConfig
    from repro.hardware import get_platform
    from repro.workloads import get_model

    degrees = (1, 2) if quick else (1, 2, 4, 8)
    iterations = 1 if quick else 2
    seq = 256 if quick else 512
    sweep = run_tp_sweep(get_model("llama-3.2-1b"),
                         get_platform("Intel+H100"), batch_size=8,
                         degrees=degrees, seq_len=seq,
                         dispatch=DispatchMode.THREAD_PER_DEVICE,
                         engine_config=EngineConfig(iterations=iterations))
    assert sweep.best_degree() >= 1
    return 8 * seq * iterations * len(sweep.points)


def _scenario_serve_kv_offload(quick: bool) -> int:
    from repro.engine import ExecutionMode
    from repro.hardware import get_platform
    from repro.kvcache import KvCacheConfig, KvPolicy
    from repro.obs import RunRecorder
    from repro.serving import (
        ContinuousBatchPolicy,
        LatencyModel,
        poisson_requests,
        simulate_serving,
    )
    from repro.workloads import get_model

    rate = 40.0 if quick else 200.0
    duration = 0.3 if quick else 1.0
    output_tokens = 128
    requests = poisson_requests(rate_per_s=rate, duration_s=duration,
                                prompt_len=512, output_tokens=output_tokens,
                                seed=11)
    latency = LatencyModel(platform=get_platform("GH200"),
                           mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD)
    # Sampled recording is one of the measured fast paths: 1-in-8 requests
    # keep full spans while every aggregate stays exact (parity-locked by
    # the sampling property tests). The before baseline recorded everything.
    recorder = RunRecorder(sample_every=8)
    run = simulate_serving(requests, get_model("gpt2"), latency,
                           policy=ContinuousBatchPolicy(max_active=8),
                           replicas=4, recorder=recorder,
                           kv=KvCacheConfig(policy=KvPolicy.OFFLOAD,
                                            pool_gib=0.04))
    assert sum(s.swap_out_events for s in run.kv) > 0, "scenario must swap"
    assert recorder.aggregates.requests_completed == len(requests)
    return sum(o.request.output_tokens for o in run.outcomes)


def _scenario_serve_chunked(quick: bool) -> int:
    from repro.analysis.pareto import mixed_prompt_requests
    from repro.obs import RunRecorder
    from repro.serving import (
        ContinuousBatchPolicy,
        LatencyModel,
        simulate_serving,
    )
    from repro.hardware import get_platform
    from repro.workloads import get_model

    duration = 0.15 if quick else 0.4
    requests = mixed_prompt_requests(seed=3, duration_s=duration)
    recorder = RunRecorder(sample_every=8)
    run = simulate_serving(
        requests, get_model("gpt2"),
        LatencyModel(platform=get_platform("GH200")),
        policy=ContinuousBatchPolicy(max_active=8, chunk_tokens=256),
        recorder=recorder)
    chunk_steps = recorder.counters.as_dict().get("steps_prefill_chunk", 0)
    assert chunk_steps > 0, "scenario must actually chunk prompts"
    assert recorder.aggregates.requests_completed == len(requests)
    return sum(o.request.output_tokens for o in run.outcomes)


def _scenario_serve_cluster(quick: bool, sample_every: int = 8) -> int:
    from repro.hardware import get_platform
    from repro.kvcache import KvCacheConfig, KvPolicy
    from repro.obs import RunRecorder
    from repro.serving import ContinuousBatchPolicy, LatencyModel
    from repro.serving.cluster import simulate_cluster
    from repro.traffic import (
        ArrivalFamily,
        ArrivalSpec,
        PrefixSpec,
        TrafficConfig,
        generate_traffic,
    )
    from repro.workloads import get_model

    rate = 400.0 if quick else 1200.0
    duration = 0.05 if quick else 0.15
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY, rate_per_s=rate,
                             duration_s=duration, seed=7),
        prompt_len=256, prompt_jitter=64, output_tokens=24, output_jitter=8,
        prefix=PrefixSpec(share=0.5, prefix_len=128, pool=2), sessions=6))
    recorder = RunRecorder(sample_every=sample_every)
    run = simulate_cluster(
        requests, get_model("gpt2"),
        LatencyModel(platform=get_platform("GH200")),
        policy=ContinuousBatchPolicy(max_active=8),
        router="least-loaded", replicas=4, recorder=recorder,
        kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True))
    assert run.router is not None and run.router.routed == len(requests)
    assert sum(s.prefix_hits for s in run.kv) > 0, "scenario must share"
    return sum(o.request.output_tokens for o in run.outcomes)


def _scenario_serve_host_contention(quick: bool) -> int:
    from repro.hardware import get_platform
    from repro.host import HostConfig, HostModel
    from repro.obs import RunRecorder
    from repro.serving import (
        ContinuousBatchPolicy,
        LatencyModel,
        poisson_requests,
    )
    from repro.serving.cluster import simulate_cluster
    from repro.workloads import get_model

    rate = 300.0 if quick else 900.0
    duration = 0.05 if quick else 0.15
    requests = poisson_requests(rate_per_s=rate, duration_s=duration,
                                prompt_len=128, output_tokens=16, seed=11)
    recorder = RunRecorder(sample_every=8)
    host = HostModel.for_platform("AMD+A100", replicas=4,
                                  config=HostConfig(cores=4))
    run = simulate_cluster(
        requests, get_model("gpt2"),
        LatencyModel(platform=get_platform("AMD+A100")),
        policy=ContinuousBatchPolicy(max_active=8),
        router="round-robin", replicas=4, recorder=recorder, host=host)
    assert run.host is not None and run.host.stall_ns > 0, \
        "scenario must contend for cores"
    return sum(o.request.output_tokens for o in run.outcomes)


_SCENARIOS = {
    "single_run": _scenario_single_run,
    "tp_sweep": _scenario_tp_sweep,
    "serve_kv_offload": _scenario_serve_kv_offload,
    "serve_chunked": _scenario_serve_chunked,
    "serve_cluster": _scenario_serve_cluster,
    "serve_host_contention": _scenario_serve_host_contention,
}


def _measure(name: str, quick: bool, repeats: int) -> ScenarioResult:
    import repro.sim.core as sim_core

    fn = _SCENARIOS[name]
    best_wall = None
    tokens = 0
    events = 0
    for _ in range(repeats):
        events_before = sim_core.EVENTS_TOTAL
        t0 = time.perf_counter()
        tokens = fn(quick)
        wall = time.perf_counter() - t0
        events = sim_core.EVENTS_TOTAL - events_before
        if best_wall is None or wall < best_wall:
            best_wall = wall
    assert best_wall is not None
    return ScenarioResult(name=name, wall_s=best_wall,
                          simulated_tokens=tokens, sim_events=events)


def run_harness(quick: bool = False, repeats: int | None = None) -> dict:
    """Run every scenario and return the BENCH_simperf payload."""
    if repeats is None:
        repeats = 1 if quick else 3
    scenarios: dict[str, dict] = {}
    for name in SCENARIO_NAMES:
        result = _measure(name, quick, repeats)
        entry: dict = {
            "simulated_tokens": result.simulated_tokens,
            "after": {
                "wall_s": round(result.wall_s, 4),
                "ns_per_token": round(result.ns_per_token, 1),
                "sim_events": result.sim_events,
                "events_per_sec": round(result.events_per_sec, 1),
            },
        }
        if not quick:
            before_wall = BEFORE_BASELINES[name]
            # Only the pricing pass changed which events a scenario
            # schedules (see module docstring); elsewhere the before rate
            # divides today's count by the before wall time.
            before_events = BEFORE_EVENTS.get(name, result.sim_events)
            entry["before"] = {
                "wall_s": before_wall,
                "ns_per_token": round(
                    before_wall * 1e9 / result.simulated_tokens, 1),
                "sim_events": before_events,
                "events_per_sec": round(before_events / before_wall, 1),
            }
            entry["speedup"] = round(before_wall / result.wall_s, 2)
        scenarios[name] = entry
    return {
        "schema": "repro.perf/v1",
        "quick": quick,
        "scenarios": scenarios,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.harness",
        description="measure simulator events/sec and wall-time per token")
    parser.add_argument("--quick", action="store_true",
                        help="small shapes, single repeat, no before/after "
                             "comparison (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="runs per scenario (best wall time wins); "
                             "default 3, or 1 with --quick")
    parser.add_argument("--output", default="BENCH_simperf.json",
                        help="output JSON path (default: %(default)s)")
    args = parser.parse_args(argv)

    payload = run_harness(quick=args.quick, repeats=args.repeats)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, entry in payload["scenarios"].items():
        after = entry["after"]
        line = (f"{name:<18} wall={after['wall_s']:.4f}s "
                f"events/s={after['events_per_sec']:,.0f} "
                f"ns/token={after['ns_per_token']:.0f}")
        if "speedup" in entry:
            line += f" speedup={entry['speedup']:.2f}x"
        print(line)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
