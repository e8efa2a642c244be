"""The benchmark's four workloads: inputs from a seed, one timed call, checks.

Each workload is prepared by :func:`prepare` (input generation plus model,
platform and host construction: the benchmark's set-up) and exposes
``call()``, the timed region, and ``evaluate(result)``, which derives the
simulated metrics, a digest of the outputs, and every output-check failure.

Why these four (the benchmark must move on one and hold on another):

* ``skip_sweep`` — the paper's characterization (Figs. 6 and 8): Engine and
  SKIP layers only, no serving layer. Seed-free.
* ``chat_decode`` — long decodes on the closely-coupled GH200. Varied
  prompt lengths keep the ``LatencyModel`` caches mostly cold, so engine
  misses dominate; no KV pool, router or host model.
* ``kv_longprompt`` — a memory-pressured mixed stream on loosely-coupled
  AMD+A100: KV swaps cross PCIe, the planner chunks long prompts, and the
  ``LatencyModel`` is mostly warm, so the per-step layers dominate.
* ``cluster_prefix`` — the routed cluster on a finite host: shared-prefix
  refcount hits in the KV layer, router pushes, contended core grants.

``scale`` shrinks the simulated traffic (and the sweep's model list); only
the self-tests set it, so the command line always runs full size.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

from repro.analysis.pareto import mixed_prompt_requests
from repro.analysis.slo import DEFAULT_SLO_MS
from repro.analysis.sweep import DEFAULT_BATCH_SIZES
from repro.check.clusterrules import check_cluster_metadata
from repro.check.hostrules import check_host_metadata
from repro.check.kvrules import check_kv_metadata
from repro.check.runner import check_serving_schedules
from repro.engine import ExecutionMode
from repro.hardware import get_platform
from repro.host import HostConfig, HostModel
from repro.kvcache import KvCacheConfig, KvPolicy
from repro.obs import RunRecorder
from repro.obs.events import StepKind
from repro.obs.recorder import H_QUEUE_WAIT, H_TBT
from repro.obs.stats import Histogram
from repro.serving import ContinuousBatchPolicy, LatencyModel, simulate_serving
from repro.serving.cluster import simulate_cluster
from repro.serving.requests import poisson_requests
from repro.skip import SkipProfiler
from repro.skip.classify import find_transition
from repro.skip.metrics import SkipMetrics
from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                           TrafficConfig, generate_traffic)
from repro.workloads import PAPER_MODELS, get_model
from repro.workloads.config import ModelConfig

#: Latency limits for ``sim_slo_attain``: the paper's interactive TTFT
#: budget, and a mean gap between tokens a reader still sees as streaming.
TTFT_SLO_NS = DEFAULT_SLO_MS * 1e6
TBT_SLO_NS = 50.0 * 1e6

SWEEP_PLATFORMS = ("AMD+A100", "Intel+H100", "GH200")
SWEEP_SEQ_LEN = 512
#: Fig. 6 transition batch sizes on AMD+A100 / Intel+H100 / GH200.
EXPECTED_TRANSITIONS = {
    "bert-base-uncased": (8, 8, 32),
    "xlm-roberta-base": (8, 8, 32),
    "gpt2": (4, 4, 16),
    "llama-3.2-1b": (2, 2, 8),
}

#: Simulated layer metrics that must be positive, per workload: the
#: mechanism each workload exists to exercise has to engage.
MUST_ENGAGE = {
    "kv_longprompt": ("kvcache.swap_outs",),
    "cluster_prefix": ("kvcache.prefix_hit_ratio", "host.stall_ms_per_grant"),
}


@dataclass
class Evaluation:
    """What one run's outputs say, derived outside the timed region."""

    completed: int
    sim_tokens: int
    digest: str
    sim: dict[str, float]
    layers: dict[str, float]
    failures: list[str] = field(default_factory=list)


def _digest(rows: list[tuple]) -> str:
    # repr() of a float round-trips exactly, so equal digests mean equal rows.
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _percentiles(values, *percents: float) -> list[float]:
    histogram = Histogram("values")
    for value in values:
        histogram.observe(value)
    return [histogram.percentile(p) for p in percents]


def _mean_ms(recorder: RunRecorder, name: str) -> float:
    histogram = recorder.histogram(name)
    return 0.0 if histogram.empty else histogram.mean() / 1e6


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass
class ServingSetup:
    """One serving run: its request stream, model, and runtime options."""

    name: str
    requests: list
    model: ModelConfig
    latency: LatencyModel
    options: dict
    cluster: bool = False
    #: Full recording (``sample_every=1``), as ``repro serve`` records.
    recorder: RunRecorder = field(default_factory=RunRecorder)

    @property
    def sent(self) -> int:
        return len(self.requests)

    def call(self):
        simulate = simulate_cluster if self.cluster else simulate_serving
        return simulate(self.requests, self.model, self.latency,
                        recorder=self.recorder, **self.options)

    def evaluate(self, run) -> Evaluation:
        outcomes = run.outcomes
        recorder = self.recorder
        failures = _conservation(self.requests, outcomes, recorder)
        failures += [f.render() for f in
                     check_serving_schedules(run.sessions).findings]
        failures += _audit(recorder)
        # Simulated span: first arrival to last completion.
        span_ns = (max(o.request.arrival_ns + o.completion_ns
                       for o in outcomes)
                   - min(o.request.arrival_ns for o in outcomes))
        layers = _serving_layers(self, run, span_ns)
        failures += [f"{self.name}: {name} is 0, the mechanism never engaged"
                     for name in MUST_ENGAGE.get(self.name, ())
                     if not layers.get(name, 0) > 0]
        tokens = sum(o.request.output_tokens for o in outcomes)
        rows = sorted((o.request.request_id, o.replica, o.batch_size,
                       o.ttft_ns, o.completion_ns, o.queue_ns)
                      for o in outcomes)
        return Evaluation(completed=len(outcomes),
                          sim_tokens=tokens, digest=_digest(rows),
                          sim=_serving_sim(outcomes, recorder,
                                           tokens / (span_ns / 1e9)),
                          layers=layers, failures=failures)


def _conservation(requests, outcomes, recorder: RunRecorder) -> list[str]:
    ids = [o.request.request_id for o in outcomes]
    failures = []
    if len(ids) != len(requests) or set(ids) != {r.request_id
                                                 for r in requests}:
        failures.append(f"conservation: {len(ids)} outcomes "
                        f"({len(set(ids))} ids) for {len(requests)} requests")
    if len(set(ids)) != len(ids):
        failures.append("conservation: duplicate outcome ids")
    totals = recorder.aggregates
    if totals.requests_completed != len(outcomes):
        failures.append(f"recorder completed {totals.requests_completed} "
                        f"requests, outcomes say {len(outcomes)}")
    decode_tokens = sum(o.request.output_tokens - 1 for o in outcomes)
    if totals.tokens_generated != decode_tokens:
        failures.append(f"recorder generated {totals.tokens_generated} "
                        f"decode tokens, outcomes say {decode_tokens}")
    return failures


def audit_trail(recorder: RunRecorder) -> dict:
    """The ``kv``/``cluster``/``host`` trace-metadata blocks, built exactly
    as :func:`repro.obs.recording_to_trace` builds them (without splicing
    the kernel-level trace, which the rules do not read)."""
    meta: dict = {}
    if recorder.kv_pools or recorder.kv_events:
        meta["kv"] = {
            "pools": {str(replica): dict(info)
                      for replica, info in sorted(recorder.kv_pools.items())},
            "events": [event.to_dict() for event in recorder.kv_events],
        }
    if recorder.cluster_meta or recorder.routing:
        meta["cluster"] = {
            **recorder.cluster_meta,
            "events": [dict(event) for event in recorder.routing],
        }
    if recorder.host_meta:
        meta["host"] = {
            **recorder.host_meta,
            "grants": [dict(grant) for grant in recorder.host_grants],
        }
    return meta


_AUDIT_RULES = {"kv": check_kv_metadata, "cluster": check_cluster_metadata,
                "host": check_host_metadata}


def _audit(recorder: RunRecorder) -> list[str]:
    return [finding.render()
            for key, block in audit_trail(recorder).items()
            for finding in _AUDIT_RULES[key](block)]


def _serving_sim(outcomes, recorder: RunRecorder,
                 tokens_per_s: float) -> dict:
    ttft_p50, ttft_p99 = _percentiles((o.ttft_ns for o in outcomes), 50, 99)
    tbt = recorder.histogram(H_TBT)
    tbt_p50, tbt_p99 = ((0.0, 0.0) if tbt.empty
                        else (tbt.percentile(50), tbt.percentile(99)))

    def within_slo(o) -> bool:
        gaps = o.request.output_tokens - 1
        mean_gap = (o.completion_ns - o.ttft_ns) / gaps if gaps else 0.0
        return o.ttft_ns <= TTFT_SLO_NS and mean_gap <= TBT_SLO_NS

    return {
        "sim_ttft_p50_ms": ttft_p50 / 1e6,
        "sim_ttft_p99_ms": ttft_p99 / 1e6,
        "sim_tbt_p50_ms": tbt_p50 / 1e6,
        "sim_tbt_p99_ms": tbt_p99 / 1e6,
        "sim_tokens_per_s": tokens_per_s,
        "sim_slo_attain": sum(map(within_slo, outcomes)) / len(outcomes),
    }


def _serving_layers(setup: ServingSetup, run,
                    span_ns: float) -> dict[str, float]:
    recorder = setup.recorder
    outcomes = run.outcomes
    counters = recorder.counters.as_dict()
    queue_wait = recorder.histogram(H_QUEUE_WAIT)
    wait_p50, wait_p99 = ((0.0, 0.0) if queue_wait.empty
                          else (queue_wait.percentile(50),
                                queue_wait.percentile(99)))
    decode_batches = [s.batch_size for s in recorder.steps
                      if s.kind is StepKind.DECODE]
    layers = {
        "serving.requests": setup.sent,
        "serving.completed": len(outcomes),
        "serving.queue_wait_p50_ms": wait_p50 / 1e6,
        "serving.queue_wait_p99_ms": wait_p99 / 1e6,
        "serving.decode_batch_mean": (fmean(decode_batches)
                                      if decode_batches else 0.0),
        "serving.decode_step_ms_mean": _mean_ms(recorder, "step_decode_ns"),
        "serving.prefill_step_ms_mean": _mean_ms(recorder, "step_prefill_ns"),
        "serving.gpu_util": fmean(r.utilization for r in run.replicas),
        "serving.cpu_util": fmean(r.cpu_utilization for r in run.replicas),
    }
    for kind in ("decode", "prefill", "prefill_chunk"):
        layers[f"serving.steps_{kind}"] = counters.get(f"steps_{kind}", 0.0)

    kv = run.kv
    hits = sum(s.prefix_hits for s in kv)
    lookups = hits + sum(s.prefix_misses for s in kv)
    layers.update({
        "kvcache.swap_outs": sum(s.swap_out_events for s in kv),
        "kvcache.swap_ms": sum(s.swap_ns for s in kv) / 1e6,
        "kvcache.preemptions": sum(s.preemptions for s in kv),
        "kvcache.prefix_hit_ratio": hits / lookups if lookups else 0.0,
        "kvcache.cow_forks": sum(s.cow_forks for s in kv),
    })

    router = getattr(run, "router", None)
    if router is not None:
        routed = router.routed_per_replica
        layers["router.imbalance"] = max(routed) / fmean(routed)
        layers["router.busy_ms"] = router.router_busy_ns / 1e6

    host = run.host
    if host is not None and host.grants:
        layers.update({
            "host.grants": host.grants,
            "host.remote_share": host.remote_grants / host.grants,
            "host.stall_ms_per_grant": host.stall_ns / 1e6 / host.grants,
            "host.busy_share": host.busy_ns / (host.cores * span_ns),
        })
    return layers


def _chat_decode(seed: int, scale: float) -> ServingSetup:
    requests = poisson_requests(rate_per_s=4.0, duration_s=260.0 * scale,
                                prompt_len=384, prompt_jitter=256,
                                output_tokens=256, output_jitter=192,
                                seed=seed)
    return ServingSetup(
        "chat_decode", requests, get_model("llama-3.2-1b"),
        LatencyModel(platform=get_platform("GH200")),
        dict(policy=ContinuousBatchPolicy(max_active=32)))


def _kv_longprompt(seed: int, scale: float) -> ServingSetup:
    requests = mixed_prompt_requests(seed=seed, duration_s=400.0 * scale,
                                     rate_per_s=12.0, long_rate_per_s=4.0)
    return ServingSetup(
        "kv_longprompt", requests, get_model("gpt2"),
        LatencyModel(platform=get_platform("AMD+A100")),
        dict(policy=ContinuousBatchPolicy(max_active=32, chunk_tokens=256),
             kv=KvCacheConfig(policy=KvPolicy.OFFLOAD, pool_gib=0.14)))


def _cluster_prefix(seed: int, scale: float) -> ServingSetup:
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY, rate_per_s=200.0,
                             duration_s=12.0 * scale, seed=seed),
        prompt_len=512, prompt_jitter=128, output_tokens=32, output_jitter=16,
        prefix=PrefixSpec(share=0.75, prefix_len=384, pool=4),
        sessions=16, tenants=2))
    return ServingSetup(
        "cluster_prefix", requests, get_model("gpt2"),
        LatencyModel(platform=get_platform("Intel+H100")),
        dict(policy=ContinuousBatchPolicy(max_active=16),
             router="least-loaded", replicas=4,
             kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True),
             host=HostModel.for_platform("Intel+H100", 4,
                                         HostConfig(cores=4))),
        cluster=True)


# ----------------------------------------------------------------------
# The characterization sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridPoint:
    model: str
    platform: str
    batch_size: int
    eager: SkipMetrics
    fused: SkipMetrics


@dataclass
class SweepSetup:
    """Eager profile, fusion plan and fused re-profile at every grid point."""

    models: tuple[ModelConfig, ...]
    profilers: list[SkipProfiler]

    @property
    def sent(self) -> int:
        return (len(self.models) * len(self.profilers)
                * len(DEFAULT_BATCH_SIZES))

    def call(self) -> list[GridPoint]:
        points = []
        for model in self.models:
            for profiler in self.profilers:
                for batch in DEFAULT_BATCH_SIZES:
                    eager = profiler.profile(model, batch_size=batch,
                                             seq_len=SWEEP_SEQ_LEN)
                    fused = profiler.profile(
                        model, batch_size=batch, seq_len=SWEEP_SEQ_LEN,
                        mode=ExecutionMode.PROXIMITY_FUSED,
                        fusion_plan=eager.fusion_plan())
                    points.append(GridPoint(model.name,
                                            profiler.platform.name, batch,
                                            eager.metrics, fused.metrics))
        return points

    def evaluate(self, points: list[GridPoint]) -> Evaluation:
        failures = []
        ratios = []
        for model in self.models:
            found = tuple(
                find_transition(DEFAULT_BATCH_SIZES, [
                    p.eager.tklqt_ns for p in points
                    if p.model == model.name and p.platform == platform
                ]).batch_size
                for platform in SWEEP_PLATFORMS)
            expected = EXPECTED_TRANSITIONS[model.name]
            if found != expected:
                failures.append(f"{model.name}: TKLQT transitions {found}, "
                                f"expected {expected}")
            if None not in found:
                ratios += [found[2] / found[0], found[2] / found[1]]
        for p in points:
            if p.fused.inference_latency_ns > p.eager.inference_latency_ns:
                failures.append(f"{p.model} on {p.platform} "
                                f"BS={p.batch_size}: fused slower than eager")
        eager_ns = [p.eager.inference_latency_ns for p in points]
        prefill_tokens = sum(p.batch_size * SWEEP_SEQ_LEN for p in points)
        rows = [(p.model, p.platform, p.batch_size,
                 p.eager.inference_latency_ns, p.eager.tklqt_ns,
                 p.fused.inference_latency_ns, p.fused.tklqt_ns)
                for p in points]
        # TTFT p99 and TBT are not defined here: 96 points leave fewer than
        # ten beyond p99, and a prefill sweep generates no decode tokens.
        sim = {
            "sim_ttft_p50_ms": _percentiles(eager_ns, 50)[0] / 1e6,
            "sim_ttft_p99_ms": 0.0,
            "sim_tbt_p50_ms": 0.0,
            "sim_tbt_p99_ms": 0.0,
            "sim_tokens_per_s": prefill_tokens / (sum(eager_ns) / 1e9),
            "sim_slo_attain": (sum(ns <= TTFT_SLO_NS for ns in eager_ns)
                               / len(eager_ns)),
        }
        speedups = [p.eager.inference_latency_ns / p.fused.inference_latency_ns
                    for p in points]
        layers = {
            "skip.tklqt_transition_ratio": _geomean(ratios) if ratios else 0.0,
            "skip.fusion_speedup_geomean": _geomean(speedups),
        }
        # Each point simulates its tokens twice: eager, then fused.
        return Evaluation(completed=len(points),
                          sim_tokens=2 * prefill_tokens, digest=_digest(rows),
                          sim=sim, layers=layers, failures=failures)


def _geomean(values: list[float]) -> float:
    return math.exp(fmean(math.log(v) for v in values))


def _skip_sweep(seed: int, scale: float) -> SweepSetup:
    del seed  # the characterization grid is seed-free
    count = max(1, round(len(PAPER_MODELS) * scale))
    return SweepSetup(models=PAPER_MODELS[:count],
                      profilers=[SkipProfiler(get_platform(name))
                                 for name in SWEEP_PLATFORMS])


#: Workload name -> builder (BENCHMARK.json lists the same names in order).
WORKLOADS: dict[str, Callable] = {
    "skip_sweep": _skip_sweep,
    "chat_decode": _chat_decode,
    "kv_longprompt": _kv_longprompt,
    "cluster_prefix": _cluster_prefix,
}


def prepare(name: str, seed: int, scale: float = 1.0):
    """Generate ``name``'s inputs from ``seed`` and build what it runs on."""
    return WORKLOADS[name](seed, scale)
