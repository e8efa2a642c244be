"""Shared seeded serving scenarios used across test suites and benchmarks.

Two canonical arrival streams recur everywhere the serving stack is
exercised:

* the **overload** stream — ~100 requests in 200 ms, far past what one
  replica with 8 active sequences drains at line rate, so scale-out tests
  have head-of-line pressure to relieve;
* the **KV-pressure** stream — settings that put GPT-2 under measurable
  paged-pool pressure in ~0.1 s of wall time (capacity 72 blocks at
  ``POOL_GIB``; two admitted sequences need 2*33=66 blocks at admission but
  2*40=80 over their lifetimes, so decode growth must evict or swap);
* the **mixed long-prompt** stream — a high-rate interactive stream
  sharing the engine with sparse 3072-token analytic prompts
  (:func:`repro.analysis.pareto.mixed_prompt_requests` at seed 3), the
  traffic where whole-prompt prefill stalls decode tails hardest and the
  chunked-prefill benchmarks measure their win;
* the **cluster** stream — a bursty tagged MMPP stream (seed 7) with
  sessions, tenants, and a 50% shared-prefix share, routed least-loaded
  across 4 replicas with copy-on-write prefix caching. The same
  configuration is the ``cluster`` canonical scenario ``repro check hb``
  certifies (:data:`repro.check.hb.CANONICAL_SCENARIOS`), so determinism
  tests and the certifier replay the identical run.
* the **batched** stream — jittered 384-token prompts at 80 req/s (seed 5)
  served by the five batch-at-a-time policies
  (:data:`BATCHED_POLICIES`, :func:`batched_run`); the parity tables,
  the booked-clock locks and the tie-break tests replay it.

Keeping the numbers here — instead of re-typed per suite — means a change
to one scenario shifts every consumer together, and parity suites comparing
two code paths are guaranteed to replay the *same* stream.
"""

from repro.engine.modes import ExecutionMode
from repro.kvcache import KvCacheConfig
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.serving.requests import poisson_requests
from repro.serving.runtime import simulate_serving
from repro.workloads import GPT2

#: The overload stream's parameters (see module docstring).
OVERLOAD = dict(rate_per_s=500, duration_s=0.2, prompt_len=512,
                output_tokens=64, seed=3)

#: The KV-pressure stream's parameters (see module docstring).
PRESSURE = dict(rate_per_s=40.0, duration_s=0.3, prompt_len=512,
                output_tokens=128, seed=7)
#: Paged-pool size that makes the PRESSURE stream actually evict/swap.
POOL_GIB = 0.04
#: Continuous-batching concurrency bound used with both streams.
MAX_ACTIVE = 8


def overloaded_stream():
    """The canonical overload arrival stream (deterministic: seed 3)."""
    return poisson_requests(**OVERLOAD)


def pressure_stream():
    """The canonical KV-pressure arrival stream (deterministic: seed 7)."""
    return poisson_requests(**PRESSURE)


#: Seed of the canonical mixed long-prompt stream (the chunked-prefill
#: benchmarks and their locking tests must replay the same arrivals).
MIXED_SEED = 3
#: Chunk budget the chunked scenarios run at (the measured sweet spot on
#: both GH200 and AMD+A100 — see ``tests/analysis/test_pareto.py``).
CHUNK_TOKENS = 256


def mixed_stream(seed=MIXED_SEED):
    """The canonical mixed long-prompt arrival stream (deterministic)."""
    from repro.analysis.pareto import mixed_prompt_requests

    return mixed_prompt_requests(seed=seed)


def chunked_run(platform, chunk_tokens=CHUNK_TOKENS, pp=None, recorder=None):
    """Serve the mixed stream with chunked prefill on ``platform``.

    Returns ``(requests, run)``. ``chunk_tokens=0`` serves the identical
    stream whole-prompt (the parity/benchmark baseline); ``pp`` optionally
    prices engine steps on a pipeline-parallel engine.
    """
    requests = mixed_stream()
    latency = LatencyModel(platform=platform, pp=pp)
    return requests, simulate_serving(
        requests, GPT2, latency,
        policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE,
                                     chunk_tokens=chunk_tokens),
        recorder=recorder)


def tiebreak_pair(run):
    """Run ``run(queue)`` under the FIFO and the adversarial tie-break.

    ``run`` is called twice — once with a production :class:`EventQueue`
    (FIFO at equal timestamps) and once with a
    :class:`~repro.sim.queue.PerturbedEventQueue` (LIFO at equal
    timestamps, causally equivalent) — and both results are returned as
    ``(baseline, perturbed)``. Parity suites assert the two are equal:
    any divergence means an outcome depended on event-queue pop order
    rather than on simulated causality (the same
    adversarial perturbation ``repro check hb --certify`` uses).
    """
    from repro.sim.queue import EventQueue, PerturbedEventQueue

    return run(EventQueue()), run(PerturbedEventQueue())


#: The cluster stream's traffic parameters (see module docstring). These
#: mirror the ``cluster`` scenario in ``repro.check.hb`` — change them
#: together.
CLUSTER_ARRIVALS = dict(rate_per_s=400.0, duration_s=0.05, seed=7)
CLUSTER_LENGTHS = dict(prompt_len=256, prompt_jitter=64, output_tokens=24,
                       output_jitter=8)
CLUSTER_PREFIX = dict(share=0.5, prefix_len=128, pool=2)
CLUSTER_SESSIONS = 6
CLUSTER_TENANTS = 2
CLUSTER_REPLICAS = 4


def cluster_stream():
    """The canonical cluster traffic stream (deterministic: seed 7)."""
    from repro.traffic import (ArrivalFamily, ArrivalSpec, PrefixSpec,
                               TrafficConfig, generate_traffic)

    return generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY, **CLUSTER_ARRIVALS),
        prefix=PrefixSpec(**CLUSTER_PREFIX),
        sessions=CLUSTER_SESSIONS, tenants=CLUSTER_TENANTS,
        **CLUSTER_LENGTHS))


def cluster_run(platform, router="least-loaded", replicas=CLUSTER_REPLICAS,
                recorder=None, queue=None, causality=None):
    """Serve the cluster stream routed across ``replicas`` on ``platform``.

    Returns ``(requests, run)``. Prefix caching is on (policy NONE, so the
    paged-pressure machinery stays out of the way); ``router`` accepts a
    policy name or a :class:`~repro.serving.cluster.RouterPolicy`.
    """
    from repro.kvcache import KvCacheConfig, KvPolicy
    from repro.serving.cluster import simulate_cluster

    requests = cluster_stream()
    latency = LatencyModel(platform=platform)
    return requests, simulate_cluster(
        requests, GPT2, latency,
        policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE),
        router=router, replicas=replicas, recorder=recorder,
        kv=KvCacheConfig(policy=KvPolicy.NONE, prefix_caching=True),
        queue=queue, causality=causality)


def pressured_run(platform, policy,
                  mode=ExecutionMode.COMPILE_REDUCE_OVERHEAD,
                  recorder=None):
    """Serve the PRESSURE stream on ``platform`` under KV policy ``policy``.

    Returns ``(requests, run)`` so callers can assert every request was
    served. Single replica, continuous batching at ``MAX_ACTIVE``.
    """
    requests = pressure_stream()
    latency = LatencyModel(platform=platform, mode=mode)
    return requests, simulate_serving(
        requests, GPT2, latency,
        policy=ContinuousBatchPolicy(max_active=MAX_ACTIVE),
        recorder=recorder,
        kv=KvCacheConfig(policy=policy, pool_gib=POOL_GIB))


#: The batched-policy stream: jittered prompts long enough to chunk at 64
#: and 256 tokens, at a rate that keeps every replica busy back to back.
BATCHED = dict(rate_per_s=80.0, duration_s=0.5, prompt_len=384,
               prompt_jitter=128, output_tokens=12, output_jitter=6, seed=5)
#: The five policies the batched serving loop runs.
BATCHED_POLICIES = ("static", "priority", "speculative", "pipeline", "rag")


def batched_policy(name, chunk_tokens=0):
    """The batched policy ``name`` at ``chunk_tokens`` (static has no
    chunked mode, so it only takes 0)."""
    from repro.serving import (PipelineServingPolicy, PipelineStage,
                               PriorityPolicy, RagServingPolicy,
                               SpeculativeConfig, SpeculativeServingPolicy,
                               StaticBatchPolicy)
    from repro.workloads import QWEN2_0_5B

    if name == "static":
        if chunk_tokens:
            raise ValueError("static batching prefills whole batches")
        return StaticBatchPolicy(max_batch_size=4, max_wait_ns=10e6)
    if name == "priority":
        return PriorityPolicy(interactive_batch=2, bulk_batch=6,
                              bulk_max_wait_ns=40e6,
                              chunk_tokens=chunk_tokens)
    if name == "speculative":
        return SpeculativeServingPolicy(
            draft=QWEN2_0_5B,
            config=SpeculativeConfig(draft_tokens=3, acceptance_rate=0.6),
            max_batch_size=4, chunk_tokens=chunk_tokens)
    if name == "pipeline":
        return PipelineServingPolicy(
            stages=(PipelineStage("planner", GPT2, prompt_len=32,
                                  output_tokens=6),
                    PipelineStage("worker", GPT2, prompt_len=16,
                                  output_tokens=4)),
            max_batch_size=4, chunk_tokens=chunk_tokens)
    if name == "rag":
        return RagServingPolicy(retrieval_ns=1.5e6, tokens_per_chunk=64,
                                top_k=2, max_batch_size=4,
                                chunk_tokens=chunk_tokens)
    raise ValueError(f"unknown batched policy {name!r}")


def batched_run(name, platform, chunk_tokens=0, replicas=1, recorder=None,
                queue=None, latency=None):
    """Serve the BATCHED stream with batched policy ``name`` on ``platform``.

    Returns ``(requests, run)``. The priority policy sees every fourth
    request as interactive and the rest as bulk. ``latency`` lets a suite
    share one warm :class:`LatencyModel` across runs.
    """
    from repro.serving import ClassifiedRequest, RequestClass

    requests = poisson_requests(**BATCHED)
    workload = list(requests)
    if name == "priority":
        workload = [ClassifiedRequest(
            request=request,
            request_class=(RequestClass.INTERACTIVE if index % 4 == 0
                           else RequestClass.BULK))
            for index, request in enumerate(requests)]
    if latency is None:
        latency = LatencyModel(platform=platform)
    return requests, simulate_serving(
        workload, GPT2, latency, policy=batched_policy(name, chunk_tokens),
        replicas=replicas, recorder=recorder, queue=queue)
