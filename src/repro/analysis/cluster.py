"""Cluster-scale analyses: prefix-caching crossover and router comparison.

Two questions the cluster tier makes answerable:

**Where does prefix caching move the CPU-bound -> GPU-bound crossover?**
A shared-prefix hit deletes the cached tokens' prefill *compute* but not
the per-layer launch tax — the suffix still walks every layer, paying the
full dispatch path (a prefix-cache hit's suffix prefill in
:func:`repro.serving.continuous.continuous_batching_process`). Pricing
TTFT over a batch sweep with and without the cached prefix therefore
shifts the launch-flat region: the uncached curve ``ttft(B, P)`` leaves
the framework-bound plateau where compute overtakes launch tax, while the
cached curve ``ttft(B, S)`` with suffix ``S << P`` has less compute per
batch and stays flat to *larger* batch sizes. The transition is detected
with the same flatness rule the framework-tax study uses
(:func:`repro.analysis.frameworktax.classify_latency_curve`), so the
shift is measured, not asserted.

**Does load-aware routing beat blind rotation?** One bursty, length-jittered
stream served through :func:`repro.serving.cluster.simulate_cluster` once
per router policy. Round-robin ignores that a burst's heavy prompts pile
onto whichever replica rotation lands on; least-loaded spreads by
outstanding token mass and finishes the same stream sooner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.frameworktax import classify_latency_curve
from repro.errors import AnalysisError
from repro.hardware.platform import Platform
from repro.serving.cluster import RouterPolicy, simulate_cluster
from repro.serving.continuous import ContinuousBatchPolicy
from repro.serving.latency import LatencyModel
from repro.traffic import (
    ArrivalFamily,
    ArrivalSpec,
    TrafficConfig,
    generate_traffic,
)
from repro.workloads.config import ModelConfig

#: Batch sizes the crossover sweep prices (doubling, as the flatness rule
#: assumes).
DEFAULT_CROSSOVER_BATCHES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)

#: Router policies the comparison serves by default.
DEFAULT_ROUTER_POLICIES: tuple[RouterPolicy, ...] = (
    RouterPolicy.ROUND_ROBIN, RouterPolicy.LEAST_LOADED)


# ----------------------------------------------------------------------
# Prefix-caching crossover
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrefixCrossoverPoint:
    """One platform's TTFT-vs-batch sweep, uncached vs prefix-cached."""

    platform: str
    batch_sizes: tuple[int, ...]
    uncached_ns: tuple[float, ...]
    cached_ns: tuple[float, ...]
    #: First batch size in the compute-bound region; None = still
    #: launch-flat at the largest swept batch (crossover beyond range).
    uncached_transition: int | None
    cached_transition: int | None

    @property
    def shifted(self) -> bool:
        """Did caching move the crossover to a strictly larger batch?

        ``None`` sorts as beyond-range: a cached curve that never leaves
        the flat region counts as shifted iff the uncached one does.
        """
        if self.uncached_transition is None:
            return False
        if self.cached_transition is None:
            return True
        return self.cached_transition > self.uncached_transition


@dataclass
class PrefixCrossoverResult:
    """The crossover sweep over all platforms."""

    model: str
    prompt_len: int
    prefix_len: int
    cached_tokens: int   # whole blocks only — what a COW hit actually skips
    suffix_len: int
    points: list[PrefixCrossoverPoint] = field(default_factory=list)

    def point(self, platform: str) -> PrefixCrossoverPoint:
        for candidate in self.points:
            if candidate.platform == platform:
                return candidate
        raise AnalysisError(f"no crossover sweep for platform {platform!r}")

    def shifted_platforms(self) -> list[str]:
        return [p.platform for p in self.points if p.shifted]


def run_prefix_crossover(
    model: ModelConfig,
    platforms: Sequence[Platform],
    batch_sizes: Sequence[int] = DEFAULT_CROSSOVER_BATCHES,
    prompt_len: int = 512,
    prefix_len: int = 448,
    block_tokens: int = 16,
) -> PrefixCrossoverResult:
    """Price ``ttft(B, prompt)`` vs ``ttft(B, suffix)`` per platform.

    The cached curve prefills only the non-shared suffix — the same
    ``ttft_ns(model, B, suffix)`` lookup :func:`prefill_cached` makes for
    a batch of hits — so each curve's flatness transition is exactly the
    crossover batch the serving path would see.

    Raises:
        AnalysisError: on an empty platform list, a prefix that is not
            shorter than the prompt, or one too short to cover a block.
    """
    if not platforms:
        raise AnalysisError("at least one platform is required")
    if not 0 < prefix_len < prompt_len:
        raise AnalysisError("prefix_len must be in (0, prompt_len)")
    if block_tokens <= 0:
        raise AnalysisError("block_tokens must be positive")
    cached = (prefix_len // block_tokens) * block_tokens
    if cached <= 0:
        raise AnalysisError(
            f"prefix_len {prefix_len} does not cover one "
            f"{block_tokens}-token block; nothing would be cached")
    suffix = prompt_len - cached
    result = PrefixCrossoverResult(
        model=model.name, prompt_len=prompt_len, prefix_len=prefix_len,
        cached_tokens=cached, suffix_len=suffix)
    for platform in platforms:
        latency = LatencyModel(platform=platform)
        uncached = [latency.ttft_ns(model, b, prompt_len)
                    for b in batch_sizes]
        hit = [latency.ttft_ns(model, b, suffix) for b in batch_sizes]
        result.points.append(PrefixCrossoverPoint(
            platform=platform.name,
            batch_sizes=tuple(batch_sizes),
            uncached_ns=tuple(uncached),
            cached_ns=tuple(hit),
            uncached_transition=classify_latency_curve(
                batch_sizes, uncached).transition_batch_size,
            cached_transition=classify_latency_curve(
                batch_sizes, hit).transition_batch_size,
        ))
    return result


def prefix_crossover_report(result: PrefixCrossoverResult) -> str:
    """Render the crossover sweep as a per-platform text table."""
    header = (f"{result.model}: prefix caching vs the launch-tax crossover "
              f"(prompt={result.prompt_len}, cached={result.cached_tokens}, "
              f"suffix={result.suffix_len})")
    lines = [header, "-" * len(header)]
    for point in result.points:
        fmt = lambda t: "beyond sweep" if t is None else f"B={t}"
        lines.append(
            f"{point.platform:<10} uncached crossover {fmt(point.uncached_transition):>12}"
            f"   cached {fmt(point.cached_transition):>12}"
            f"   {'SHIFTED' if point.shifted else 'unchanged'}")
    shifted = result.shifted_platforms()
    if shifted:
        lines.append(
            f"prefix caching defers the CPU-bound->GPU-bound transition on "
            f"{', '.join(shifted)}: a hit deletes prefill compute but not "
            f"the per-layer launch tax, so the launch-flat region extends "
            f"to larger batches")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Router policy comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouterComparisonPoint:
    """One router policy's serve of the shared bursty stream."""

    policy: RouterPolicy
    tokens_per_s: float
    mean_ttft_ns: float
    routed_per_replica: tuple[int, ...]
    requests_completed: int


@dataclass
class RouterComparisonResult:
    """All policies' serves of one stream on one platform."""

    model: str
    platform: str
    replicas: int
    requests: int
    points: list[RouterComparisonPoint] = field(default_factory=list)

    def point(self, policy: RouterPolicy) -> RouterComparisonPoint:
        for candidate in self.points:
            if candidate.policy is policy:
                return candidate
        raise AnalysisError(f"router policy {policy.value} was not compared")


def run_router_comparison(
    model: ModelConfig,
    platform: Platform,
    policies: Sequence[RouterPolicy] = DEFAULT_ROUTER_POLICIES,
    replicas: int = 4,
    rate_per_s: float = 3000.0,
    duration_s: float = 0.05,
    seed: int = 7,
    prompt_len: int = 64,
    output_tokens: int = 128,
    output_jitter: int = 120,
    max_active: int = 8,
) -> RouterComparisonResult:
    """Serve one bursty, length-jittered stream once per router policy.

    Every cell replays the *same* MMPP-2 arrival stream, so the only
    difference between points is where the router placed each request.
    The default stream is decode-dominated (small fixed prompts, outputs
    jittered over a 15x range): decode steps are launch-bound and shared
    across a replica's active set, so a replica's wall time tracks the
    token mass routed to it — which is exactly the signal least-loaded
    balances and round-robin ignores.

    Raises:
        AnalysisError: on an empty policy list.
    """
    if not policies:
        raise AnalysisError("at least one router policy is required")
    requests = generate_traffic(TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily.BURSTY,
                             rate_per_s=rate_per_s, duration_s=duration_s,
                             seed=seed, burst_multiplier=6.0,
                             burst_fraction=0.3),
        prompt_len=prompt_len, output_tokens=output_tokens,
        output_jitter=output_jitter))
    serving_policy = ContinuousBatchPolicy(max_active=max_active)
    result = RouterComparisonResult(
        model=model.name, platform=platform.name, replicas=replicas,
        requests=len(requests))
    latency = LatencyModel(platform=platform)
    for policy in policies:
        run = simulate_cluster(requests, model, latency,
                               policy=serving_policy, router=policy,
                               replicas=replicas)
        ttfts = [o.ttft_ns for o in run.outcomes]
        result.points.append(RouterComparisonPoint(
            policy=policy,
            tokens_per_s=run.throughput_tokens_per_s,
            mean_ttft_ns=sum(ttfts) / len(ttfts),
            routed_per_replica=run.router.routed_per_replica
            if run.router else (),
            requests_completed=len(run.outcomes),
        ))
    return result


def router_comparison_report(result: RouterComparisonResult) -> str:
    """Render the router comparison as a text table."""
    header = (f"{result.model} on {result.platform}: router policies over "
              f"one bursty stream ({result.requests} requests, "
              f"{result.replicas} replicas)")
    lines = [header, "-" * len(header)]
    for point in result.points:
        spread = "/".join(str(n) for n in point.routed_per_replica)
        lines.append(
            f"  {point.policy.value:<13} {point.tokens_per_s:>8.1f} tok/s  "
            f"mean TTFT {point.mean_ttft_ns / 1e6:>7.2f} ms  "
            f"placement {spread}")
    try:
        rr = result.point(RouterPolicy.ROUND_ROBIN)
        ll = result.point(RouterPolicy.LEAST_LOADED)
    except AnalysisError:
        return "\n".join(lines)
    if rr.tokens_per_s > 0:
        lines.append(
            f"least-loaded delivers {ll.tokens_per_s / rr.tokens_per_s:.2f}x "
            f"round-robin's tokens/s: bursts of jittered-length requests "
            f"pile onto rotation's next slot, while load-aware placement "
            f"levels outstanding token mass")
    return "\n".join(lines)
