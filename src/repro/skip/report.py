"""Human-readable reports for SKIP analyses."""

from __future__ import annotations

from typing import Sequence

from repro.skip.classify import TransitionPoint
from repro.skip.fusion import FusionAnalysis
from repro.skip.metrics import SkipMetrics
from repro.skip.profiler import ProfileResult
from repro.units import format_ns


def metrics_report(metrics: SkipMetrics, title: str = "SKIP metrics") -> str:
    """Render the core metric set as a text block."""
    lines = [
        title,
        "-" * len(title),
        f"inference latency (IL)     : {format_ns(metrics.inference_latency_ns)}",
        f"TKLQT                      : {format_ns(metrics.tklqt_ns)}",
        f"  launch floor share       : "
        f"{100 * (1 - _safe_ratio(metrics.queuing_ns, metrics.tklqt_ns)):.1f}%",
        f"  queuing share            : "
        f"{100 * _safe_ratio(metrics.queuing_ns, metrics.tklqt_ns):.1f}%",
        f"average kernel dur (AKD)   : {format_ns(metrics.akd_ns)}",
        f"kernel launches / iter     : {metrics.kernel_launches:.0f}",
        f"GPU busy / idle            : {format_ns(metrics.gpu_busy_ns)}"
        f" / {format_ns(metrics.gpu_idle_ns)}",
        f"CPU busy / idle            : {format_ns(metrics.cpu_busy_ns)}"
        f" / {format_ns(metrics.cpu_idle_ns)}",
    ]
    if len(metrics.devices) > 1:
        lines.append("per-device breakdown")
        for dev in metrics.devices:
            lines.append(
                f"  gpu{dev.device}: TKLQT={format_ns(dev.tklqt_ns)}  "
                f"AKD={format_ns(dev.akd_ns)}  "
                f"busy={format_ns(dev.gpu_busy_ns)}  "
                f"idle={format_ns(dev.gpu_idle_ns)}  "
                f"launches={dev.kernel_launches:.0f}"
            )
    return "\n".join(lines)


def top_kernels_report(metrics: SkipMetrics, k: int = 10) -> str:
    """Render the top-k kernel table (launch counts and offload tax)."""
    lines = [f"top-{k} kernels by launch count",
             f"{'count':>6}  {'mean dur':>10}  {'mean t_l':>10}  name"]
    for agg in metrics.top_k(k):
        lines.append(
            f"{agg.count:>6}  {format_ns(agg.mean_duration_ns):>10}  "
            f"{format_ns(agg.mean_launch_queue_ns):>10}  {agg.name}"
        )
    return "\n".join(lines)


def profile_report(result: ProfileResult, title: str | None = None) -> str:
    """Full report for one profiled run."""
    meta = result.metadata
    heading = title or (
        f"{meta.get('model', '?')} on {meta.get('platform', '?')} "
        f"(BS={meta.get('batch_size', '?')}, {meta.get('mode', '?')})"
    )
    bound = result.boundedness
    parts = [
        metrics_report(result.metrics, heading),
        f"classification             : {bound.value}",
        "",
        top_kernels_report(result.metrics, 5),
    ]
    return "\n".join(parts)


def fusion_report(analyses: Sequence[FusionAnalysis]) -> str:
    """Render the Fig. 7/8 quantities for a set of chain lengths."""
    header = (f"{'L':>4}  {'unique':>7}  {'instances':>9}  {'PS=1':>5}  "
              f"{'C_fused':>7}  {'K_eager':>7}  {'K_fused':>7}  {'speedup':>7}")
    lines = [header, "-" * len(header)]
    for a in analyses:
        lines.append(
            f"{a.length:>4}  {a.unique_candidates:>7}  {a.total_instances:>9}  "
            f"{len(a.deterministic_chains):>5}  {a.fused_chain_count:>7.1f}  "
            f"{a.k_eager:>7.0f}  {a.k_fused:>7.0f}  {a.ideal_speedup:>6.2f}x"
        )
    return "\n".join(lines)


def transition_report(label: str, transition: TransitionPoint) -> str:
    """Render a Fig. 6-style transition summary."""
    lines = [f"{label}: TKLQT vs batch size"]
    for batch, tklqt in zip(transition.batch_sizes, transition.tklqt_ns):
        marker = ""
        if transition.batch_size is not None and batch == transition.batch_size:
            marker = "  <-- transition (star)"
        bound = transition.boundedness_at(batch)
        lines.append(f"  BS={batch:<4} TKLQT={format_ns(tklqt):>12}  "
                     f"[{bound.value}]{marker}")
    if transition.batch_size is None:
        lines.append("  (no transition within the swept range: CPU-bound throughout)")
    return "\n".join(lines)


def _safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
