"""Profile A/B comparison.

Two profiles of the same workload — different platforms, modes, or fusion
plans — diff at the kernel-name level: which kernels appeared/disappeared
(fusion!), which got faster, and how the headline metrics moved. This is the
workflow a SKIP user runs after applying an optimization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.skip.metrics import SkipMetrics
from repro.units import format_ns


@dataclass(frozen=True)
class KernelDelta:
    """Per-kernel-name change between two profiles."""

    name: str
    count_a: int
    count_b: int
    duration_a_ns: float
    duration_b_ns: float

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    @property
    def status(self) -> str:
        if self.count_a == 0:
            return "added"
        if self.count_b == 0:
            return "removed"
        return "changed" if self.count_delta else "kept"


@dataclass(frozen=True)
class ProfileDiff:
    """Full A -> B comparison."""

    label_a: str
    label_b: str
    kernels: tuple[KernelDelta, ...]
    latency_a_ns: float
    latency_b_ns: float
    tklqt_a_ns: float
    tklqt_b_ns: float
    launches_a: float
    launches_b: float

    @property
    def speedup(self) -> float:
        return self.latency_a_ns / self.latency_b_ns

    @property
    def launches_saved(self) -> float:
        return self.launches_a - self.launches_b

    def added(self) -> list[KernelDelta]:
        return [k for k in self.kernels if k.status == "added"]

    def removed(self) -> list[KernelDelta]:
        return [k for k in self.kernels if k.status == "removed"]


def diff_metrics(metrics_a: SkipMetrics, metrics_b: SkipMetrics,
                 label_a: str = "A", label_b: str = "B") -> ProfileDiff:
    """Diff two profiled runs' metrics and kernel populations."""
    if not metrics_a.top_kernels or not metrics_b.top_kernels:
        raise AnalysisError("both profiles need kernel aggregates; "
                            "compute_metrics(top_k=...) with a large enough k")
    iterations_a = len(metrics_a.iterations)
    iterations_b = len(metrics_b.iterations)
    table_a = {k.name: k for k in metrics_a.top_kernels}
    table_b = {k.name: k for k in metrics_b.top_kernels}
    deltas = []
    for name in sorted(set(table_a) | set(table_b)):
        a = table_a.get(name)
        b = table_b.get(name)
        deltas.append(KernelDelta(
            name=name,
            count_a=(a.count // iterations_a) if a else 0,
            count_b=(b.count // iterations_b) if b else 0,
            duration_a_ns=(a.total_duration_ns / iterations_a) if a else 0.0,
            duration_b_ns=(b.total_duration_ns / iterations_b) if b else 0.0,
        ))
    return ProfileDiff(
        label_a=label_a,
        label_b=label_b,
        kernels=tuple(deltas),
        latency_a_ns=metrics_a.inference_latency_ns,
        latency_b_ns=metrics_b.inference_latency_ns,
        tklqt_a_ns=metrics_a.tklqt_ns,
        tklqt_b_ns=metrics_b.tklqt_ns,
        launches_a=metrics_a.kernel_launches,
        launches_b=metrics_b.kernel_launches,
    )


def diff_report(diff: ProfileDiff, k: int = 8) -> str:
    """Text summary of an A/B diff."""
    lines = [
        f"profile diff: {diff.label_a} -> {diff.label_b}",
        f"  latency : {format_ns(diff.latency_a_ns)} -> "
        f"{format_ns(diff.latency_b_ns)}  ({diff.speedup:.3f}x)",
        f"  TKLQT   : {format_ns(diff.tklqt_a_ns)} -> "
        f"{format_ns(diff.tklqt_b_ns)}",
        f"  launches: {diff.launches_a:.0f} -> {diff.launches_b:.0f} "
        f"({diff.launches_saved:+.0f})",
    ]
    removed = diff.removed()
    added = diff.added()
    if removed:
        lines.append(f"  removed kernels ({len(removed)}):")
        for delta in removed[:k]:
            lines.append(f"    - {delta.name} (x{delta.count_a})")
    if added:
        lines.append(f"  added kernels ({len(added)}):")
        for delta in added[:k]:
            lines.append(f"    + {delta.name} (x{delta.count_b})")
    return "\n".join(lines)
