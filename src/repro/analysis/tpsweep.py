"""Tensor-parallel degree sweeps.

Sharding a layer across ``tp_degree`` GPUs shrinks every kernel by the
degree but adds ring all-reduces and multiplies the CPU launch work: with a
single dispatch thread every kernel is launched once *per device*. A TP
sweep profiles one (model, batch) shape across degrees and exposes the
aggregate and per-device SKIP metrics, so the CPU-bound/GPU-bound story of
Fig. 6 can be read along the parallelism axis too: small batches get *worse*
with TP (more launches, same serial dispatch), large batches get better
(kernels shrink faster than all-reduce time grows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.executor import DEFAULT_CONFIG, EngineConfig
from repro.engine.lowering import allreduce_kernel_name
from repro.engine.modes import ExecutionMode
from repro.engine.tp import DispatchMode, TPConfig
from repro.errors import AnalysisError
from repro.hardware.platform import Platform
from repro.skip.metrics import DeviceMetrics, SkipMetrics
from repro.skip.profiler import SkipProfiler
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase

#: Power-of-two ladder up to a typical single-node GPU count.
DEFAULT_TP_DEGREES: tuple[int, ...] = (1, 2, 4, 8)


@dataclass(frozen=True)
class TPSweepPoint:
    """One TP degree's profile of a fixed (model, batch) shape."""

    degree: int
    metrics: SkipMetrics

    @property
    def latency_ns(self) -> float:
        """Per-iteration inference latency at this degree."""
        return self.metrics.inference_latency_ns

    @property
    def devices(self) -> list[DeviceMetrics]:
        return self.metrics.devices

    @property
    def allreduce_ns(self) -> float:
        """Mean per-iteration time spent in all-reduce kernels (all devices)."""
        total = 0.0
        for agg in self.metrics.top_kernels:
            if agg.name == allreduce_kernel_name(self.degree):
                total += agg.total_duration_ns
        return total / len(self.metrics.iterations)


@dataclass
class TPSweepResult:
    """All degrees of one TP sweep."""

    model: str
    platform: str
    batch_size: int
    degrees: tuple[int, ...]
    points: list[TPSweepPoint] = field(default_factory=list)

    def point(self, degree: int) -> TPSweepPoint:
        for candidate in self.points:
            if candidate.degree == degree:
                return candidate
        raise AnalysisError(f"no sweep point for TP={degree}")

    def series(self, extract: Callable[[SkipMetrics], float]) -> list[float]:
        """A metric series over the swept degrees."""
        return [extract(self.point(d).metrics) for d in self.degrees]

    def latency_series(self) -> list[float]:
        return self.series(lambda m: m.inference_latency_ns)

    def tklqt_series(self) -> list[float]:
        return self.series(lambda m: m.tklqt_ns)

    def speedup(self, degree: int) -> float:
        """Latency speedup of ``degree`` over TP=1 (needs 1 in the sweep)."""
        baseline = self.point(1).latency_ns
        return baseline / self.point(degree).latency_ns

    def best_degree(self) -> int:
        """The degree with the lowest inference latency."""
        return min(self.points, key=lambda p: p.latency_ns).degree


def run_tp_sweep(
    model: ModelConfig,
    platform: Platform,
    batch_size: int = 1,
    degrees: Sequence[int] = DEFAULT_TP_DEGREES,
    seq_len: int = 512,
    mode: ExecutionMode = ExecutionMode.EAGER,
    phase: Phase = Phase.PREFILL,
    dispatch: DispatchMode = DispatchMode.SINGLE_THREAD,
    engine_config: EngineConfig = DEFAULT_CONFIG,
) -> TPSweepResult:
    """Profile one shape across tensor-parallel degrees on ``platform``."""
    if not degrees:
        raise AnalysisError("at least one TP degree is required")
    profiler = SkipProfiler(platform, engine_config)
    result = TPSweepResult(model=model.name, platform=platform.name,
                           batch_size=batch_size, degrees=tuple(degrees))
    for degree in degrees:
        tp = TPConfig(degree=degree, dispatch=dispatch)
        metrics = profiler.profile(model, batch_size=batch_size,
                                   seq_len=seq_len, mode=mode,
                                   phase=phase, tp=tp).metrics
        result.points.append(TPSweepPoint(degree=degree, metrics=metrics))
    return result


def tp_sweep_report(result: TPSweepResult) -> str:
    """Render a TP sweep as a text table with per-device breakdowns."""
    from repro.units import format_ns

    header = (f"{result.model} on {result.platform} "
              f"(BS={result.batch_size}): latency vs TP degree")
    lines = [header, "-" * len(header)]
    baseline = result.point(result.degrees[0]).latency_ns
    for point in result.points:
        lines.append(
            f"TP={point.degree:<2} IL={format_ns(point.latency_ns):>12}  "
            f"TKLQT={format_ns(point.metrics.tklqt_ns):>12}  "
            f"allreduce={format_ns(point.allreduce_ns):>10}  "
            f"speedup={baseline / point.latency_ns:>5.2f}x"
        )
        for dev in point.devices:
            lines.append(
                f"    gpu{dev.device}: busy={format_ns(dev.gpu_busy_ns):>12}  "
                f"idle={format_ns(dev.gpu_idle_ns):>12}  "
                f"launches={dev.kernel_launches:.0f}"
            )
    best = result.best_degree()
    lines.append(f"best degree: TP={best}")
    return "\n".join(lines)
