"""Batch-size sweeps — the backbone of Figs. 6, 10, and 11.

A sweep runs one model across batch sizes on one or more platforms, profiles
every run with SKIP, and exposes metric series (TTFT, TKLQT, GPU/CPU idle)
plus the TKLQT transition point per platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.engine.executor import DEFAULT_CONFIG, EngineConfig
from repro.engine.modes import ExecutionMode
from repro.engine.tp import TPConfig
from repro.errors import AnalysisError
from repro.hardware.platform import Platform
from repro.skip.classify import TransitionPoint, find_transition
from repro.skip.metrics import SkipMetrics
from repro.skip.profiler import SkipProfiler
from repro.workloads.config import ModelConfig
from repro.workloads.graph import Phase

#: The paper's evaluation batch ladder.
DEFAULT_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class SweepPoint:
    """One (platform, batch size) cell of a sweep."""

    platform: str
    model: str
    batch_size: int
    metrics: SkipMetrics

    @property
    def ttft_ns(self) -> float:
        """Time-to-first-token = prefill inference latency (Eq. 4)."""
        return self.metrics.inference_latency_ns


@dataclass
class SweepResult:
    """All points of one model's sweep across platforms and batch sizes."""

    model: str
    batch_sizes: tuple[int, ...]
    points: list[SweepPoint] = field(default_factory=list)

    def platforms(self) -> list[str]:
        """Platform names present, in first-seen order."""
        seen: list[str] = []
        for point in self.points:
            if point.platform not in seen:
                seen.append(point.platform)
        return seen

    def point(self, platform: str, batch_size: int) -> SweepPoint:
        for candidate in self.points:
            if candidate.platform == platform and candidate.batch_size == batch_size:
                return candidate
        raise AnalysisError(f"no sweep point for {platform} BS={batch_size}")

    def series(self, platform: str,
               extract: Callable[[SkipMetrics], float]) -> list[float]:
        """A metric series over the swept batch sizes for one platform."""
        return [extract(self.point(platform, bs).metrics)
                for bs in self.batch_sizes]

    def ttft_series(self, platform: str) -> list[float]:
        return self.series(platform, lambda m: m.inference_latency_ns)

    def tklqt_series(self, platform: str) -> list[float]:
        return self.series(platform, lambda m: m.tklqt_ns)

    def gpu_idle_series(self, platform: str) -> list[float]:
        return self.series(platform, lambda m: m.gpu_idle_ns)

    def cpu_idle_series(self, platform: str) -> list[float]:
        return self.series(platform, lambda m: m.cpu_idle_ns)

    def transition(self, platform: str) -> TransitionPoint:
        """The Fig. 6 star for one platform."""
        return find_transition(list(self.batch_sizes),
                               self.tklqt_series(platform))


def _sweep_point(payload: tuple) -> SweepPoint:
    """Compute one sweep cell. Top-level so process pools can pickle it."""
    model, platform, batch_size, seq_len, mode, phase, engine_config, tp = payload
    profiler = SkipProfiler(platform, engine_config)
    metrics = profiler.profile(model, batch_size=batch_size,
                               seq_len=seq_len, mode=mode,
                               phase=phase, tp=tp).metrics
    return SweepPoint(platform=platform.name, model=model.name,
                      batch_size=batch_size, metrics=metrics)


def run_batch_sweep(
    model: ModelConfig,
    platforms: Sequence[Platform],
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    seq_len: int = 512,
    mode: ExecutionMode = ExecutionMode.EAGER,
    phase: Phase = Phase.PREFILL,
    engine_config: EngineConfig = DEFAULT_CONFIG,
    tp: TPConfig | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Profile ``model`` across ``batch_sizes`` on every platform.

    ``jobs > 1`` fans the (platform, batch) grid out over a process pool.
    Results merge in platform-major, batch-minor order — the serial order —
    regardless of worker completion order, and each point's simulation is
    seed-free and self-contained, so the merged result is identical to a
    serial run (the parity suite asserts this).
    """
    if not platforms:
        raise AnalysisError("at least one platform is required")
    if not batch_sizes:
        raise AnalysisError("at least one batch size is required")
    if jobs < 1:
        raise AnalysisError("jobs must be at least 1")
    payloads = [
        (model, platform, batch_size, seq_len, mode, phase, engine_config, tp)
        for platform in platforms
        for batch_size in batch_sizes
    ]
    result = SweepResult(model=model.name, batch_sizes=tuple(batch_sizes))
    if jobs == 1:
        result.points.extend(_sweep_point(p) for p in payloads)
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Executor.map preserves input order, which IS the serial order.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            result.points.extend(pool.map(_sweep_point, payloads))
    return result
