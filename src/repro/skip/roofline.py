"""Per-kernel roofline analysis.

The paper's AKD metric conveys aggregate "kernel efficiency"; this extension
breaks it down: with the work terms the engine records on each kernel event,
every kernel lands on the platform roofline — compute-bound, memory-bound,
or under the launch floor (too small for either limit to matter). The floor
bucket is the population fusion should target.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.hardware.gpu import GpuSpec
from repro.trace.trace import Trace
from repro.units import GIGA, TERA


class KernelRegime(enum.Enum):
    COMPUTE_BOUND = "compute-bound"
    MEMORY_BOUND = "memory-bound"
    LAUNCH_FLOOR = "launch-floor"


@dataclass(frozen=True)
class KernelRooflinePoint:
    """One kernel's position on the roofline."""

    name: str
    flops: float
    bytes_moved: float
    duration_ns: float
    regime: KernelRegime

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of DRAM traffic."""
        return self.flops / self.bytes_moved if self.bytes_moved else float("inf")


@dataclass
class RooflineReport:
    """Roofline classification of every kernel in a trace."""

    gpu: str
    ridge_intensity: float   # FLOPs/byte where compute and memory limits meet
    points: list[KernelRooflinePoint]

    def regime_counts(self) -> dict[str, int]:
        counts = Counter(p.regime.value for p in self.points)
        return dict(counts)

    def regime_time_share(self) -> dict[str, float]:
        """Fraction of total kernel time spent in each regime."""
        total = sum(p.duration_ns for p in self.points)
        if total <= 0:
            raise AnalysisError("kernels have no duration")
        shares: dict[str, float] = {}
        for point in self.points:
            shares[point.regime.value] = (
                shares.get(point.regime.value, 0.0) + point.duration_ns / total)
        return shares

    def floor_fraction(self) -> float:
        """Share of launches that sit under the launch floor — the fusion
        target population."""
        if not self.points:
            raise AnalysisError("no kernels to classify")
        floor = sum(1 for p in self.points
                    if p.regime is KernelRegime.LAUNCH_FLOOR)
        return floor / len(self.points)


def classify_kernels(trace: Trace, gpu: GpuSpec) -> RooflineReport:
    """Place every kernel of a (simulated) trace on the GPU's roofline.

    Requires kernels with recorded work terms (the engine provides them);
    imported real traces carry none and are rejected.
    """
    if not trace.kernels:
        raise AnalysisError("trace has no kernels")
    if all(k.flops == 0 and k.bytes_moved == 0 for k in trace.kernels):
        raise AnalysisError(
            "kernels carry no work terms (imported trace?); roofline "
            "classification needs simulated kernels")

    compute_rate = gpu.fp16_tflops * TERA * gpu.sustain          # FLOP/s
    memory_rate = gpu.hbm_bandwidth_gbs * GIGA * gpu.bandwidth_sustain  # B/s
    ridge = compute_rate / memory_rate

    points = []
    for kernel in trace.kernels:
        compute_ns = (kernel.flops + gpu.ramp_flops) / compute_rate * 1e9
        memory_ns = (kernel.bytes_moved + gpu.ramp_bytes) / memory_rate * 1e9
        if kernel.dur <= gpu.min_kernel_ns * 1.01:
            regime = KernelRegime.LAUNCH_FLOOR
        elif compute_ns >= memory_ns:
            regime = KernelRegime.COMPUTE_BOUND
        else:
            regime = KernelRegime.MEMORY_BOUND
        points.append(KernelRooflinePoint(
            name=kernel.name,
            flops=kernel.flops,
            bytes_moved=kernel.bytes_moved,
            duration_ns=kernel.dur,
            regime=regime,
        ))
    return RooflineReport(gpu=gpu.name, ridge_intensity=ridge, points=points)
