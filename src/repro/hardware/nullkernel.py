"""nullKernel micro-benchmark (Table V).

The paper launches an empty kernel repeatedly and reports (a) the launch
overhead — launch-call begin to kernel begin on an idle GPU — and (b) the
kernel's own execution duration. Both expose fixed platform costs that bound
TKLQT from below in the CPU-bound region.

Our model reproduces the measurement procedure: N back-to-back launches on an
idle stream with a sync between each, so no queuing occurs, then averages.
Optional Gaussian jitter models run-to-run measurement noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.platform import Platform


@dataclass(frozen=True)
class NullKernelResult:
    """Averaged nullKernel measurements for one platform (Table V row)."""

    platform: str
    launch_overhead_ns: float
    duration_ns: float
    samples: int

    def as_row(self) -> tuple[str, float, float]:
        return (self.platform, self.launch_overhead_ns, self.duration_ns)


def measure_nullkernel(
    platform: Platform,
    samples: int = 1000,
    jitter_fraction: float = 0.0,
    seed: int = 0,
) -> NullKernelResult:
    """Run the nullKernel micro-benchmark on a platform model.

    Args:
        platform: Platform under test.
        samples: Number of launches to average over.
        jitter_fraction: Relative std-dev of per-sample Gaussian noise
            (0 disables noise and returns the exact model values).
        seed: RNG seed for the jitter.

    Returns:
        Averaged launch overhead and kernel duration.
    """
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    if jitter_fraction < 0:
        raise ConfigurationError("jitter_fraction must be non-negative")

    base_overhead = platform.launch_latency_ns
    base_duration = platform.gpu.min_kernel_ns
    if jitter_fraction == 0.0:
        return NullKernelResult(platform.name, base_overhead, base_duration, samples)

    rng = random.Random(seed)
    overhead_total = 0.0
    duration_total = 0.0
    for _ in range(samples):
        overhead_total += max(0.0, rng.gauss(base_overhead, base_overhead * jitter_fraction))
        duration_total += max(0.0, rng.gauss(base_duration, base_duration * jitter_fraction))
    return NullKernelResult(
        platform.name,
        overhead_total / samples,
        duration_total / samples,
        samples,
    )


def nullkernel_table(
    platforms: tuple[Platform, ...] | list[Platform],
    samples: int = 1000,
    jitter_fraction: float = 0.0,
) -> list[NullKernelResult]:
    """Produce Table V: one nullKernel row per platform."""
    return [measure_nullkernel(p, samples, jitter_fraction) for p in platforms]
