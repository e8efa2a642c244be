"""GPU model.

Kernel durations follow a roofline with size-dependent efficiency:

``duration = max(min_kernel_ns, flops / eff_flops, bytes / eff_bandwidth)``

where the effective rates ramp up with kernel size (small kernels cannot fill
the machine). The ramp is the standard saturating form ``x / (x + ramp)``,
so a GEMM with ``ramp_flops`` useful FLOPs runs at half the sustained rate.

``min_kernel_ns`` is the nullKernel duration of Table V — the floor any kernel
pays for scheduling/teardown on that GPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GIGA, TERA


@dataclass(frozen=True)
class GpuSpec:
    """A GPU participating in a coupled platform.

    Attributes:
        name: Marketing name.
        fp16_tflops: Peak dense FP16 tensor throughput (TFLOP/s).
        sustain: Fraction of peak sustainable under the board's power cap
            (e.g. the 350 W H100 PCIe sustains far less than its datasheet
            peak; the 900 W GH200 module sustains close to peak).
        hbm_bandwidth_gbs: Peak HBM bandwidth (GB/s).
        bandwidth_sustain: Achievable fraction of peak bandwidth.
        min_kernel_ns: nullKernel execution duration (Table V floor).
        ramp_flops: FLOP count at which compute efficiency reaches 50%.
        ramp_bytes: Byte count at which bandwidth efficiency reaches 50%.
        memory_gib: HBM capacity (informational).
    """

    name: str
    fp16_tflops: float
    sustain: float
    hbm_bandwidth_gbs: float
    bandwidth_sustain: float
    min_kernel_ns: float
    ramp_flops: float = 1.2e9
    ramp_bytes: float = 1.5e6
    memory_gib: int = 80

    def __post_init__(self) -> None:
        if self.fp16_tflops <= 0 or self.hbm_bandwidth_gbs <= 0:
            raise ConfigurationError(f"{self.name}: rates must be positive")
        if not (0 < self.sustain <= 1) or not (0 < self.bandwidth_sustain <= 1):
            raise ConfigurationError(f"{self.name}: sustain fractions must be in (0, 1]")
        if self.min_kernel_ns <= 0:
            raise ConfigurationError(f"{self.name}: min_kernel_ns must be positive")

    # ------------------------------------------------------------------
    # Effective rates
    # ------------------------------------------------------------------
    def compute_efficiency(self, flops: float) -> float:
        """Fraction of sustained FLOP rate achieved by a kernel of this size."""
        if flops <= 0:
            return 0.0
        return flops / (flops + self.ramp_flops)

    def bandwidth_efficiency(self, bytes_moved: float) -> float:
        """Fraction of sustained bandwidth achieved by a kernel of this size."""
        if bytes_moved <= 0:
            return 0.0
        return bytes_moved / (bytes_moved + self.ramp_bytes)

    def kernel_duration_ns(self, flops: float, bytes_moved: float,
                           floor_scale: float = 1.0) -> float:
        """Roofline duration of a kernel on this GPU, in nanoseconds.

        ``floor_scale`` scales the per-kernel scheduling floor; CUDA-graph
        replay pre-encodes launch descriptors and pays roughly half the
        front-end cost of an individually launched kernel.
        """
        if flops < 0 or bytes_moved < 0:
            raise ConfigurationError("kernel work must be non-negative")
        if floor_scale <= 0:
            raise ConfigurationError("floor_scale must be positive")
        # With the saturating efficiency x/(x+ramp), the roofline term
        # work / (rate * eff(work)) reduces exactly to (work + ramp) / rate,
        # which is numerically stable for arbitrarily small work.
        compute_ns = 0.0
        if flops > 0:
            compute_rate = self.fp16_tflops * TERA * self.sustain / GIGA
            compute_ns = (flops + self.ramp_flops) / compute_rate
        memory_ns = 0.0
        if bytes_moved > 0:
            memory_rate = self.hbm_bandwidth_gbs * self.bandwidth_sustain
            memory_ns = (bytes_moved + self.ramp_bytes) / memory_rate
        return max(self.min_kernel_ns * floor_scale, compute_ns, memory_ns)
