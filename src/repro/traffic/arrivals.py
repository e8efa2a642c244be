"""Seeded arrival processes for cluster-scale serving workloads.

The serving stack historically replayed fixed request lists generated by
:func:`repro.serving.requests.poisson_requests`. At cluster scale the
*shape* of the arrival process is a first-order input — bursty traffic is
what separates routing policies, and diurnal load is what autoscaling
responds to — so the families live here as explicit, seeded processes:

* ``POISSON`` — memoryless arrivals at a constant rate (the classic open
  workload). The sampling loop mirrors ``poisson_requests`` exactly, so a
  fixed-arrival scenario built from it is bit-identical to the legacy list.
* ``BURSTY`` — a two-state Markov-modulated Poisson process (MMPP): the
  stream alternates between a base state and a burst state whose rate is
  ``burst_multiplier``× higher. The base rate is normalized so the
  *time-averaged* rate still equals ``rate_per_s``.
* ``DIURNAL`` — an inhomogeneous Poisson process with a sinusoidal rate
  profile ``rate * (1 + amplitude * sin(2πt/period))``, sampled by
  thinning against the peak rate. Over whole periods the expected count is
  exactly ``rate * duration`` (the rate-conservation property the
  hypothesis suite locks).
* ``FIXED`` — no process at all: an explicit request list replayed as-is
  (every pre-cluster scenario is a ``FIXED`` instance).

All families draw from one ``random.Random(seed)`` stream, so a spec is a
complete, deterministic description of its arrival times.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from repro.errors import ConfigurationError, require_positive


class ArrivalFamily(enum.Enum):
    """Which arrival process generates the stream."""

    FIXED = "fixed"        # explicit request list, replayed as-is
    POISSON = "poisson"    # constant-rate memoryless arrivals
    BURSTY = "bursty"      # two-state MMPP, mean rate preserved
    DIURNAL = "diurnal"    # sinusoidal rate, sampled by thinning


@dataclass(frozen=True)
class ArrivalSpec:
    """One arrival process, fully determined by its parameters and seed.

    Attributes:
        family: Which process to sample.
        rate_per_s: Time-averaged arrival rate (all families preserve it).
        duration_s: Stream length; arrivals past it are dropped.
        seed: RNG seed — equal specs produce equal streams.
        burst_multiplier: BURSTY — burst-state rate over base-state rate.
        burst_fraction: BURSTY — long-run fraction of time in burst state.
        burst_dwell_s: BURSTY — mean dwell time of one burst episode.
        amplitude: DIURNAL — relative swing of the sinusoidal rate, in
            ``[0, 1)`` so the instantaneous rate never hits zero.
        period_s: DIURNAL — cycle length; defaults to ``duration_s`` (one
            full "day" per stream).
    """

    family: ArrivalFamily = ArrivalFamily.POISSON
    rate_per_s: float = 50.0
    duration_s: float = 1.0
    seed: int = 0
    burst_multiplier: float = 4.0
    burst_fraction: float = 0.25
    burst_dwell_s: float = 0.05
    amplitude: float = 0.8
    period_s: float | None = None

    def __post_init__(self) -> None:
        require_positive(self, "rate_per_s", "duration_s", "burst_dwell_s")
        if not 1 < self.burst_multiplier < math.inf:
            raise ConfigurationError(
                "burst_multiplier must exceed 1 and be finite")
        if not 0 < self.burst_fraction < 1:
            raise ConfigurationError("burst_fraction must be in (0, 1)")
        if not 0 <= self.amplitude < 1:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if self.period_s is not None:
            require_positive(self, "period_s")


def arrival_times_ns(spec: ArrivalSpec) -> list[float]:
    """Sample the spec's arrival process; times in ns, strictly ordered."""
    rng = random.Random(spec.seed)
    if spec.family is ArrivalFamily.POISSON:
        return _poisson(spec, rng)
    if spec.family is ArrivalFamily.BURSTY:
        return _bursty(spec, rng)
    if spec.family is ArrivalFamily.DIURNAL:
        return _diurnal(spec, rng)
    raise ConfigurationError(
        "fixed arrivals replay an explicit request list; there is no "
        "process to sample")


def _poisson(spec: ArrivalSpec, rng: random.Random) -> list[float]:
    # Same loop as repro.serving.requests.poisson_requests, so a FIXED
    # scenario wrapping that generator and a POISSON spec at the same seed
    # describe the same stream.
    times: list[float] = []
    clock_s = 0.0
    while True:
        clock_s += rng.expovariate(spec.rate_per_s)
        if clock_s >= spec.duration_s:
            break
        times.append(clock_s * 1e9)
    return times


def _bursty(spec: ArrivalSpec, rng: random.Random) -> list[float]:
    # Two-state MMPP. Normalize the base rate so the long-run average is
    # rate_per_s: mean rate = base * ((1 - f) + m * f).
    f = spec.burst_fraction
    base_rate = spec.rate_per_s / ((1.0 - f) + spec.burst_multiplier * f)
    dwell_burst = spec.burst_dwell_s
    # Long-run burst fraction f requires E[base dwell] = burst * (1-f)/f.
    dwell_base = dwell_burst * (1.0 - f) / f
    times: list[float] = []
    in_burst = False
    clock_s = 0.0
    while clock_s < spec.duration_s:
        dwell = rng.expovariate(
            1.0 / (dwell_burst if in_burst else dwell_base))
        state_end = min(clock_s + dwell, spec.duration_s)
        rate = base_rate * (spec.burst_multiplier if in_burst else 1.0)
        t = clock_s
        while True:
            t += rng.expovariate(rate)
            if t >= state_end:
                break
            times.append(t * 1e9)
        clock_s = state_end
        in_burst = not in_burst
    return times


def _diurnal(spec: ArrivalSpec, rng: random.Random) -> list[float]:
    # Thinning (Lewis–Shedler): sample at the peak rate, keep each point
    # with probability rate(t) / peak.
    period = spec.period_s if spec.period_s is not None else spec.duration_s
    peak = spec.rate_per_s * (1.0 + spec.amplitude)
    times: list[float] = []
    clock_s = 0.0
    while True:
        clock_s += rng.expovariate(peak)
        if clock_s >= spec.duration_s:
            break
        rate = spec.rate_per_s * (
            1.0 + spec.amplitude * math.sin(2.0 * math.pi * clock_s / period))
        if rng.random() * peak <= rate:
            times.append(clock_s * 1e9)
    return times
