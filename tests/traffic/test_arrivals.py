"""Arrival processes: determinism, ordering, rate laws, validation."""

import pytest

from repro.errors import ConfigurationError
from repro.serving.requests import poisson_requests
from repro.traffic import ArrivalFamily, ArrivalSpec, arrival_times_ns

NAN, INF = float("nan"), float("inf")
FAMILIES = [ArrivalFamily.POISSON, ArrivalFamily.BURSTY,
            ArrivalFamily.DIURNAL]


@pytest.mark.parametrize("family", FAMILIES)
def test_equal_specs_produce_equal_streams(family):
    spec = ArrivalSpec(family=family, rate_per_s=300.0, duration_s=0.5,
                       seed=11)
    assert arrival_times_ns(spec) == arrival_times_ns(spec)


@pytest.mark.parametrize("family", FAMILIES)
def test_seed_changes_the_stream(family):
    a = ArrivalSpec(family=family, rate_per_s=300.0, duration_s=0.5, seed=1)
    b = ArrivalSpec(family=family, rate_per_s=300.0, duration_s=0.5, seed=2)
    assert arrival_times_ns(a) != arrival_times_ns(b)


@pytest.mark.parametrize("family", FAMILIES)
def test_times_ordered_and_inside_the_window(family):
    spec = ArrivalSpec(family=family, rate_per_s=500.0, duration_s=0.25,
                       seed=5)
    times = arrival_times_ns(spec)
    assert times == sorted(times)
    assert all(0.0 < t < spec.duration_s * 1e9 for t in times)


def test_poisson_matches_legacy_request_generator():
    # Same sampling loop, same seed -> the exact arrival instants
    # poisson_requests hands the serving stack.
    spec = ArrivalSpec(family=ArrivalFamily.POISSON, rate_per_s=200.0,
                       duration_s=0.5, seed=3)
    legacy = poisson_requests(rate_per_s=200.0, duration_s=0.5,
                              prompt_len=64, output_tokens=8, seed=3)
    assert arrival_times_ns(spec) == [r.arrival_ns for r in legacy]


def test_bursty_preserves_the_mean_rate():
    # Average over seeds: the MMPP's long-run rate is rate_per_s.
    expected = 400.0 * 1.0
    counts = [len(arrival_times_ns(ArrivalSpec(
        family=ArrivalFamily.BURSTY, rate_per_s=400.0, duration_s=1.0,
        seed=seed))) for seed in range(20)]
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) / expected < 0.15


def test_bursty_is_burstier_than_poisson():
    # Coefficient of variation of interarrivals: MMPP > exponential.
    def cv(family):
        times = arrival_times_ns(ArrivalSpec(
            family=family, rate_per_s=500.0, duration_s=2.0, seed=9,
            burst_multiplier=8.0, burst_fraction=0.2))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        return var ** 0.5 / mean

    assert cv(ArrivalFamily.BURSTY) > cv(ArrivalFamily.POISSON)


def test_diurnal_conserves_rate_over_whole_periods():
    # Thinning against the peak keeps E[count] = rate * duration over
    # complete periods.
    expected = 300.0 * 1.0
    counts = [len(arrival_times_ns(ArrivalSpec(
        family=ArrivalFamily.DIURNAL, rate_per_s=300.0, duration_s=1.0,
        period_s=0.25, amplitude=0.9, seed=seed))) for seed in range(20)]
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) / expected < 0.15


def test_fixed_has_no_process_to_sample():
    spec = ArrivalSpec(family=ArrivalFamily.FIXED)
    with pytest.raises(ConfigurationError, match="explicit request list"):
        arrival_times_ns(spec)


@pytest.mark.parametrize("kwargs", [
    dict(rate_per_s=0.0),
    dict(rate_per_s=-3.0),
    dict(duration_s=0.0),
    dict(burst_multiplier=1.0),
    dict(burst_fraction=0.0),
    dict(burst_fraction=1.0),
    dict(burst_dwell_s=0.0),
    dict(amplitude=-0.1),
    dict(amplitude=1.0),
    dict(period_s=0.0),
    dict(rate_per_s=NAN),
    dict(duration_s=NAN),
    dict(burst_multiplier=NAN),
    dict(burst_fraction=NAN),
    dict(burst_dwell_s=NAN),
    dict(amplitude=NAN),
    dict(period_s=NAN),
    dict(rate_per_s=INF),
    dict(duration_s=INF),
])
def test_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ArrivalSpec(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(rate_per_s=0.0, duration_s=1.0),
    dict(rate_per_s=NAN, duration_s=1.0),
    dict(rate_per_s=10.0, duration_s=NAN),
    dict(rate_per_s=INF, duration_s=1.0),
    dict(rate_per_s=10.0, duration_s=INF),
])
def test_poisson_requests_validation(kwargs):
    """NaN and infinity fail the guard: the stream would never end."""
    with pytest.raises(ConfigurationError, match="must be positive"):
        poisson_requests(**kwargs)
