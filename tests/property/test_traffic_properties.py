"""Property-based tests for the arrival generators and traffic tagging.

The laws that must hold for *any* spec, not just the canonical ones:

* a spec is a complete description of its stream (seed determinism);
* times are strictly inside the window and non-decreasing;
* every family is time-average-rate preserving (Poisson trivially,
  BURSTY by base-rate normalization, DIURNAL by thinning over whole
  periods);
* tagging never moves an arrival or resamples a length.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.traffic import (
    ArrivalFamily,
    ArrivalSpec,
    PrefixSpec,
    TrafficConfig,
    arrival_times_ns,
    generate_traffic,
)

families = st.sampled_from([ArrivalFamily.POISSON, ArrivalFamily.BURSTY,
                            ArrivalFamily.DIURNAL])


@st.composite
def specs(draw):
    return ArrivalSpec(
        family=draw(families),
        rate_per_s=draw(st.floats(10.0, 2000.0)),
        duration_s=draw(st.floats(0.01, 0.5)),
        seed=draw(st.integers(0, 2**16)),
        burst_multiplier=draw(st.floats(1.5, 16.0)),
        burst_fraction=draw(st.floats(0.05, 0.95)),
        burst_dwell_s=draw(st.floats(0.005, 0.1)),
        amplitude=draw(st.floats(0.0, 0.99)),
        period_s=draw(st.one_of(st.none(), st.floats(0.01, 0.5))),
    )


@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_a_spec_fully_determines_its_stream(spec):
    assert arrival_times_ns(spec) == arrival_times_ns(spec)


@given(spec=specs())
@settings(max_examples=60, deadline=None)
def test_times_are_sorted_and_inside_the_window(spec):
    times = arrival_times_ns(spec)
    assert times == sorted(times)
    assert all(0.0 < t < spec.duration_s * 1e9 for t in times)


@given(rate=st.floats(200.0, 1500.0), seeds=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_poisson_interarrival_mean_tracks_the_rate(rate, seeds):
    # Pool interarrivals over a batch of seeds so the sample mean is
    # tight enough for a 20% tolerance at any drawn rate.
    gaps = []
    for seed in range(seeds, seeds + 8):
        times = arrival_times_ns(ArrivalSpec(
            family=ArrivalFamily.POISSON, rate_per_s=rate, duration_s=1.0,
            seed=seed))
        gaps.extend(b - a for a, b in zip(times, times[1:]))
    mean_gap_s = (sum(gaps) / len(gaps)) / 1e9
    assert abs(mean_gap_s - 1.0 / rate) * rate < 0.2


def _mmpp_count_variance_per_s(rate, mult, frac, dwell_burst_s):
    """Long-run ``Var[N(T)] / T`` of the generator's two-state MMPP.

    For state rates ``l0 < l1``, stationary burst share ``f`` and total
    switching rate ``r`` (burst exit plus base exit), the count variance
    grows as ``T * (rate + 2 * (l1 - l0)**2 * f * (1 - f) / r)``: Poisson
    noise plus the slowly mixing time share of the burst state.
    """
    base = rate / ((1.0 - frac) + mult * frac)
    switching = 1.0 / dwell_burst_s + frac / (dwell_burst_s * (1.0 - frac))
    return rate + 2.0 * (base * (mult - 1.0)) ** 2 * frac * (1.0 - frac) / switching


@given(mult=st.floats(2.0, 12.0), frac=st.floats(0.1, 0.9),
       base_seed=st.integers(0, 100))
@example(mult=8.8125, frac=0.140625, base_seed=12)
@example(mult=11.375, frac=0.1, base_seed=23)
@settings(max_examples=15, deadline=None)
def test_bursty_time_average_rate_is_preserved(mult, frac, base_seed):
    # Rare, intense bursts make one second of stream far noisier than
    # Poisson. Size the stream from the MMPP's count variance so the
    # tolerance sits six standard errors out; the stream starts in the base
    # state, which biases the count low by at most ~3% at one second.
    rate, tolerance, seeds, z = 600.0, 0.25, 10, 6.0
    variance = _mmpp_count_variance_per_s(rate, mult, frac,
                                          ArrivalSpec().burst_dwell_s)
    stream_s = z * z * variance / (tolerance * rate) ** 2
    duration = max(1.0, stream_s / seeds)
    counts = [len(arrival_times_ns(ArrivalSpec(
        family=ArrivalFamily.BURSTY, rate_per_s=rate, duration_s=duration,
        seed=base_seed + i, burst_multiplier=mult, burst_fraction=frac)))
        for i in range(seeds)]
    mean = sum(counts) / len(counts)
    assert abs(mean - rate * duration) / (rate * duration) < tolerance


@given(amplitude=st.floats(0.0, 0.95), periods=st.integers(1, 8),
       base_seed=st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_diurnal_conserves_rate_over_whole_periods(amplitude, periods,
                                                   base_seed):
    rate, duration = 500.0, 1.0
    counts = [len(arrival_times_ns(ArrivalSpec(
        family=ArrivalFamily.DIURNAL, rate_per_s=rate, duration_s=duration,
        period_s=duration / periods, amplitude=amplitude,
        seed=base_seed + i))) for i in range(10)]
    mean = sum(counts) / len(counts)
    assert abs(mean - rate * duration) / (rate * duration) < 0.25


@given(share=st.floats(0.0, 1.0), sessions=st.integers(0, 12),
       tenants=st.integers(1, 5), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_tagging_is_independent_of_arrivals_and_lengths(share, sessions,
                                                        tenants, seed):
    arrivals = ArrivalSpec(family=ArrivalFamily.BURSTY, rate_per_s=500.0,
                           duration_s=0.05, seed=seed)
    plain = generate_traffic(TrafficConfig(
        arrivals=arrivals, prompt_jitter=48, output_jitter=12))
    tagged = generate_traffic(TrafficConfig(
        arrivals=arrivals, prompt_jitter=48, output_jitter=12,
        prefix=PrefixSpec(share=share, prefix_len=64),
        sessions=sessions, tenants=tenants))
    assert [r.arrival_ns for r in plain] == [r.arrival_ns for r in tagged]
    assert [r.output_tokens for r in plain] == [r.output_tokens
                                                for r in tagged]
    for p, t in zip(plain, tagged):
        assert t.prompt_len - t.prefix_len == p.prompt_len
        if t.prefix_hash is None:
            assert t.prefix_len == 0
        else:
            assert t.prefix_len == 64
