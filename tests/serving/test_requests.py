"""Request streams."""

import pytest

from repro.errors import ConfigurationError
from repro.serving import Request, poisson_requests


def test_poisson_stream_is_deterministic_per_seed():
    a = poisson_requests(10, 2, seed=42)
    b = poisson_requests(10, 2, seed=42)
    assert [r.arrival_ns for r in a] == [r.arrival_ns for r in b]


def test_poisson_rate_roughly_matches():
    requests = poisson_requests(50, 20, seed=0)
    assert len(requests) == pytest.approx(1000, rel=0.2)


def test_arrivals_sorted_and_within_duration():
    requests = poisson_requests(20, 3, seed=1)
    arrivals = [r.arrival_ns for r in requests]
    assert arrivals == sorted(arrivals)
    assert all(0 <= a < 3e9 for a in arrivals)


def test_jitter_bounds():
    requests = poisson_requests(50, 5, prompt_len=100, prompt_jitter=20,
                                output_tokens=10, output_jitter=5, seed=2)
    assert all(80 <= r.prompt_len <= 120 for r in requests)
    assert all(5 <= r.output_tokens <= 15 for r in requests)


def test_request_ids_sequential():
    requests = poisson_requests(30, 2, seed=3)
    assert [r.request_id for r in requests] == list(range(len(requests)))


def test_invalid_request_fields():
    with pytest.raises(ConfigurationError):
        Request(0, -1.0, 10, 10)
    with pytest.raises(ConfigurationError):
        Request(0, 0.0, 0, 10)
    with pytest.raises(ConfigurationError):
        Request(0, 0.0, 10, 0)


def test_invalid_stream_parameters():
    with pytest.raises(ConfigurationError):
        poisson_requests(0, 1)
    with pytest.raises(ConfigurationError):
        poisson_requests(1, 0)
    # A non-positive base length is rejected, not clamped to 1 like a
    # jittered one.
    for lengths in ({"prompt_len": 0}, {"prompt_len": -5},
                    {"output_tokens": 0}):
        with pytest.raises(ConfigurationError, match="must be positive"):
            poisson_requests(10, 1, **lengths)
    for jitter in ({"prompt_jitter": -1}, {"output_jitter": -1}):
        with pytest.raises(ConfigurationError, match="non-negative"):
            poisson_requests(10, 1, **jitter)
