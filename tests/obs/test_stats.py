"""Counters and histograms."""

import random

import pytest

from repro.errors import AnalysisError
from repro.obs import CounterSet, Histogram


def test_histogram_basic_summary():
    h = Histogram("lat")
    for value in (1.0, 2.0, 3.0, 4.0):
        h.observe(value)
    summary = h.summary()
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.p50 == 2.0
    # Nearest rank: the first value whose rank reaches p% of the count.
    assert [h.percentile(p) for p in (0, 25, 26, 90, 100)] == [
        1.0, 1.0, 2.0, 4.0, 4.0]


def test_summary_percentiles_equal_percentile_exactly():
    rng = random.Random(11)
    h = Histogram("mixed")
    for _ in range(2000):
        # Few distinct values, so most observations tie with another.
        h.observe(rng.choice((0.1, 0.3, 2.5, 7.0)) * rng.randint(1, 40))
    summary = h.summary()
    assert (summary.p50, summary.p90, summary.p99) == (
        h.percentile(50), h.percentile(90), h.percentile(99))
    values = h._values
    assert summary.mean == sum(values) / len(values)
    assert summary.count == len(values) == 2000
    assert (summary.minimum, summary.maximum) == (min(values), max(values))


def test_observe_each_equals_observe_per_value():
    each, one_by_one = Histogram("a"), Histogram("a")
    each.observe(4.0)
    one_by_one.observe(4.0)
    values = [2, 0.5, 9.25, 0.5]
    each.observe_each(values)
    each.observe_each([])
    for value in values:
        one_by_one.observe(value)
    assert each == one_by_one
    assert all(type(v) is float for v in each._values)


def test_histogram_empty_rejected():
    h = Histogram("empty")
    assert h.empty
    with pytest.raises(AnalysisError):
        h.mean()
    with pytest.raises(AnalysisError):
        h.percentile(50)


def test_histogram_invalid_inputs_rejected():
    h = Histogram("bad")
    h.observe(1.0)
    with pytest.raises(AnalysisError):
        h.percentile(101)
    with pytest.raises(AnalysisError):
        h.percentile(-1)


def test_counter_set_accumulates():
    counters = CounterSet()
    counters.add("steps")
    counters.add("steps", 2.0)
    assert counters.get("steps") == 3.0
    assert counters.get("missing") == 0.0
    assert counters.as_dict() == {"steps": 3.0}
    with pytest.raises(AnalysisError):
        counters.add("steps", -1.0)
