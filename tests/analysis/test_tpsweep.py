"""Tensor-parallel degree sweeps."""

import pytest

from repro.analysis import run_tp_sweep, tp_sweep_report
from repro.engine import EngineConfig, TPConfig
from repro.errors import AnalysisError, ConfigurationError
from repro.hardware import INTEL_H100
from repro.skip import SkipProfiler
from repro.workloads import GPT2

_CONFIG = EngineConfig(iterations=1)
_DEGREES = (1, 2, 4)


def _sweep(degrees=_DEGREES):
    return run_tp_sweep(GPT2, INTEL_H100, batch_size=2, degrees=degrees,
                        seq_len=64, engine_config=_CONFIG)


@pytest.fixture(scope="module")
def sweep():
    return _sweep()


def test_points_come_back_in_degree_order(sweep):
    assert sweep.degrees == _DEGREES
    assert [p.degree for p in sweep.points] == list(_DEGREES)
    assert (sweep.model, sweep.platform, sweep.batch_size) == (
        "gpt2", "Intel+H100", 2)


def test_each_point_has_one_device_per_degree(sweep):
    for point in sweep.points:
        assert len(point.devices) == point.degree


def test_tp1_point_is_a_direct_profile(sweep):
    direct = SkipProfiler(INTEL_H100, _CONFIG).profile(
        GPT2, batch_size=2, seq_len=64, tp=TPConfig(1)).metrics
    assert sweep.point(1).metrics == direct


def test_speedup_is_the_latency_ratio_to_tp1(sweep):
    baseline = sweep.point(1).latency_ns
    for degree in _DEGREES:
        assert sweep.speedup(degree) == baseline / sweep.point(degree).latency_ns
    assert sweep.latency_series() == [sweep.point(d).latency_ns
                                      for d in _DEGREES]


def test_best_degree_has_the_lowest_latency(sweep):
    fastest = min(sweep.points, key=lambda p: p.latency_ns)
    assert sweep.best_degree() == fastest.degree
    assert all(sweep.point(sweep.best_degree()).latency_ns <= p.latency_ns
               for p in sweep.points)


def test_report_names_every_degree_and_the_best(sweep):
    report = tp_sweep_report(sweep)
    for degree in _DEGREES:
        assert f"TP={degree:<2} IL=" in report
    assert report.splitlines()[-1] == f"best degree: TP={sweep.best_degree()}"


def test_empty_degrees_rejected():
    with pytest.raises(AnalysisError):
        _sweep(degrees=())


def test_degree_that_does_not_divide_the_heads_rejected():
    # gpt2 has 12 attention heads.
    with pytest.raises(ConfigurationError):
        _sweep(degrees=(1, 5))
