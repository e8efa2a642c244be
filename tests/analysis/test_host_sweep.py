"""Replicas-per-host sweep: the paper platforms knee at different counts."""

import pytest

from repro.analysis import (
    DEFAULT_REPLICA_COUNTS,
    replicas_per_host_report,
    run_replicas_per_host,
    scaled_host_spec,
)
from repro.errors import AnalysisError
from repro.hardware import HOST_SPECS, PAPER_PLATFORMS, get_platform
from repro.workloads import GPT2


@pytest.fixture(scope="module")
def sweep():
    return run_replicas_per_host(GPT2, PAPER_PLATFORMS)


def test_scaled_spec_shrinks_cores_but_keeps_topology():
    spec = HOST_SPECS["AMD+A100"]
    small = scaled_host_spec(spec, 16)
    assert small.cores_per_socket == 1
    assert (small.sockets, small.remote_penalty) == (2, 1.3)
    assert scaled_host_spec(spec, 10_000).cores_per_socket == 1
    with pytest.raises(AnalysisError):
        scaled_host_spec(spec, 0)


def test_sweep_validates_inputs():
    amd = [get_platform("AMD+A100")]
    with pytest.raises(AnalysisError):
        run_replicas_per_host(GPT2, [])
    with pytest.raises(AnalysisError):
        run_replicas_per_host(GPT2, amd, counts=())
    with pytest.raises(AnalysisError):
        run_replicas_per_host(GPT2, amd, counts=(2, 2, 4))
    with pytest.raises(AnalysisError):
        run_replicas_per_host(GPT2, amd, counts=(0, 1))


def test_sweep_covers_every_cell(sweep):
    assert sweep.counts == DEFAULT_REPLICA_COUNTS
    assert sweep.platforms() == [p.name for p in PAPER_PLATFORMS]
    for platform in sweep.platforms():
        series = sweep.series(platform)
        assert [p.replicas for p in series] == list(DEFAULT_REPLICA_COUNTS)
        assert all(p.tokens_per_s > 0 for p in series)
        assert all(p.grants > 0 for p in series)
        assert all(0.0 <= p.stall_share < 1.0 for p in series)
    with pytest.raises(AnalysisError):
        sweep.point("AMD+A100", 99)


def test_knees_are_locked_per_platform(sweep):
    # The acceptance anchor: the three platforms knee at *different*
    # replica counts because their hosts differ in kind — fixed-socket
    # x86 pools saturate, the GH200 superchip brings a Grace per GPU.
    assert sweep.knees == {"AMD+A100": 2, "Intel+H100": 6, "GH200": 8}


def test_gh200_sustains_the_most_replicas(sweep):
    gh200 = sweep.knees["GH200"]
    assert gh200 == max(sweep.knees.values())
    assert all(gh200 > knee for name, knee in sweep.knees.items()
               if name != "GH200")
    # And it never saturates inside the sweep: the knee is the last count.
    assert gh200 == DEFAULT_REPLICA_COUNTS[-1]


def test_x86_hosts_pay_stalls_past_their_knee(sweep):
    for platform in ("AMD+A100", "Intel+H100"):
        knee = sweep.knees[platform]
        past = [p for p in sweep.series(platform) if p.replicas > knee]
        assert past, f"{platform} knee leaves no post-knee cells"
        assert all(p.stall_ns > 0 for p in past)


def test_report_names_knees_and_winner(sweep):
    report = replicas_per_host_report(sweep)
    assert "knee: 2 replicas" in report
    assert "knee: 6 replicas" in report
    assert "GH200 sustains the most replicas per host" in report
    for platform in sweep.platforms():
        assert platform in report
