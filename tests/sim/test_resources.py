"""Stream, device, and link resource models."""

import pytest

from repro.errors import SimulationError
from repro.hardware.interconnect import NVLINK4_P2P, InterconnectSpec
from repro.sim import GpuDevice, LinkResource, StreamResource


# ----------------------------------------------------------------------
# StreamResource
# ----------------------------------------------------------------------
def test_first_kernel_pays_no_gap():
    stream = StreamResource()
    start, end = stream.submit(100.0, 50.0, gap_ns=700.0)
    assert (start, end) == (100.0, 150.0)


def test_back_to_back_kernels_pay_the_gap():
    stream = StreamResource()
    stream.submit(0.0, 100.0, gap_ns=700.0)
    start, _ = stream.submit(0.0, 10.0, gap_ns=700.0)
    assert start == 800.0  # free_at 100 + gap 700


def test_late_arrival_dominates_gap():
    stream = StreamResource()
    stream.submit(0.0, 100.0, gap_ns=700.0)
    start, _ = stream.submit(5000.0, 10.0, gap_ns=700.0)
    assert start == 5000.0


def test_earliest_start_matches_submit_without_mutating():
    stream = StreamResource()
    stream.submit(0.0, 100.0, gap_ns=700.0)
    predicted = stream.earliest_start(300.0, gap_ns=700.0)
    assert stream.kernel_count == 1  # not mutated
    start, _ = stream.submit(300.0, 10.0, gap_ns=700.0)
    assert start == predicted


def test_accounting_accumulates():
    stream = StreamResource()
    stream.submit(0.0, 40.0)
    stream.submit(0.0, 60.0)
    assert stream.busy_ns == 100.0
    assert stream.kernel_count == 2
    assert stream.free_at == 100.0
    assert stream.nth_start(1) == 40.0
    with pytest.raises(SimulationError):
        stream.nth_start(2)


def test_invalid_submissions_rejected():
    stream = StreamResource()
    with pytest.raises(SimulationError):
        stream.submit(0.0, -1.0)
    with pytest.raises(SimulationError):
        stream.submit(-1.0, 1.0)
    with pytest.raises(SimulationError):
        stream.submit(0.0, 1.0, gap_ns=-1.0)


# ----------------------------------------------------------------------
# GpuDevice
# ----------------------------------------------------------------------
def test_device_defaults_to_one_compute_stream():
    device = GpuDevice(index=2)
    assert len(device.streams) == 1
    assert device.compute_stream.stream_id == 7
    assert device.compute_stream.device == 2


# ----------------------------------------------------------------------
# LinkResource ring all-reduce model
# ----------------------------------------------------------------------
def test_allreduce_zero_cases():
    link = LinkResource(spec=NVLINK4_P2P)
    assert link.allreduce_ns(1 << 20, world=1) == 0.0
    assert link.allreduce_ns(0.0, world=8) == 0.0


def test_allreduce_matches_ring_formula():
    spec = InterconnectSpec(name="test", bandwidth_gbs=100.0,
                            base_latency_ns=500.0, submission_ns=0.0)
    link = LinkResource(spec=spec)
    message, world = 1e6, 4
    expected = 2 * (world - 1) * (500.0 + (message / world) / 100.0)
    assert link.allreduce_ns(message, world) == pytest.approx(expected)


def test_allreduce_invalid_inputs_rejected():
    link = LinkResource(spec=NVLINK4_P2P)
    with pytest.raises(SimulationError):
        link.allreduce_ns(-1.0, world=2)
    with pytest.raises(SimulationError):
        link.allreduce_ns(1.0, world=0)


def test_link_records_occupancy():
    link = LinkResource(spec=NVLINK4_P2P)
    with pytest.raises(SimulationError):
        link.record(-1.0)
