"""Unit-conversion helpers."""

import pytest

from repro import units


def test_constants_are_consistent():
    assert units.US == 1_000 * units.NS
    assert units.MS == 1_000 * units.US
    assert units.SEC == 1_000 * units.MS


def test_round_trips():
    assert units.ns_to_ms(units.ms_to_ns(0.25)) == pytest.approx(0.25)


@pytest.mark.parametrize("value,expected", [
    (500, "500.0 ns"),
    (1_500, "1.50 us"),
    (2_500_000, "2.50 ms"),
    (3_200_000_000, "3.200 s"),
])
def test_format_ns(value, expected):
    assert units.format_ns(value) == expected


@pytest.mark.parametrize("value,expected", [
    (512, "512 B"),
    (2_048, "2.00 KiB"),
    (3 * 1024**2, "3.00 MiB"),
    (5 * 1024**3, "5.00 GiB"),
])
def test_format_bytes(value, expected):
    assert units.format_bytes(value) == expected


def test_format_ns_boundary_units():
    # Exactly 1 us should already render in us, not ns.
    assert units.format_ns(1_000) == "1.00 us"
    assert units.format_ns(1_000_000) == "1.00 ms"
