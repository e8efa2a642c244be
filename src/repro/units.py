"""Time and size units used throughout the library.

All timestamps and durations in traces are integer/float nanoseconds, matching
the resolution of CUPTI events that the paper's SKIP tool consumes. These
helpers keep unit conversions explicit at API boundaries.
"""

from __future__ import annotations

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0

KB = 1_024.0
MB = 1_024.0**2
GB = 1_024.0**3

GIGA = 1e9
TERA = 1e12


def ns_to_ms(value_ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return value_ns / MS


def ms_to_ns(value_ms: float) -> float:
    """Convert milliseconds to nanoseconds."""
    return value_ms * MS


def gib_to_bytes(value_gib: float) -> int:
    """Convert GiB to whole bytes (floored).

    Capacity arithmetic (HBM pools, runtime reserves) works on integer byte
    counts so downstream block math never compares floats for equality.
    """
    return int(value_gib * GB)


def format_ns(value_ns: float) -> str:
    """Render a nanosecond duration with a human-friendly unit.

    >>> format_ns(1500)
    '1.50 us'
    >>> format_ns(2_500_000)
    '2.50 ms'
    """
    if value_ns < US:
        return f"{value_ns:.1f} ns"
    if value_ns < MS:
        return f"{value_ns / US:.2f} us"
    if value_ns < SEC:
        return f"{value_ns / MS:.2f} ms"
    return f"{value_ns / SEC:.3f} s"


def format_bytes(value_bytes: float) -> str:
    """Render a byte count with a human-friendly unit."""
    if value_bytes < KB:
        return f"{value_bytes:.0f} B"
    if value_bytes < MB:
        return f"{value_bytes / KB:.2f} KiB"
    if value_bytes < GB:
        return f"{value_bytes / MB:.2f} MiB"
    return f"{value_bytes / GB:.2f} GiB"
