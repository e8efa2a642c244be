"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A model, platform, or engine configuration is invalid."""


class TraceError(ReproError):
    """A trace is malformed or cannot be parsed."""


class AnalysisError(ReproError):
    """An analysis (metrics, classification, mining) received invalid input."""


class SimulationError(ReproError):
    """The discrete-event engine entered an inconsistent state."""


def require_positive(config: object, *names: str) -> None:
    """Refuse a named field of ``config`` unless it is positive and finite.

    The comparison fails on NaN, so NaN is refused too.

    Raises:
        ConfigurationError: naming the first field out of bounds.
    """
    for name in names:
        if not 0 < getattr(config, name) < math.inf:
            raise ConfigurationError(f"{name} must be positive and finite")


def require_non_negative(config: object, *names: str) -> None:
    """Refuse a named field of ``config`` unless it is non-negative and
    finite (NaN included).

    Raises:
        ConfigurationError: naming the first field out of bounds.
    """
    for name in names:
        if not 0 <= getattr(config, name) < math.inf:
            raise ConfigurationError(
                f"{name} must be non-negative and finite")
