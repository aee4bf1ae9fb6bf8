"""Unit conventions and conversions.

The library-wide conventions are:

- time: seconds (float)
- energy: joules (float)
- power: watts (float)
- frequency: MHz in specs (the paper speaks in MHz gears); converted to Hz
  at the arithmetic boundary via :func:`mhz_to_hz`
- data sizes: bytes (int); ``KIB``/``MIB`` helpers for specs
- network bandwidth: bytes/second

The tiny validating constructors (:func:`seconds`, :func:`joules`,
:func:`watts`) are used at module boundaries where a negative or
non-finite value would silently corrupt an integral downstream.
"""

from __future__ import annotations

import math

from repro.util.errors import ConfigurationError

#: One megahertz expressed in hertz.
MHZ = 1.0e6
#: One gigahertz expressed in hertz.
GHZ = 1.0e9
#: One microsecond expressed in seconds.
US = 1.0e-6
#: One millisecond expressed in seconds.
MS = 1.0e-3
#: One kibibyte in bytes.
KIB = 1024
#: One mebibyte in bytes.
MIB = 1024 * 1024


def mhz_to_hz(mhz: float) -> float:
    """Convert a frequency in MHz to Hz."""
    return mhz * MHZ


def hz_to_mhz(hz: float) -> float:
    """Convert a frequency in Hz to MHz."""
    return hz / MHZ


def _validated(value: float, name: str, *, allow_zero: bool = True) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if value < 0 or (value == 0 and not allow_zero):
        bound = "non-negative" if allow_zero else "positive"
        raise ConfigurationError(f"{name} must be {bound}, got {value!r}")
    return value


def is_amount(value: object) -> bool:
    """Whether ``value`` is a finite, non-negative int or float.

    Bools are excluded.  The type-strict check for a quantity read back
    from untrusted data (a cache entry), where a string, NaN or negative
    number would otherwise pass straight into a result.
    """
    return (type(value) is float or type(value) is int) and (
        0 <= value < math.inf  # type: ignore[operator]
    )


def seconds(value: float) -> float:
    """Validate and return a non-negative, finite duration in seconds."""
    return _validated(value, "time (seconds)")


def joules(value: float) -> float:
    """Validate and return a non-negative, finite energy in joules."""
    return _validated(value, "energy (joules)")


def watts(value: float) -> float:
    """Validate and return a non-negative, finite power in watts."""
    return _validated(value, "power (watts)")
