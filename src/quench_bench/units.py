"""Unit conventions and conversions.

Internally every frequency is angular (rad/s), every duration is seconds,
every length is micrometers and every energy figure is joules or kWh.
Ordinary frequencies (MHz, GHz) appear only at config/CLI boundaries and are
converted here, which keeps the factor of 2*pi in exactly one place.
"""

from __future__ import annotations

import math
import re

from .errors import InvalidConfig

TWO_PI = 2.0 * math.pi

#: Conversion factor from watt-seconds to kWh.
JOULES_PER_KWH = 3.6e6


def mhz_to_angular(f_mhz: float) -> float:
    """Ordinary frequency in MHz -> angular frequency in rad/s."""
    return TWO_PI * f_mhz * 1e6


def ghz_um6_to_angular(c6_ghz_um6: float) -> float:
    """Interaction coefficient in GHz*um^6 -> rad*um^6/s."""
    return TWO_PI * c6_ghz_um6 * 1e9


def watt_seconds_to_kwh(power_watts: float, seconds: float) -> float:
    """Energy in kWh of a draw of power_watts for seconds; the power must be
    finite and non-negative (zero is a free machine)."""
    if not 0.0 <= power_watts < math.inf:
        raise InvalidConfig(f"power must be finite and non-negative, got {power_watts} W")
    return power_watts * seconds / JOULES_PER_KWH


_DURATION_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(ns|us|µs|s)\s*$")

#: Nanoseconds per unit; whole numbers, so '4us' converts to exactly 4000 ns.
_DURATION_SCALE = {"ns": 1.0, "us": 1e3, "µs": 1e3, "s": 1e9}


def parse_duration(text: str | float) -> float:
    """Parse a duration with explicit suffix ('400ns', '4us', '0.1s') to
    nanoseconds, the unit of the config's duration keys.

    Bare numbers are rejected: the suffix is mandatory so that ns/s mixups
    cannot slip through the CLI silently.  The range is checked where the
    duration is used (``model.step_count``).
    """
    if isinstance(text, (int, float)):
        raise InvalidConfig(f"duration needs an explicit ns/us/s suffix, got bare number {text!r}")
    m = _DURATION_RE.match(text)
    if m is None:
        raise InvalidConfig(f"cannot parse duration {text!r} (expected e.g. '400ns', '4us', '1s')")
    return float(m.group(1)) * _DURATION_SCALE[m.group(2)]


def format_duration(seconds: float) -> str:
    """Human-readable duration in h/d/y, Table-1 style (e.g. '6.3 h', '27.5 d')."""
    hours = seconds / 3600.0
    if hours < 72.0:
        return f"{hours:.1f} h"
    days = hours / 24.0
    if days < 365.0:
        return f"{days:.1f} d"
    return f"{days / 365.0:.1f} y"


def format_bytes(n_bytes: float) -> str:
    """Human-readable memory in GB/TB (decimal units, Table-1 style)."""
    gb = n_bytes / 1e9
    if gb < 1000.0:
        return f"{gb:.0f} GB" if gb >= 10 else f"{gb:.1f} GB"
    return f"{gb / 1000.0:.1f} TB"
