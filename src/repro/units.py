"""Unit helpers used throughout the library.

Internally the library uses SI base units everywhere:

* time is in **seconds** (float),
* data is in **bytes** (float, so fluid models can hold fractions),
* rates are in **bytes per second**.

The constructors below exist so that scenario descriptions can be written
in the units the paper uses (milliseconds, Mbit/s, packets) without
sprinkling magic conversion factors through the code.
"""

from __future__ import annotations

#: Default packet size used by the paper's examples (alpha = 1500 bytes).
MSS = 1500

BITS_PER_BYTE = 8


def mbps(value: float) -> float:
    """Convert megabits per second to bytes per second."""
    return value * 1e6 / BITS_PER_BYTE


def kbps(value: float) -> float:
    """Convert kilobits per second to bytes per second."""
    return value * 1e3 / BITS_PER_BYTE


def to_mbps(bytes_per_second: float) -> float:
    """Convert bytes per second to megabits per second."""
    return bytes_per_second * BITS_PER_BYTE / 1e6


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3
