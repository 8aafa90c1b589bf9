"""Unit conversion helpers.

The library computes in SI (amps, volts, kelvin) but the paper reports
currents in nA, power in uW and temperature in Celsius; figures and reports
use these helpers so conversions live in exactly one place.
"""

from __future__ import annotations


def nanoamps_to_amps(value_na: float) -> float:
    """Convert a current from nanoamperes to amperes."""
    return value_na * 1.0e-9


def amps_to_nanoamps(value_a: float) -> float:
    """Convert a current from amperes to nanoamperes."""
    return value_a * 1.0e9


def watts_to_microwatts(value_w: float) -> float:
    """Convert power from watts to microwatts."""
    return value_w * 1.0e6


def celsius_to_kelvin(value_c: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin."""
    return value_c + 273.15


def kelvin_to_celsius(value_k: float) -> float:
    """Convert a temperature from kelvin to degrees Celsius."""
    return value_k - 273.15


def nm_to_m(value_nm: float) -> float:
    """Convert a length from nanometres to metres."""
    return value_nm * 1.0e-9


def nm_to_cm(value_nm: float) -> float:
    """Convert a length from nanometres to centimetres."""
    return value_nm * 1.0e-7
