"""Shared utilities: physical constants, unit helpers, math and table tools.

The rest of the library works in a single consistent unit system:

* voltages in volts (V)
* currents in amperes (A)
* temperatures in kelvin (K)
* geometric lengths (channel length, width, oxide thickness) in nanometres (nm)
* doping concentrations in cm^-3

Helpers in :mod:`repro.utils.units` convert to and from the display units used
by the paper's figures (nA, uW, degrees Celsius).
"""

from repro.utils.constants import (
    BOLTZMANN_EV,
    BOLTZMANN_J,
    ELECTRON_CHARGE,
    EPSILON_0,
    EPSILON_OX,
    EPSILON_SI,
    ROOM_TEMPERATURE_K,
    SILICON_BANDGAP_0K,
    SILICON_INTRINSIC_300K,
    silicon_bandgap,
    thermal_voltage,
)
from repro.utils.units import (
    amps_to_nanoamps,
    celsius_to_kelvin,
    kelvin_to_celsius,
    nanoamps_to_amps,
    nm_to_cm,
    nm_to_m,
    watts_to_microwatts,
)
from repro.utils.mathtools import (
    log1p_exp,
    relative_difference,
    safe_exp,
    smooth_step,
)
from repro.utils.tables import format_table
from repro.utils.rng import ensure_rng

__all__ = [
    "BOLTZMANN_EV",
    "BOLTZMANN_J",
    "ELECTRON_CHARGE",
    "EPSILON_0",
    "EPSILON_OX",
    "EPSILON_SI",
    "ROOM_TEMPERATURE_K",
    "SILICON_BANDGAP_0K",
    "SILICON_INTRINSIC_300K",
    "silicon_bandgap",
    "thermal_voltage",
    "amps_to_nanoamps",
    "celsius_to_kelvin",
    "kelvin_to_celsius",
    "nanoamps_to_amps",
    "nm_to_cm",
    "nm_to_m",
    "watts_to_microwatts",
    "log1p_exp",
    "relative_difference",
    "safe_exp",
    "smooth_step",
    "format_table",
    "ensure_rng",
]
