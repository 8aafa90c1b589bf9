"""Physical constants used by the compact device models.

Values are CODATA-style constants; silicon material parameters follow the
standard textbook values used in Taur & Ning, *Fundamentals of Modern VLSI
Devices* (the paper's reference [3]).
"""

from __future__ import annotations

#: Boltzmann constant in joules per kelvin.
BOLTZMANN_J = 1.380649e-23

#: Boltzmann constant in electron-volts per kelvin.
BOLTZMANN_EV = 8.617333262e-5

#: Elementary charge in coulombs.
ELECTRON_CHARGE = 1.602176634e-19

#: Vacuum permittivity in farads per metre.
EPSILON_0 = 8.8541878128e-12

#: Relative permittivity of silicon times vacuum permittivity (F/m).
EPSILON_SI = 11.7 * EPSILON_0

#: Relative permittivity of SiO2 times vacuum permittivity (F/m).
EPSILON_OX = 3.9 * EPSILON_0

#: Reference (room) temperature in kelvin used for calibration.
ROOM_TEMPERATURE_K = 300.0

#: Silicon bandgap extrapolated to 0 K, in eV (Varshni model).
SILICON_BANDGAP_0K = 1.17

#: Varshni alpha parameter for silicon, eV/K.
_VARSHNI_ALPHA = 4.73e-4

#: Varshni beta parameter for silicon, K.
_VARSHNI_BETA = 636.0

#: Intrinsic carrier concentration of silicon at 300 K, cm^-3.
SILICON_INTRINSIC_300K = 1.0e10


def silicon_bandgap(temperature_k: float) -> float:
    """Return the silicon bandgap in eV at ``temperature_k`` (Varshni model).

    The bandgap narrows with temperature; the junction band-to-band tunneling
    current rises (marginally) with temperature through this narrowing, which
    is the mechanism the paper cites for the weak temperature dependence of
    the BTBT component (Sec. 2.2, Fig. 4c).
    """
    if temperature_k < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature_k}")
    t = float(temperature_k)
    return SILICON_BANDGAP_0K - (_VARSHNI_ALPHA * t * t) / (t + _VARSHNI_BETA)


def thermal_voltage(temperature_k: float) -> float:
    """Return the thermal voltage kT/q in volts at ``temperature_k``."""
    if temperature_k <= 0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return BOLTZMANN_J * temperature_k / ELECTRON_CHARGE
