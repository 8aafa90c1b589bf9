"""Process-variation specification and parameter sampling.

The paper's Monte-Carlo study (Fig. 10/11 captions) varies channel length,
oxide thickness, threshold voltage and supply voltage, splitting the
threshold variation into an inter-die part (shared by every transistor of a
die) and an intra-die part (independent per transistor).  The defaults below
follow the Fig. 11 caption: sigma_L = 2 nm, sigma_Tox = 0.67 A,
sigma_Vt(inter) = 30 mV, sigma_Vt(intra) = 30 mV, and a supply-voltage sigma
of 33 mV (the caption prints "333 mV", which would exceed a third of VDD and
is read here as a typesetting slip for 33.3 mV; the spec is a parameter, so
either choice can be run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.params import DeviceParams, TechnologyParams


@dataclass(frozen=True)
class VariationSpec:
    """Standard deviations of the varied process parameters.

    All values are one-sigma magnitudes; sampling is Gaussian and truncated
    at +/- ``truncation`` sigmas to keep single samples physical.
    """

    sigma_length_nm: float = 2.0
    sigma_tox_nm: float = 0.067
    sigma_vth_inter_v: float = 0.030
    sigma_vth_intra_v: float = 0.030
    sigma_vdd_v: float = 0.0333
    truncation: float = 3.0

    def __post_init__(self) -> None:
        for name in (
            "sigma_length_nm",
            "sigma_tox_nm",
            "sigma_vth_inter_v",
            "sigma_vth_intra_v",
            "sigma_vdd_v",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.truncation <= 0:
            raise ValueError("truncation must be positive")

    def with_vth_inter_sigma(self, sigma_v: float) -> "VariationSpec":
        """Return a copy with a different inter-die Vth sigma (Fig. 11 sweep)."""
        return VariationSpec(
            sigma_length_nm=self.sigma_length_nm,
            sigma_tox_nm=self.sigma_tox_nm,
            sigma_vth_inter_v=sigma_v,
            sigma_vth_intra_v=self.sigma_vth_intra_v,
            sigma_vdd_v=self.sigma_vdd_v,
            truncation=self.truncation,
        )


@dataclass(frozen=True)
class InterDieSample:
    """One die's shared parameter shifts."""

    delta_length_nm: float
    delta_tox_nm: float
    delta_vth_v: float
    delta_vdd_v: float


def _truncated_normal(rng: np.random.Generator, sigma: float, truncation: float) -> float:
    """Draw one truncated Gaussian value with the given sigma."""
    if sigma == 0.0:
        return 0.0
    value = float(rng.normal(0.0, sigma))
    limit = truncation * sigma
    return float(np.clip(value, -limit, limit))


def sample_inter_die(spec: VariationSpec, rng: np.random.Generator) -> InterDieSample:
    """Draw the shared (inter-die) parameter shifts for one Monte-Carlo sample."""
    return InterDieSample(
        delta_length_nm=_truncated_normal(rng, spec.sigma_length_nm, spec.truncation),
        delta_tox_nm=_truncated_normal(rng, spec.sigma_tox_nm, spec.truncation),
        delta_vth_v=_truncated_normal(rng, spec.sigma_vth_inter_v, spec.truncation),
        delta_vdd_v=_truncated_normal(rng, spec.sigma_vdd_v, spec.truncation),
    )


def sample_intra_die_vth(
    spec: VariationSpec, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw ``count`` independent per-transistor Vth shifts (V)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if spec.sigma_vth_intra_v == 0.0:
        return np.zeros(count)
    limit = spec.truncation * spec.sigma_vth_intra_v
    values = rng.normal(0.0, spec.sigma_vth_intra_v, size=count)
    return np.clip(values, -limit, limit)


def _shift_device(device: DeviceParams, sample: InterDieSample) -> DeviceParams:
    """Apply the inter-die geometry/threshold shifts to one device flavour."""
    shifted = device.replace(
        length_nm=max(device.length_nm + sample.delta_length_nm, 1.0),
        tox_nm=max(device.tox_nm + sample.delta_tox_nm, 0.3),
    )
    return shifted.replace_subthreshold(
        vth0=shifted.subthreshold.vth0 + sample.delta_vth_v
    )


def shifted_vdd(vdd: float, delta_vdd_v: float | np.ndarray) -> np.ndarray:
    """Return the supplies of dies shifted by ``delta_vdd_v`` from ``vdd``.

    The shift is clamped so VDD never drops below half its nominal value (a
    die that far off would fail functionally, not just leak).
    """
    return np.maximum(vdd + delta_vdd_v, 0.5 * vdd)


def apply_inter_die(
    technology: TechnologyParams, sample: InterDieSample
) -> TechnologyParams:
    """Return a technology with one die's shared parameter shifts applied.

    The supply follows :func:`shifted_vdd` (clamped at half the nominal).
    """
    return technology.replace(
        vdd=float(shifted_vdd(technology.vdd, sample.delta_vdd_v)),
        nmos=_shift_device(technology.nmos, sample),
        pmos=_shift_device(technology.pmos, sample),
    )
