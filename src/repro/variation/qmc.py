"""Scrambled-Sobol quasi-Monte-Carlo sampling for the variation study.

Plain Monte-Carlo converges at O(1/sqrt(N)); the Fig. 10/11 integrands
(leakage of the loaded-inverter cluster as a function of the process
parameters) are smooth and dominated by a handful of dimensions, which is
exactly the regime where a low-discrepancy sequence converges near O(1/N).
This module maps an Owen-scrambled Sobol sequence (``scipy.stats.qmc``)
through the *same* parameter distributions the Monte-Carlo path draws:

* each Sobol coordinate ``u`` becomes a standard-normal variate via the
  inverse CDF (``scipy.special.ndtri``),
* scaled by the :class:`~repro.variation.spec.VariationSpec` sigma of its
  axis and clipped at ``truncation * sigma`` — bit-for-bit the same
  *distribution* as :func:`~repro.variation.spec.sample_inter_die` /
  :func:`~repro.variation.spec.sample_intra_die_vth` (a clipped Gaussian),
  just visited in low-discrepancy order.

Dimension layout: the four inter-die axes (L, Tox, Vth, VDD — the order of
:data:`INTER_DIE_AXES`) first, then one intra-die Vth axis per transistor
of the loaded structure.  A zero-sigma axis still owns its Sobol dimension
(its shifts are exactly 0.0), so the points assigned to the *other* axes do
not depend on which sigmas are active.

Reproducibility contract: the scramble seed is stream 0 of
:func:`repro.utils.rng.spawn_streams` on the caller's root rng — an
explicit seeded stream, never global state (RC102-clean) — and the whole
``(samples, dimension)`` block is drawn once up front, so however the
block is split into solve batches (:meth:`ParameterDraws.slice`) every
sample consumes byte-identical parameters and, with the batched solver's
batch-composition invariance, produces bitwise identical results.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc as scipy_qmc

from repro.utils.rng import RngLike, spawn_streams
from repro.variation.spec import InterDieSample, VariationSpec

#: Inter-die axes in Sobol-dimension order (dimensions 0-3).
INTER_DIE_AXES = ("length_nm", "tox_nm", "vth_inter_v", "vdd_v")


class SobolBalanceWarning(UserWarning):
    """A Sobol block was drawn with a non-power-of-two sample count.

    Sobol points balance (and reach their best discrepancy) in blocks of
    ``2**m`` samples; other counts still integrate correctly but converge
    closer to plain Monte-Carlo.  Prefer power-of-two budgets.
    """


def sobol_standard_normal(
    samples: int, dimension: int, rng: RngLike
) -> np.ndarray:
    """Return a ``(samples, dimension)`` scrambled-Sobol standard-normal block.

    Owen-scrambled Sobol points in the unit cube, mapped through the
    inverse normal CDF.  ``rng`` seeds the scramble via
    :func:`repro.utils.rng.spawn_streams` (stream 0), so the block is a
    pure function of the root seed — independent scrambles (fresh seeds)
    give independent randomized-QMC replicates.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    seed = spawn_streams(rng, 1)[0]
    sampler = scipy_qmc.Sobol(d=dimension, scramble=True, seed=seed)
    if samples & (samples - 1):
        warnings.warn(
            f"Sobol sample count {samples} is not a power of two; the "
            "block loses its balance properties (prefer 2**m budgets)",
            SobolBalanceWarning,
            stacklevel=2,
        )
    with warnings.catch_warnings():
        # scipy emits its own UserWarning for non-power-of-two counts; the
        # SobolBalanceWarning above already names the condition once.
        warnings.filterwarnings(
            "ignore", message=".*balance properties.*", category=UserWarning
        )
        unit = sampler.random(samples)
    # Owen scrambling makes each coordinate uniform on (0, 1) almost
    # surely, but guard the open interval anyway: ndtri(0) is -inf.
    tiny = np.finfo(float).tiny
    unit = np.clip(unit, tiny, 1.0 - np.finfo(float).epsneg)
    return np.asarray(ndtri(unit), dtype=float)


def _scaled_axis(z: np.ndarray, sigma: float, truncation: float) -> np.ndarray:
    """Scale one standard-normal axis by ``sigma`` and clip at truncation.

    Matches :func:`repro.variation.spec._truncated_normal`: a *clipped*
    Gaussian (mass accumulates on the +/- ``truncation * sigma`` boundary),
    and a zero sigma yields exactly 0.0 everywhere.
    """
    if sigma == 0.0:
        return np.zeros_like(z)
    limit = truncation * sigma
    return np.clip(sigma * z, -limit, limit)


@dataclass(frozen=True)
class ParameterDraws:
    """Pre-drawn variation parameters for a block of samples.

    One row per sample: the four inter-die shifts plus one intra-die Vth
    shift per transistor of the loaded structure.
    """

    spec: VariationSpec
    delta_length_nm: np.ndarray
    delta_tox_nm: np.ndarray
    delta_vth_v: np.ndarray
    delta_vdd_v: np.ndarray
    intra_vth_v: np.ndarray

    def __post_init__(self) -> None:
        count = self.delta_length_nm.shape[0]
        for name in ("delta_tox_nm", "delta_vth_v", "delta_vdd_v"):
            if getattr(self, name).shape != (count,):
                raise ValueError(f"{name} must have shape ({count},)")
        if self.intra_vth_v.ndim != 2 or self.intra_vth_v.shape[0] != count:
            raise ValueError(
                f"intra_vth_v must have shape ({count}, transistors)"
            )

    @property
    def sample_count(self) -> int:
        """Return the number of pre-drawn samples."""
        return int(self.delta_length_nm.shape[0])

    @property
    def transistor_count(self) -> int:
        """Return the number of intra-die axes (transistors)."""
        return int(self.intra_vth_v.shape[1])

    def inter_die(self, index: int) -> InterDieSample:
        """Return sample ``index``'s shared inter-die shifts."""
        return InterDieSample(
            delta_length_nm=float(self.delta_length_nm[index]),
            delta_tox_nm=float(self.delta_tox_nm[index]),
            delta_vth_v=float(self.delta_vth_v[index]),
            delta_vdd_v=float(self.delta_vdd_v[index]),
        )

    def intra_vth(self, index: int) -> np.ndarray:
        """Return sample ``index``'s per-transistor Vth shifts (V)."""
        return self.intra_vth_v[index]

    def slice(self, lo: int, hi: int) -> "ParameterDraws":
        """Return samples ``[lo, hi)`` as a standalone block.

        Slicing pre-drawn parameters keeps any split into solve batches
        bitwise identical to one batch: chunk boundaries only choose
        *which batch* solves a sample, never *which* parameters it gets.
        """
        return ParameterDraws(
            spec=self.spec,
            delta_length_nm=self.delta_length_nm[lo:hi],
            delta_tox_nm=self.delta_tox_nm[lo:hi],
            delta_vth_v=self.delta_vth_v[lo:hi],
            delta_vdd_v=self.delta_vdd_v[lo:hi],
            intra_vth_v=self.intra_vth_v[lo:hi],
        )


def draw_qmc_parameters(
    spec: VariationSpec,
    samples: int,
    transistor_count: int,
    rng: RngLike,
) -> ParameterDraws:
    """Draw a scrambled-Sobol :class:`ParameterDraws` block.

    ``transistor_count`` is the number of intra-die Vth axes — the
    flattened transistor count of the *loaded* structure (the unloaded
    twin reuses its gates' shifts, exactly like the MC path).
    """
    if transistor_count < 0:
        raise ValueError("transistor_count must be non-negative")
    z = sobol_standard_normal(samples, len(INTER_DIE_AXES) + transistor_count, rng)
    truncation = spec.truncation
    return ParameterDraws(
        spec=spec,
        delta_length_nm=_scaled_axis(z[:, 0], spec.sigma_length_nm, truncation),
        delta_tox_nm=_scaled_axis(z[:, 1], spec.sigma_tox_nm, truncation),
        delta_vth_v=_scaled_axis(z[:, 2], spec.sigma_vth_inter_v, truncation),
        delta_vdd_v=_scaled_axis(z[:, 3], spec.sigma_vdd_v, truncation),
        intra_vth_v=_scaled_axis(
            z[:, len(INTER_DIE_AXES) :], spec.sigma_vth_intra_v, truncation
        ),
    )
