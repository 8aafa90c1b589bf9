"""Subthreshold / channel conduction model.

The model is an EKV-style smooth interpolation

    I_ch = I_S * [ softplus((Vp - Vs')/2vT)^2 - softplus((Vp - Vd')/2vT)^2 ]

which reduces to the familiar exponential subthreshold expression

    I_sub = I_0 * exp((Vgs - Vth)/(n*vT)) * (1 - exp(-Vds/vT))

deep in weak inversion and to a square-law on-current above threshold.  The
smooth on-state matters to the DC solver: an "on" transistor must hold its
node at the rail against the leakage of the opposing "off" network, and the
solver's bracketing routine needs a continuous, monotonic I-V to do that.

The effective threshold voltage includes the short-channel terms the paper
leans on:

* DIBL (Vth drops with Vds — why subthreshold leakage is sensitive to output
  loading),
* Vth roll-off with channel length and oxide thickness (why thicker oxide
  *increases* subthreshold leakage, Fig. 4b),
* the halo-doping dependence (Fig. 4a),
* the body effect (source of the stacking effect in NAND/NOR pull networks),
* a linear temperature coefficient (with the thermal voltage, the source of
  the exponential temperature dependence in Fig. 4c).
"""

from __future__ import annotations

from repro.device.params import DeviceParams
from repro.utils.constants import EPSILON_OX, ROOM_TEMPERATURE_K, thermal_voltage
from repro.utils.mathtools import log1p_exp, log1p_exp_grad_np, log1p_exp_np

import math

import numpy as np


def oxide_capacitance_per_area(tox_nm: float) -> float:
    """Return the gate-oxide capacitance per unit area in F/m^2."""
    if tox_nm <= 0:
        raise ValueError(f"tox_nm must be positive, got {tox_nm}")
    return EPSILON_OX / (tox_nm * 1.0e-9)


def effective_threshold(
    device: DeviceParams,
    vds: float,
    vbs: float,
    temperature_k: float,
) -> float:
    """Return the effective threshold voltage (normalized, NMOS-like frame).

    Parameters
    ----------
    device:
        Device flavour (its :class:`SubthresholdParams` provide the
        coefficients; geometry provides the roll-off reference point).
    vds:
        Normalized drain-source voltage (>= 0 after source/drain ordering).
    vbs:
        Normalized bulk-source voltage (<= 0 for a reverse-biased body).
    temperature_k:
        Device temperature in kelvin.
    """
    sub = device.subthreshold
    vth = sub.vth0

    # Body effect: a source above the bulk (vbs < 0 in the normalized frame)
    # raises the threshold; this is what weakens the top transistor of a
    # stack and produces the stacking effect.
    sqrt_arg = sub.phi_s - vbs
    if sqrt_arg < 0.0:
        sqrt_arg = 0.0
    vth += sub.body_gamma * (math.sqrt(sqrt_arg) - math.sqrt(sub.phi_s))

    # Drain induced barrier lowering.
    vth -= sub.dibl * max(vds, 0.0)

    # Temperature coefficient (Vth falls as temperature rises).
    vth += sub.vth_temp_coeff * (temperature_k - ROOM_TEMPERATURE_K)

    # Short-channel geometry sensitivities relative to the preset's nominal
    # geometry: a thicker oxide or shorter channel weakens gate control and
    # lowers Vth (Fig. 4b); a heavier halo restores it (Fig. 4a).
    if sub.tox_ref_nm is not None:
        vth -= sub.sce_tox_coeff * (device.tox_nm - sub.tox_ref_nm)
    if sub.length_ref_nm is not None:
        vth += sub.sce_length_coeff * (device.length_nm - sub.length_ref_nm)
    halo_ratio = device.btbt.halo_cm3 / device.btbt.halo_ref_cm3
    if halo_ratio > 0 and halo_ratio != 1.0:
        vth += sub.halo_vth_coeff * math.log10(halo_ratio)

    return vth


def specific_current(device: DeviceParams, temperature_k: float) -> float:
    """Return the EKV specific current I_S in amperes.

    I_S = 2 * n * mu(T) * Cox * vT(T)^2 * (W/L)
    """
    sub = device.subthreshold
    vt = thermal_voltage(temperature_k)
    mobility = sub.mobility_m2 * (
        temperature_k / ROOM_TEMPERATURE_K
    ) ** (-sub.mobility_temp_exponent)
    cox = oxide_capacitance_per_area(device.tox_nm)
    w_over_l = device.width_nm / device.length_nm
    return 2.0 * sub.n_swing * mobility * cox * vt * vt * w_over_l


def channel_current(
    device: DeviceParams,
    vgs: float,
    vds: float,
    vbs: float,
    temperature_k: float,
    vth_shift: float = 0.0,
) -> float:
    """Return the channel (drain-to-source) current in amperes.

    All voltages are in the normalized (NMOS-like) frame with ``vds >= 0``;
    :class:`repro.device.mosfet.Mosfet` handles polarity mirroring and
    source/drain ordering before calling this function.

    Parameters
    ----------
    vth_shift:
        Additional threshold shift (geometry/process) added on top of the
        bias- and temperature-dependent effective threshold.
    """
    if vds < 0:
        raise ValueError("channel_current expects vds >= 0 (normalized frame)")
    sub = device.subthreshold
    vt = thermal_voltage(temperature_k)
    vth = effective_threshold(device, vds, vbs, temperature_k) + vth_shift

    # Pinch-off voltage approximation, source referenced.
    vp = (vgs - vth) / sub.n_swing
    i_spec = specific_current(device, temperature_k)

    # Vertical-field mobility degradation: active only above threshold, so the
    # subthreshold (leakage) region is untouched while the on-state
    # conductance — which sets how far loading currents move driven nets —
    # is reduced to realistic values.
    overdrive = vgs - vth
    if overdrive > 0.0 and sub.theta_mobility > 0.0:
        i_spec /= 1.0 + sub.theta_mobility * overdrive

    forward = log1p_exp(vp / (2.0 * vt)) ** 2
    reverse = log1p_exp((vp - vds) / (2.0 * vt)) ** 2
    current = i_spec * (forward - reverse)
    return current * device.isub_scale


def effective_threshold_v(
    vds: np.ndarray,
    vbs: np.ndarray,
    *,
    vth_base: np.ndarray,
    body_gamma: np.ndarray,
    phi_s: np.ndarray,
    sqrt_phi_s: np.ndarray,
    dibl: np.ndarray,
) -> np.ndarray:
    """Vectorized effective threshold (normalized, NMOS-like frame).

    This is the array twin of :func:`effective_threshold`; it is written
    against pre-extracted parameter arrays instead of a single
    :class:`DeviceParams` so one call can evaluate a whole batch of
    transistors whose flavours, geometry shifts and temperatures terms
    differ.  ``vth_base`` must already contain every bias-independent term:
    ``vth0``, the temperature coefficient, the short-channel geometry
    sensitivities, the halo term, and any per-instance ``vth_shift``.  All
    parameter arrays broadcast against the voltage arrays.
    """
    body = body_gamma * (np.sqrt(np.maximum(phi_s - vbs, 0.0)) - sqrt_phi_s)
    return vth_base + body - dibl * np.maximum(vds, 0.0)


def effective_threshold_grad_v(
    vds: np.ndarray,
    vbs: np.ndarray,
    *,
    vth_base: np.ndarray,
    body_gamma: np.ndarray,
    phi_s: np.ndarray,
    sqrt_phi_s: np.ndarray,
    dibl: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(vth_eff, dvth/dvds, dvth/dvbs)``, vectorized.

    The gradient twin of :func:`effective_threshold_v`, used by the Newton
    solver's analytic device Jacobians.  The two kinks of the value path —
    the depleted-body clamp ``max(phi_s - vbs, 0)`` and the DIBL clamp
    ``max(vds, 0)`` — take their inactive-side (zero) derivative exactly at
    the clamp point, matching the convention of every other clamped term.
    """
    arg = phi_s - vbs
    positive = arg > 0.0
    root = np.sqrt(np.maximum(arg, 0.0))
    vth = vth_base + body_gamma * (root - sqrt_phi_s) - dibl * np.maximum(vds, 0.0)
    d_vds = np.where(vds > 0.0, -dibl, 0.0)
    d_vbs = np.where(positive, -0.5 * body_gamma / np.where(positive, root, 1.0), 0.0)
    return vth, d_vds, d_vbs


def channel_current_v(
    vgs: np.ndarray,
    vds: np.ndarray,
    temperature_k: float,
    *,
    vth_eff: np.ndarray,
    n_swing: np.ndarray,
    i_spec: np.ndarray,
    theta_mobility: np.ndarray,
    isub_scale: np.ndarray,
) -> np.ndarray:
    """Vectorized channel (drain-to-source) current, ``vds >= 0`` frame.

    Array twin of :func:`channel_current`.  ``vth_eff`` is the effective
    threshold *including* any per-instance shift (matching the scalar path,
    which folds ``Mosfet.vth_shift`` into the threshold before evaluating);
    ``i_spec`` is the pre-computed EKV specific current at ``temperature_k``.
    """
    vt = thermal_voltage(temperature_k)
    vp = (vgs - vth_eff) / n_swing
    overdrive = vgs - vth_eff
    # Mobility degradation is active only above threshold; clamping the
    # overdrive at zero reproduces the scalar branch exactly.
    degradation = 1.0 + theta_mobility * np.maximum(overdrive, 0.0)
    forward = log1p_exp_np(vp / (2.0 * vt)) ** 2
    reverse = log1p_exp_np((vp - vds) / (2.0 * vt)) ** 2
    return (i_spec / degradation) * (forward - reverse) * isub_scale


def channel_current_grad_v(
    vgs: np.ndarray,
    vds: np.ndarray,
    temperature_k: float,
    *,
    vth_eff: np.ndarray,
    dvth_dvds: np.ndarray,
    dvth_dvbs: np.ndarray,
    n_swing: np.ndarray,
    i_spec: np.ndarray,
    theta_mobility: np.ndarray,
    isub_scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return the channel current and its partials wrt ``(vgs, vds, vbs)``.

    Gradient twin of :func:`channel_current_v`.  ``vth_eff`` and its
    partials come from :func:`effective_threshold_grad_v`, so the chain
    through the bias-dependent threshold (DIBL, body effect) is included:
    the returned ``d/dvds`` and ``d/dvbs`` hold ``vgs`` fixed but let the
    threshold move.  The mobility-degradation clamp ``max(overdrive, 0)``
    contributes its inactive-side (zero) derivative exactly at threshold,
    matching the value twin's branch.
    """
    # The value computation mirrors channel_current_v operation for
    # operation, so the current returned here is bitwise identical to it.
    vt = thermal_voltage(temperature_k)
    vp = (vgs - vth_eff) / n_swing
    overdrive = vgs - vth_eff
    a_forward = vp / (2.0 * vt)
    a_reverse = (vp - vds) / (2.0 * vt)
    sp_forward = log1p_exp_np(a_forward)
    sp_reverse = log1p_exp_np(a_reverse)
    slope_forward = log1p_exp_grad_np(a_forward)
    slope_reverse = log1p_exp_grad_np(a_reverse)
    degradation = 1.0 + theta_mobility * np.maximum(overdrive, 0.0)
    forward = sp_forward**2
    reverse = sp_reverse**2
    current = (i_spec / degradation) * (forward - reverse) * isub_scale
    scale = i_spec * isub_scale
    difference = forward - reverse

    # Everything flows through u = vgs - vth_eff except the direct vds term
    # of the reverse softplus and the degradation clamp.
    u_vgs = 1.0
    u_vds = -np.asarray(dvth_dvds)
    u_vbs = -np.asarray(dvth_dvbs)
    forward_du = sp_forward * slope_forward / (n_swing * vt)
    reverse_du = sp_reverse * slope_reverse / (n_swing * vt)
    reverse_dvds = -sp_reverse * slope_reverse / vt
    degradation_du = theta_mobility * (overdrive > 0.0)

    def partial(u_x, vds_x):
        numerator = forward_du * u_x - (reverse_du * u_x + reverse_dvds * vds_x)
        return scale * (
            numerator / degradation
            - difference * (degradation_du * u_x) / (degradation * degradation)
        )

    return current, partial(u_vgs, 0.0), partial(u_vds, 1.0), partial(u_vbs, 0.0)
