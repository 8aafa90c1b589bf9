"""Property-based tests of the device leakage models (hypothesis).

`tests/test_newton_solver.py` checks the analytic model derivatives at
hand-picked bias points on both sides of every branch boundary; this module
generalizes those spot checks into *properties* asserted on fuzzed bias
points:

* **finiteness** — every model returns finite values over (and beyond) the
  physical bias envelope;
* **continuity** — the deliberately smoothed corners stay smooth: the
  Vds~0 source/drain partition blend, the mobility-degradation clamp at
  threshold, the small-Vox Taylor branch of the tunneling shape function
  and the BTBT zero-bias cutoff;
* **monotonicity where physics demands it** — channel current never
  decreases with gate or drain bias, tunneling density never decreases
  with oxide voltage, BTBT density never decreases with reverse bias, the
  effective threshold never rises with Vds (DIBL) or Vbs (body effect);
* **gradient twins** — every ``*_grad_v`` function matches central finite
  differences of its value twin at fuzzed points (kink neighbourhoods are
  ``assume``-d away: exactly *at* a clamp the twins take the documented
  inactive-side derivative, which a straddling difference quotient cannot
  measure), and returns values bitwise identical to the value twin.

All examples run with ``derandomize=True`` so CI never sees a flaky
counterexample hunt; shrinking still reports minimal failing cases locally.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.device.btbt import (
    btbt_current_density,
    btbt_current_density_grad_v,
    btbt_current_density_v,
)
from repro.device.gate_tunneling import (
    gate_tunneling_components_grad_v,
    gate_tunneling_components_v,
    tunneling_current_density,
    tunneling_current_density_grad_v,
    tunneling_current_density_v,
)
from repro.device.batched import PackedMosfets
from repro.device.mosfet import Mosfet
from repro.device.subthreshold import (
    channel_current,
    channel_current_grad_v,
    channel_current_v,
    effective_threshold,
    effective_threshold_grad_v,
    effective_threshold_v,
)
from repro.utils.mathtools import (
    log1p_exp_grad_np,
    log1p_exp_np,
    smooth_step_grad_np,
    smooth_step_np,
)

#: Shared hypothesis profile: generous examples, deterministic replay.
PROP = settings(max_examples=40, deadline=None, derandomize=True)

#: Central-difference step for voltage arguments.
H = 1e-6

finite = dict(allow_nan=False, allow_infinity=False)


def packed_single(device, temperature_k=300.0) -> PackedMosfets:
    """A 1x1 packed grid: the parameter arrays the vectorized models consume."""
    return PackedMosfets([[Mosfet(device)]], temperature_k)


def assert_grad_close(analytic, fd, rtol=2e-3, floor=1e-18):
    """Masked relative comparison (same convention as test_newton_solver):
    entries below ``floor`` on both sides are finite-difference roundoff."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    mask = scale > floor
    if not mask.any():
        return
    error = np.abs(analytic - fd)[mask] / scale[mask]
    assert float(error.max()) <= rtol, (
        f"worst gradient mismatch {float(error.max()):.3e} "
        f"(analytic {analytic[mask][np.argmax(error)]:.6e}, "
        f"fd {fd[mask][np.argmax(error)]:.6e})"
    )


def _threshold_kwargs(packed):
    return dict(
        vth_base=packed.vth_base,
        body_gamma=packed.body_gamma,
        phi_s=packed.phi_s,
        sqrt_phi_s=packed.sqrt_phi_s,
        dibl=packed.dibl,
    )


def _channel_kwargs(packed):
    return dict(
        n_swing=packed.n_swing,
        i_spec=packed.i_spec,
        theta_mobility=packed.theta_mobility,
        isub_scale=packed.isub_scale,
    )


def _tunneling_kwargs(packed):
    return dict(
        barrier_ev=packed.barrier_ev,
        b_tox_per_nm=packed.b_tox_per_nm,
        density_scale=packed.gt_density_scale,
        temp_factor=packed.gt_temp_factor,
    )


def _btbt_kwargs(packed):
    return dict(
        jbtbt_ref=packed.jbtbt_ref,
        vref=packed.btbt_vref,
        psi_bi=packed.psi_bi,
        field_exponent=packed.field_exponent,
        field_scale=packed.field_scale,
        b_eff=packed.b_eff,
        reference=packed.btbt_reference,
    )


def _devices(technology):
    return (technology.nmos, technology.pmos)


# --------------------------------------------------------------------------- #
# finiteness
# --------------------------------------------------------------------------- #


class TestFiniteness:
    @PROP
    @given(
        vgs=st.floats(min_value=-0.6, max_value=1.8, **finite),
        vds=st.floats(min_value=0.0, max_value=1.8, **finite),
        vbs=st.floats(min_value=-0.8, max_value=0.3, **finite),
        temperature_k=st.floats(min_value=250.0, max_value=400.0, **finite),
    )
    def test_channel_current_is_finite(self, bulk25, vgs, vds, vbs, temperature_k):
        for device in _devices(bulk25):
            assert np.isfinite(
                channel_current(device, vgs, vds, vbs, temperature_k)
            )

    @PROP
    @given(
        vg=st.floats(min_value=-0.4, max_value=1.6, **finite),
        vs=st.floats(min_value=0.0, max_value=1.2, **finite),
        delta=st.floats(min_value=0.0, max_value=1.2, **finite),
        vb=st.floats(min_value=-0.3, max_value=1.2, **finite),
    )
    def test_gate_tunneling_components_are_finite(self, bulk25, vg, vs, delta, vb):
        for device in _devices(bulk25):
            packed = packed_single(device)
            # (1, 1) arrays: the packed parameter grid's (slots, batch) shape.
            arr = lambda x: np.array([[x]])  # noqa: E731 - tiny local adapter
            vth = effective_threshold_v(
                arr(delta), arr(vb - vs), **_threshold_kwargs(packed)
            )
            components = gate_tunneling_components_v(
                arr(vg),
                arr(vs + delta),
                arr(vs),
                arr(vb),
                vth_eff=vth,
                tox_nm=packed.tox_nm,
                overlap_area_um2=packed.overlap_area,
                gate_area_um2=packed.gate_area,
                accumulation_factor=packed.accumulation_factor,
                gb_fraction=packed.gb_fraction,
                igate_scale=packed.igate_scale,
                **_tunneling_kwargs(packed),
            )
            assert all(np.isfinite(part).all() for part in components)

    @PROP
    @given(vrev=st.floats(min_value=-1.5, max_value=2.5, **finite))
    def test_btbt_density_is_finite_and_nonnegative(self, bulk25, vrev):
        for device in _devices(bulk25):
            value = btbt_current_density(vrev, device.btbt)
            assert np.isfinite(value) and value >= 0.0


# --------------------------------------------------------------------------- #
# continuity at the smoothed corners
# --------------------------------------------------------------------------- #


class TestContinuity:
    #: Continuity tolerance: an eps step of 1e-8 V may move a current by at
    #: most its local-slope share; 1e-4 relative is orders above that while
    #: catching any genuine branch jump (those are O(1) relative).
    EPS = 1e-8
    RTOL = 1e-4

    def _relative_jump(self, left, right):
        # The floor keeps sub-1e-18 A residues (layers below any physical
        # leakage, pure rounding) from registering as relative jumps.
        scale = max(abs(left), abs(right), 1e-18)
        return abs(left - right) / scale

    @PROP
    @given(
        vg=st.floats(min_value=0.0, max_value=1.2, **finite),
        vs=st.floats(min_value=0.0, max_value=1.0, **finite),
    )
    def test_source_drain_partition_blend_at_vds_zero(self, bulk25, vg, vs):
        """igcs/igcd are continuous where the source/drain order flips."""
        for device in _devices(bulk25):
            packed = packed_single(device)
            kwargs = dict(
                tox_nm=packed.tox_nm,
                overlap_area_um2=packed.overlap_area,
                gate_area_um2=packed.gate_area,
                accumulation_factor=packed.accumulation_factor,
                gb_fraction=packed.gb_fraction,
                igate_scale=packed.igate_scale,
                **_tunneling_kwargs(packed),
            )

            def parts(vd):
                vth = effective_threshold_v(
                    np.array([[vd - vs]]),
                    np.array([[-vs]]),
                    **_threshold_kwargs(packed),
                )
                return np.stack(
                    gate_tunneling_components_v(
                        np.array([[vg]]),
                        np.array([[vd]]),
                        np.array([[vs]]),
                        np.array([[0.0]]),
                        vth_eff=vth,
                        **kwargs,
                    )
                ).reshape(-1)

            at = parts(vs)
            above = parts(vs + self.EPS)
            for left, right in zip(at, above):
                assert self._relative_jump(left, right) <= self.RTOL

    @PROP
    @given(
        vds=st.floats(min_value=0.01, max_value=1.2, **finite),
        vbs=st.floats(min_value=-0.5, max_value=0.0, **finite),
    )
    def test_mobility_clamp_corner_is_continuous(self, bulk25, vds, vbs):
        """Channel current is continuous through vgs == vth_eff."""
        for device in _devices(bulk25):
            vth = effective_threshold(device, vds, vbs, 300.0)
            below = channel_current(device, vth - self.EPS, vds, vbs, 300.0)
            above = channel_current(device, vth + self.EPS, vds, vbs, 300.0)
            assert self._relative_jump(below, above) <= self.RTOL

    def test_tunneling_taylor_branch_is_continuous(self, bulk25):
        """The small-Vox branch switch (1e-6 V) and the origin are smooth."""
        for device in _devices(bulk25):
            params = device.gate_tunneling
            below = tunneling_current_density(0.999e-6, device.tox_nm, params)
            above = tunneling_current_density(1.001e-6, device.tox_nm, params)
            assert self._relative_jump(below, above) <= 1e-2
            near_zero = tunneling_current_density(1e-12, device.tox_nm, params)
            assert near_zero <= 1e-12 * tunneling_current_density(
                1.0, device.tox_nm, params
            )

    def test_btbt_zero_bias_cutoff_is_continuous(self, bulk25):
        """J -> 0 as vrev -> 0+: the cutoff introduces no jump."""
        for device in _devices(bulk25):
            reference = btbt_current_density(1.0, device.btbt)
            assert btbt_current_density(1e-9, device.btbt) <= 1e-8 * reference
            assert btbt_current_density(0.0, device.btbt) == 0.0


# --------------------------------------------------------------------------- #
# monotonicity where physics demands it
# --------------------------------------------------------------------------- #


@st.composite
def ordered_pair(draw, low, high):
    """Two floats with a <= b, both in [low, high]."""
    a = draw(st.floats(min_value=low, max_value=high, **finite))
    b = draw(st.floats(min_value=low, max_value=high, **finite))
    return (a, b) if a <= b else (b, a)


class TestMonotonicity:
    #: Rounding headroom on the monotone comparisons.
    SLACK = 1e-12

    def _nondecreasing(self, lower, upper):
        assert upper >= lower - self.SLACK * max(abs(lower), abs(upper))

    @PROP
    @given(
        pair=ordered_pair(-0.5, 1.6),
        vds=st.floats(min_value=0.0, max_value=1.5, **finite),
        vbs=st.floats(min_value=-0.6, max_value=0.2, **finite),
    )
    def test_channel_current_nondecreasing_in_vgs(self, bulk25, pair, vds, vbs):
        """More gate drive never lowers the channel current."""
        vgs_low, vgs_high = pair
        for device in _devices(bulk25):
            self._nondecreasing(
                channel_current(device, vgs_low, vds, vbs, 300.0),
                channel_current(device, vgs_high, vds, vbs, 300.0),
            )

    @PROP
    @given(
        pair=ordered_pair(0.0, 1.5),
        vgs=st.floats(min_value=-0.5, max_value=1.6, **finite),
        vbs=st.floats(min_value=-0.6, max_value=0.2, **finite),
    )
    def test_channel_current_nondecreasing_in_vds(self, bulk25, pair, vgs, vbs):
        """Drain bias (drain term + DIBL) never lowers the current."""
        vds_low, vds_high = pair
        for device in _devices(bulk25):
            self._nondecreasing(
                channel_current(device, vgs, vds_low, vbs, 300.0),
                channel_current(device, vgs, vds_high, vbs, 300.0),
            )

    @PROP
    @given(pair=ordered_pair(0.0, 2.0))
    def test_tunneling_density_nondecreasing_in_vox(self, bulk25, pair):
        vox_low, vox_high = pair
        for device in _devices(bulk25):
            self._nondecreasing(
                tunneling_current_density(
                    vox_low, device.tox_nm, device.gate_tunneling
                ),
                tunneling_current_density(
                    vox_high, device.tox_nm, device.gate_tunneling
                ),
            )

    @PROP
    @given(pair=ordered_pair(0.0, 1.6))
    def test_btbt_density_nondecreasing_in_vrev(self, bulk25, pair):
        vrev_low, vrev_high = pair
        for device in _devices(bulk25):
            self._nondecreasing(
                btbt_current_density(vrev_low, device.btbt),
                btbt_current_density(vrev_high, device.btbt),
            )

    @PROP
    @given(
        pair=ordered_pair(0.0, 1.5),
        vbs=st.floats(min_value=-0.6, max_value=0.2, **finite),
    )
    def test_threshold_nonincreasing_in_vds(self, bulk25, pair, vbs):
        """DIBL: drain bias can only lower the barrier."""
        vds_low, vds_high = pair
        for device in _devices(bulk25):
            assert effective_threshold(
                device, vds_high, vbs, 300.0
            ) <= effective_threshold(device, vds_low, vbs, 300.0) + self.SLACK

    @PROP
    @given(
        pair=ordered_pair(-0.8, 0.3),
        vds=st.floats(min_value=0.0, max_value=1.5, **finite),
    )
    def test_threshold_nonincreasing_in_vbs(self, bulk25, pair, vds):
        """Body effect: reverse body bias (vbs down) raises the threshold."""
        vbs_low, vbs_high = pair
        for device in _devices(bulk25):
            assert effective_threshold(
                device, vds, vbs_high, 300.0
            ) <= effective_threshold(device, vds, vbs_low, 300.0) + self.SLACK


# --------------------------------------------------------------------------- #
# gradient twins vs. central finite differences on fuzzed points
# --------------------------------------------------------------------------- #


class TestGradientTwins:
    @PROP
    @given(x=st.floats(min_value=-80.0, max_value=80.0, **finite))
    def test_log1p_exp_gradient(self, x):
        # Keep the difference quotient away from the +/-60 branch switches.
        assume(abs(abs(x) - 60.0) > 10 * H)
        fd = (log1p_exp_np(x + H) - log1p_exp_np(x - H)) / (2 * H)
        assert_grad_close(log1p_exp_grad_np(np.array([x])), [fd], rtol=1e-4)

    @PROP
    @given(
        x=st.floats(min_value=-2.0, max_value=2.0, **finite),
        width=st.floats(min_value=0.01, max_value=1.0, **finite),
    )
    def test_smooth_step_gradient(self, x, width):
        # In the saturated tails the float64 value is exactly flat, so a
        # difference quotient reads 0 while the analytic slope is a (true)
        # sub-1e-12 residue; only the measurable transition region can
        # falsify the gradient.
        assume(abs(x) < 25.0 * width)
        h = min(H, width * 1e-3)
        fd = (
            smooth_step_np(x + h, width=width) - smooth_step_np(x - h, width=width)
        ) / (2 * h)
        assert_grad_close(
            smooth_step_grad_np(np.array([x]), width=width), [fd], rtol=1e-4
        )

    @PROP
    @given(
        vds=st.floats(min_value=0.0, max_value=1.5, **finite),
        vbs=st.floats(min_value=-0.6, max_value=0.3, **finite),
    )
    def test_effective_threshold_gradient(self, bulk25, vds, vbs):
        assume(vds > 10 * H)  # away from the DIBL clamp kink
        for device in _devices(bulk25):
            packed = packed_single(device)
            kwargs = _threshold_kwargs(packed)
            assume(float(packed.phi_s[0, 0]) - vbs > 10 * H)  # body clamp
            vds_a, vbs_a = np.array([vds]), np.array([vbs])
            vth, d_vds, d_vbs = effective_threshold_grad_v(vds_a, vbs_a, **kwargs)
            np.testing.assert_array_equal(
                vth, effective_threshold_v(vds_a, vbs_a, **kwargs)
            )
            fd_vds = (
                effective_threshold_v(vds_a + H, vbs_a, **kwargs)
                - effective_threshold_v(vds_a - H, vbs_a, **kwargs)
            ) / (2 * H)
            fd_vbs = (
                effective_threshold_v(vds_a, vbs_a + H, **kwargs)
                - effective_threshold_v(vds_a, vbs_a - H, **kwargs)
            ) / (2 * H)
            assert_grad_close(d_vds, fd_vds, rtol=1e-4)
            assert_grad_close(d_vbs, fd_vbs, rtol=1e-4)

    @PROP
    @given(
        vgs=st.floats(min_value=-0.4, max_value=1.5, **finite),
        vds=st.floats(min_value=0.001, max_value=1.4, **finite),
        vbs=st.floats(min_value=-0.5, max_value=0.2, **finite),
    )
    def test_channel_current_gradient(self, bulk25, vgs, vds, vbs):
        """Full chain through the bias-dependent threshold, fuzzed."""
        for device in _devices(bulk25):
            packed = packed_single(device)
            threshold_kwargs = _threshold_kwargs(packed)
            channel_kwargs = _channel_kwargs(packed)

            def current(vgs, vds, vbs):
                vth = effective_threshold_v(vds, vbs, **threshold_kwargs)
                return channel_current_v(
                    vgs, vds, 300.0, vth_eff=vth, **channel_kwargs
                )

            vgs_a, vds_a, vbs_a = (
                np.array([vgs]),
                np.array([vds]),
                np.array([vbs]),
            )
            vth, dvds, dvbs = effective_threshold_grad_v(
                vds_a, vbs_a, **threshold_kwargs
            )
            # Keep the quotient off the mobility clamp and DIBL kinks.
            assume(abs(vgs - float(vth[0, 0])) > 10 * H)
            assume(vds > 10 * H)
            value, d_vgs, d_vds, d_vbs = channel_current_grad_v(
                vgs_a,
                vds_a,
                300.0,
                vth_eff=vth,
                dvth_dvds=dvds,
                dvth_dvbs=dvbs,
                **channel_kwargs,
            )
            np.testing.assert_array_equal(value, current(vgs_a, vds_a, vbs_a))
            assert_grad_close(
                d_vgs,
                (current(vgs_a + H, vds_a, vbs_a) - current(vgs_a - H, vds_a, vbs_a))
                / (2 * H),
            )
            assert_grad_close(
                d_vds,
                (current(vgs_a, vds_a + H, vbs_a) - current(vgs_a, vds_a - H, vbs_a))
                / (2 * H),
            )
            assert_grad_close(
                d_vbs,
                (current(vgs_a, vds_a, vbs_a + H) - current(vgs_a, vds_a, vbs_a - H))
                / (2 * H),
            )

    @PROP
    @given(vox=st.floats(min_value=1e-3, max_value=1.8, **finite))
    def test_tunneling_density_gradient(self, bulk25, vox):
        for device in _devices(bulk25):
            packed = packed_single(device)
            kwargs = _tunneling_kwargs(packed)
            phi = float(packed.barrier_ev[0, 0])
            assume(abs(vox - phi) > 10 * H)  # the ratio >= 1 branch switch
            vox_a = np.array([vox])
            value, grad = tunneling_current_density_grad_v(
                vox_a, packed.tox_nm, **kwargs
            )
            np.testing.assert_array_equal(
                value, tunneling_current_density_v(vox_a, packed.tox_nm, **kwargs)
            )
            fd = (
                tunneling_current_density_v(vox_a + H, packed.tox_nm, **kwargs)
                - tunneling_current_density_v(vox_a - H, packed.tox_nm, **kwargs)
            ) / (2 * H)
            assert_grad_close(grad, fd)

    @PROP
    @given(vrev=st.floats(min_value=1e-3, max_value=1.5, **finite))
    def test_btbt_density_gradient(self, bulk25, vrev):
        for device in _devices(bulk25):
            packed = packed_single(device)
            kwargs = _btbt_kwargs(packed)
            vrev_a = np.array([vrev])
            value, grad = btbt_current_density_grad_v(vrev_a, **kwargs)
            np.testing.assert_array_equal(
                value, btbt_current_density_v(vrev_a, **kwargs)
            )
            fd = (
                btbt_current_density_v(vrev_a + H, **kwargs)
                - btbt_current_density_v(vrev_a - H, **kwargs)
            ) / (2 * H)
            assert_grad_close(grad, fd)

    @PROP
    @given(
        vg=st.floats(min_value=-0.2, max_value=1.3, **finite),
        vs=st.floats(min_value=0.0, max_value=1.0, **finite),
        delta=st.floats(min_value=0.0, max_value=1.0, **finite),
        vb=st.floats(min_value=-0.2, max_value=0.5, **finite),
    )
    def test_gate_tunneling_components_gradient(self, bulk25, vg, vs, delta, vb):
        """The full 5-component x 4-voltage Jacobian on fuzzed frames."""
        device = bulk25.nmos
        packed = packed_single(device)
        threshold_kwargs = _threshold_kwargs(packed)
        model_kwargs = dict(
            tox_nm=packed.tox_nm,
            overlap_area_um2=packed.overlap_area,
            gate_area_um2=packed.gate_area,
            accumulation_factor=packed.accumulation_factor,
            gb_fraction=packed.gb_fraction,
            igate_scale=packed.igate_scale,
            **_tunneling_kwargs(packed),
        )
        vd = vs + delta

        def components(g, d, s, b):
            vth = effective_threshold_v(d - s, b - s, **threshold_kwargs)
            return np.stack(
                gate_tunneling_components_v(g, d, s, b, vth_eff=vth, **model_kwargs)
            )

        g, d, s, b = (np.array([[x]]) for x in (vg, vd, vs, vb))
        vth, dvds, dvbs = effective_threshold_grad_v(
            d - s, b - s, **threshold_kwargs
        )
        # Keep every FD probe away from the value path's select/clamp points
        # (the DIBL clamp at vds=0, the pinch-off min-select, the channel
        # clamp) and the oxide sign flips.
        assume(delta > 10 * H)
        pinch = vg - float(vth[0, 0])
        assume(abs(pinch - vd) > 10 * H)
        assume(abs(min(pinch, vd) - vs) > 10 * H)
        for vox in (vg - vs, vg - vd, vg - vb):
            assume(abs(vox) > 10 * H)
        value, jacobian = gate_tunneling_components_grad_v(
            g,
            d,
            s,
            b,
            vth_eff=vth,
            dvth_dd=dvds,
            dvth_ds=-(dvds + dvbs),
            dvth_db=dvbs,
            **model_kwargs,
        )
        np.testing.assert_array_equal(value, components(g, d, s, b))
        volts = [g, d, s, b]
        for x in range(4):
            plus = [v.copy() for v in volts]
            minus = [v.copy() for v in volts]
            plus[x] = plus[x] + H
            minus[x] = minus[x] - H
            fd = (components(*plus) - components(*minus)) / (2 * H)
            assert_grad_close(jacobian[:, x], fd, rtol=5e-3, floor=1e-12)
