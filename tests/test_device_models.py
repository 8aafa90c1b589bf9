"""Tests for the subthreshold, gate-tunneling and BTBT compact models.

These encode the physical signatures the paper's analysis relies on
(Sec. 2-3, Fig. 4): exponential bias/temperature sensitivities with the right
signs, and the geometry/doping trade-offs between the components.
"""

import pytest

from repro.device.btbt import btbt_current_density, junction_btbt_current
from repro.device.gate_tunneling import (
    gate_tunneling_components,
    tunneling_current_density,
)
from repro.device.subthreshold import (
    channel_current,
    effective_threshold,
    oxide_capacitance_per_area,
    specific_current,
)


class TestSubthreshold:
    def test_off_current_positive(self, bulk25):
        current = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        assert current > 0

    def test_increases_exponentially_with_vgs(self, bulk25):
        low = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        high = channel_current(bulk25.nmos, 0.10, bulk25.vdd, 0.0, 300.0)
        assert high / low > 5.0

    def test_dibl_raises_leakage_with_vds(self, bulk25):
        low_vds = channel_current(bulk25.nmos, 0.0, 0.3, 0.0, 300.0)
        high_vds = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        assert high_vds > low_vds

    def test_body_effect_reduces_leakage(self, bulk25):
        grounded = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        reverse_body = channel_current(bulk25.nmos, 0.0, bulk25.vdd, -0.3, 300.0)
        assert reverse_body < grounded

    def test_temperature_dependence_is_strong(self, bulk25):
        cold = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        hot = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 400.0)
        assert hot / cold > 5.0

    def test_thicker_oxide_increases_subthreshold(self, bulk25):
        nominal = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        thick = channel_current(
            bulk25.nmos.replace(tox_nm=bulk25.nmos.tox_nm + 0.2),
            0.0,
            bulk25.vdd,
            0.0,
            300.0,
        )
        assert thick > nominal

    def test_heavier_halo_reduces_subthreshold(self, bulk25):
        nominal = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        heavy = channel_current(
            bulk25.nmos.replace_btbt(halo_cm3=2 * bulk25.nmos.btbt.halo_cm3),
            0.0,
            bulk25.vdd,
            0.0,
            300.0,
        )
        assert heavy < nominal

    def test_vth_shift_moves_current(self, bulk25):
        nominal = channel_current(bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0)
        shifted = channel_current(
            bulk25.nmos, 0.0, bulk25.vdd, 0.0, 300.0, vth_shift=0.05
        )
        assert shifted < nominal

    def test_mobility_degradation_only_above_threshold(self, bulk25):
        device = bulk25.nmos
        no_theta = device.replace_subthreshold(theta_mobility=0.0)
        off_with = channel_current(device, 0.0, bulk25.vdd, 0.0, 300.0)
        off_without = channel_current(no_theta, 0.0, bulk25.vdd, 0.0, 300.0)
        assert off_with == pytest.approx(off_without, rel=1e-9)
        on_with = channel_current(device, bulk25.vdd, 0.05, 0.0, 300.0)
        on_without = channel_current(no_theta, bulk25.vdd, 0.05, 0.0, 300.0)
        assert on_with < on_without

    def test_negative_vds_rejected(self, bulk25):
        with pytest.raises(ValueError):
            channel_current(bulk25.nmos, 0.0, -0.1, 0.0, 300.0)

    def test_oxide_capacitance_and_specific_current(self, bulk25):
        assert oxide_capacitance_per_area(1.0) > oxide_capacitance_per_area(2.0)
        with pytest.raises(ValueError):
            oxide_capacitance_per_area(0.0)
        assert specific_current(bulk25.nmos, 300.0) > 0

    def test_effective_threshold_drops_with_temperature(self, bulk25):
        cold = effective_threshold(bulk25.nmos, bulk25.vdd, 0.0, 300.0)
        hot = effective_threshold(bulk25.nmos, bulk25.vdd, 0.0, 400.0)
        assert hot < cold


class TestGateTunneling:
    def test_zero_bias_zero_current(self, bulk25):
        params = bulk25.nmos.gate_tunneling
        assert tunneling_current_density(0.0, bulk25.nmos.tox_nm, params) == 0.0

    def test_calibration_point(self, bulk25):
        params = bulk25.nmos.gate_tunneling
        value = tunneling_current_density(params.vref, params.tox_ref_nm, params)
        assert value == pytest.approx(params.jg_ref, rel=1e-6)

    def test_increases_with_bias(self, bulk25):
        params = bulk25.nmos.gate_tunneling
        low = tunneling_current_density(0.5, bulk25.nmos.tox_nm, params)
        high = tunneling_current_density(0.9, bulk25.nmos.tox_nm, params)
        assert high > low > 0

    def test_decreases_exponentially_with_tox(self, bulk25):
        params = bulk25.nmos.gate_tunneling
        thin = tunneling_current_density(0.9, 1.0, params)
        thick = tunneling_current_density(0.9, 1.4, params)
        assert thin / thick > 10.0

    def test_nearly_temperature_independent(self, bulk25):
        params = bulk25.nmos.gate_tunneling
        cold = tunneling_current_density(0.9, 1.0, params, 300.0)
        hot = tunneling_current_density(0.9, 1.0, params, 400.0)
        assert abs(hot - cold) / cold < 0.10

    def test_component_signs_for_off_nmos(self, bulk25):
        device = bulk25.nmos
        vdd = bulk25.vdd
        # Off NMOS in an inverter at input '0': gate 0, drain vdd.
        components = gate_tunneling_components(device, 0.0, vdd, 0.0, 0.0, 300.0, 0.2)
        # Gate-to-drain overlap sees a negative gate-drain bias: current flows
        # out of the gate terminal (negative contribution).
        assert components.igdo < 0
        assert components.magnitude > 0

    def test_on_nmos_gate_to_channel_dominates(self, bulk25):
        device = bulk25.nmos
        vdd = bulk25.vdd
        components = gate_tunneling_components(device, vdd, 0.0, 0.0, 0.0, 300.0, 0.2)
        assert components.igcs > 0
        assert components.igcd > 0
        assert components.total_gate_terminal > 0


class TestBtbt:
    def test_no_current_without_reverse_bias(self, bulk25):
        params = bulk25.nmos.btbt
        assert btbt_current_density(0.0, params) == 0.0
        assert btbt_current_density(-0.5, params) == 0.0

    def test_calibration_point(self, bulk25):
        # The calibration point is defined at the *reference* halo dose.
        params = bulk25.nmos.replace_btbt(
            halo_cm3=bulk25.nmos.btbt.halo_ref_cm3
        ).btbt
        value = btbt_current_density(params.vref, params)
        assert value == pytest.approx(params.jbtbt_ref, rel=1e-6)

    def test_increases_with_reverse_bias(self, bulk25):
        params = bulk25.nmos.btbt
        assert btbt_current_density(0.9, params) > btbt_current_density(0.5, params)

    def test_increases_strongly_with_halo(self, bulk25):
        light = bulk25.nmos.replace_btbt(halo_cm3=1.0e18).btbt
        heavy = bulk25.nmos.replace_btbt(halo_cm3=6.0e18).btbt
        ratio = btbt_current_density(0.9, heavy) / btbt_current_density(0.9, light)
        assert ratio > 10.0

    def test_mild_temperature_increase(self, bulk25):
        params = bulk25.nmos.btbt
        cold = btbt_current_density(0.9, params, 300.0)
        hot = btbt_current_density(0.9, params, 400.0)
        assert hot > cold
        assert hot / cold < 3.0

    def test_junction_current_scales_with_area(self, bulk25):
        narrow = junction_btbt_current(bulk25.nmos, bulk25.vdd, 0.0, 300.0)
        wide = junction_btbt_current(
            bulk25.nmos.scaled_width(2.0), bulk25.vdd, 0.0, 300.0
        )
        assert wide == pytest.approx(2 * narrow, rel=1e-9)
