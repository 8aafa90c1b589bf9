"""Tests for the composed four-terminal MOSFET element."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.mosfet import Mosfet
from repro.device.presets import make_technology

_TECH = make_technology("bulk-25nm")
_VDD = _TECH.vdd

voltages = st.floats(min_value=-0.05, max_value=_VDD + 0.05)


class TestTerminalCurrents:
    def test_kcl_holds_for_off_nmos(self):
        currents = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0)
        assert abs(currents.kcl_residual) < 1e-15

    def test_components_nonnegative(self):
        currents = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0)
        assert currents.i_subthreshold >= 0
        assert currents.i_gate >= 0
        assert currents.i_btbt >= 0
        assert currents.total_leakage > 0

    def test_off_flag(self):
        off = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0)
        on = Mosfet(_TECH.nmos).terminal_currents(_VDD, 0.01, 0.0, 0.0, 300.0)
        assert off.is_off
        assert not on.is_off
        assert on.i_subthreshold == 0.0

    def test_kcl_fast_path_matches_full(self):
        mosfet = Mosfet(_TECH.pmos)
        args = (0.0, _VDD * 0.4, _VDD, _VDD, 320.0)
        full = mosfet.terminal_currents(*args)
        fast = mosfet.kcl_currents(*args)
        assert fast == pytest.approx((full.ig, full.id, full.is_, full.ib))

    def test_pmos_mirror_of_nmos(self):
        """A PMOS with mirrored bias must produce mirrored terminal currents."""
        nmos = Mosfet(_TECH.nmos)
        pmos_params = _TECH.nmos.replace(polarity=_TECH.pmos.polarity)
        pmos = Mosfet(pmos_params)
        n = nmos.terminal_currents(0.0, 0.7, 0.0, 0.0, 300.0)
        p = pmos.terminal_currents(0.0, -0.7, 0.0, 0.0, 300.0)
        assert p.ig == pytest.approx(-n.ig, rel=1e-9, abs=1e-21)
        assert p.id == pytest.approx(-n.id, rel=1e-9, abs=1e-21)
        assert p.is_ == pytest.approx(-n.is_, rel=1e-9, abs=1e-21)
        assert p.ib == pytest.approx(-n.ib, rel=1e-9, abs=1e-21)

    def test_source_drain_symmetry(self):
        """Swapping source and drain must swap their terminal currents."""
        mosfet = Mosfet(_TECH.nmos)
        forward = mosfet.terminal_currents(0.3, 0.8, 0.1, 0.0, 300.0)
        swapped = mosfet.terminal_currents(0.3, 0.1, 0.8, 0.0, 300.0)
        assert forward.id == pytest.approx(swapped.is_, rel=1e-6, abs=1e-20)
        assert forward.is_ == pytest.approx(swapped.id, rel=1e-6, abs=1e-20)

    def test_width_override_scales_leakage(self):
        base = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0)
        wide = Mosfet(_TECH.nmos, width_nm=2 * _TECH.nmos.width_nm).terminal_currents(
            0.0, _VDD, 0.0, 0.0, 300.0
        )
        assert wide.total_leakage == pytest.approx(2 * base.total_leakage, rel=0.05)

    def test_vth_shift_hook(self):
        base = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0)
        shifted = Mosfet(_TECH.nmos, vth_shift=0.05).terminal_currents(
            0.0, _VDD, 0.0, 0.0, 300.0
        )
        assert shifted.i_subthreshold < base.i_subthreshold

    @settings(max_examples=60, deadline=None)
    @given(vg=voltages, vd=voltages, vs=voltages, vb=st.just(0.0))
    def test_kcl_residual_is_negligible_everywhere(self, vg, vd, vs, vb):
        """Charge conservation: terminal currents always sum to ~zero."""
        currents = Mosfet(_TECH.nmos).terminal_currents(vg, vd, vs, vb, 300.0)
        scale = max(abs(currents.ig), abs(currents.id), abs(currents.is_), 1e-12)
        assert abs(currents.kcl_residual) < 1e-9 * scale + 1e-18

    @settings(max_examples=60, deadline=None)
    @given(vg=voltages, vd=voltages, vs=voltages)
    def test_pmos_kcl_residual(self, vg, vd, vs):
        currents = Mosfet(_TECH.pmos).terminal_currents(vg, vd, vs, _VDD, 300.0)
        scale = max(abs(currents.ig), abs(currents.id), abs(currents.is_), 1e-12)
        assert abs(currents.kcl_residual) < 1e-9 * scale + 1e-18


class TestGatePinCurrentSigns:
    """The sign conventions Sec. 4 of the paper relies on."""

    def test_receiver_injects_into_a_low_net(self):
        """With the input net at '0' the receiver pushes current into it."""
        nmos = Mosfet(_TECH.nmos).terminal_currents(0.0, _VDD, 0.0, 0.0, 300.0).ig
        pmos = Mosfet(_TECH.pmos).terminal_currents(0.0, _VDD, _VDD, _VDD, 300.0).ig
        # Negative pin current = current flows out of the device into the net.
        assert nmos < 0
        assert pmos < 0

    def test_receiver_draws_from_a_high_net(self):
        """With the input net at '1' the receiver pulls current out of it."""
        nmos = Mosfet(_TECH.nmos).terminal_currents(_VDD, 0.0, 0.0, 0.0, 300.0).ig
        pmos = Mosfet(_TECH.pmos).terminal_currents(_VDD, 0.0, _VDD, _VDD, 300.0).ig
        assert nmos > 0
        assert pmos > 0
