"""Tests for device parameter containers and presets."""

import dataclasses

import pytest

from repro.device.params import Polarity, TechnologyParams
from repro.device.presets import (
    DeviceVariant,
    device_pair,
    make_device,
    make_technology,
    variant_description,
)


class TestPolarity:
    def test_signs(self):
        assert Polarity.NMOS.sign == 1
        assert Polarity.PMOS.sign == -1


class TestDeviceParams:
    def test_preset_geometry_properties(self, bulk25):
        nmos = bulk25.nmos
        assert nmos.is_nmos
        assert nmos.gate_area_um2 == pytest.approx(
            nmos.width_nm * nmos.length_nm * 1e-6
        )
        assert nmos.overlap_area_um2 > 0
        assert nmos.junction_area_um2 > 0

    def test_replace_returns_new_object(self, bulk25):
        wider = bulk25.nmos.replace(width_nm=999.0)
        assert wider.width_nm == 999.0
        assert bulk25.nmos.width_nm != 999.0

    def test_replace_nested_groups(self, bulk25):
        changed = bulk25.nmos.replace_subthreshold(vth0=0.5)
        assert changed.subthreshold.vth0 == 0.5
        changed = bulk25.nmos.replace_gate_tunneling(jg_ref=1e-9)
        assert changed.gate_tunneling.jg_ref == 1e-9
        changed = bulk25.nmos.replace_btbt(halo_cm3=9e18)
        assert changed.btbt.halo_cm3 == 9e18

    def test_scaled_width(self, bulk25):
        doubled = bulk25.nmos.scaled_width(2.0)
        assert doubled.width_nm == pytest.approx(2 * bulk25.nmos.width_nm)
        with pytest.raises(ValueError):
            bulk25.nmos.scaled_width(0.0)

    def test_invalid_geometry_rejected(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.nmos.replace(width_nm=-1.0)
        with pytest.raises(ValueError):
            bulk25.nmos.replace(tox_nm=0.0)

    def test_negative_scale_factors_rejected(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.nmos.replace(isub_scale=-1.0)

    def test_subthreshold_validation(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.nmos.replace_subthreshold(vth0=-0.1)
        with pytest.raises(ValueError):
            bulk25.nmos.replace_subthreshold(n_swing=0.5)
        with pytest.raises(ValueError):
            bulk25.nmos.replace_subthreshold(mobility_m2=0.0)
        with pytest.raises(ValueError):
            bulk25.nmos.replace_subthreshold(theta_mobility=-1.0)

    def test_gate_tunneling_validation(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.nmos.replace_gate_tunneling(jg_ref=-1.0)
        with pytest.raises(ValueError):
            bulk25.nmos.replace_gate_tunneling(gb_fraction=1.5)

    def test_btbt_validation(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.nmos.replace_btbt(halo_cm3=0.0)
        with pytest.raises(ValueError):
            bulk25.nmos.replace_btbt(psi_bi=-0.1)


class TestTechnologyParams:
    def test_polarity_consistency_enforced(self, bulk25):
        with pytest.raises(ValueError):
            TechnologyParams(
                name="broken",
                vdd=1.0,
                temperature_k=300.0,
                nmos=bulk25.pmos,
                pmos=bulk25.pmos,
            )

    def test_device_lookup(self, bulk25):
        assert bulk25.device(Polarity.NMOS) is bulk25.nmos
        assert bulk25.device(Polarity.PMOS) is bulk25.pmos

    def test_invalid_supply_rejected(self, bulk25):
        with pytest.raises(ValueError):
            bulk25.replace(vdd=0.0)


class TestPresets:
    @pytest.mark.parametrize("variant", list(DeviceVariant))
    def test_every_variant_builds(self, variant):
        technology = make_technology(variant)
        assert technology.nmos.is_nmos
        assert not technology.pmos.is_nmos
        assert technology.vdd > 0
        assert variant_description(variant)

    def test_string_variant_accepted(self):
        assert make_technology("bulk-50nm").name == "bulk-50nm"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_technology("bulk-7nm")

    def test_device_pair_matches_make_device(self):
        nmos, pmos = device_pair(DeviceVariant.D25_G)
        assert make_device(DeviceVariant.D25_G, Polarity.NMOS).name == nmos.name
        assert make_device(DeviceVariant.D25_G, Polarity.PMOS).name == pmos.name

    def test_dominance_scales(self):
        base_n, _ = device_pair(DeviceVariant.BULK25)
        sub_n, _ = device_pair(DeviceVariant.D25_S)
        gate_n, _ = device_pair(DeviceVariant.D25_G)
        jn_n, _ = device_pair(DeviceVariant.D25_JN)
        assert sub_n.isub_scale > base_n.isub_scale
        assert gate_n.igate_scale > base_n.igate_scale
        assert jn_n.ibtbt_scale > base_n.ibtbt_scale

    def test_presets_are_frozen(self, bulk25):
        with pytest.raises(dataclasses.FrozenInstanceError):
            bulk25.nmos.width_nm = 1.0  # type: ignore[misc]
