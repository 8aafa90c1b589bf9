"""Tests for physical constants and unit conversions."""

import pytest

from repro.utils.constants import (
    silicon_bandgap,
    thermal_voltage,
)
from repro.utils import units


class TestThermalVoltage:
    def test_room_temperature_value(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_scales_linearly_with_temperature(self):
        assert thermal_voltage(600.0) == pytest.approx(2 * thermal_voltage(300.0))

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            thermal_voltage(0.0)
        with pytest.raises(ValueError):
            thermal_voltage(-10.0)


class TestSiliconBandgap:
    def test_room_temperature_near_1p12_ev(self):
        assert silicon_bandgap(300.0) == pytest.approx(1.12, abs=0.01)

    def test_narrows_with_temperature(self):
        assert silicon_bandgap(400.0) < silicon_bandgap(300.0) < silicon_bandgap(200.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            silicon_bandgap(-1.0)


class TestUnitConversions:
    def test_current_roundtrip(self):
        assert units.amps_to_nanoamps(units.nanoamps_to_amps(123.0)) == pytest.approx(123.0)

    def test_power_conversions(self):
        assert units.watts_to_microwatts(1.5e-6) == pytest.approx(1.5)

    def test_temperature_roundtrip(self):
        assert units.kelvin_to_celsius(units.celsius_to_kelvin(27.0)) == pytest.approx(27.0)
        assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_length_conversions(self):
        assert units.nm_to_m(50.0) == pytest.approx(5.0e-8)
        assert units.nm_to_cm(50.0) == pytest.approx(5.0e-6)
