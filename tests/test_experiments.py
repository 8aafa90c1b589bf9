"""Integration tests for the per-figure experiment drivers.

Each driver is run with a reduced configuration and checked for (a) result
structure and (b) the qualitative trend the corresponding paper figure
reports.  The full-size configurations live in ``benchmarks/``.
"""

import pytest

from repro.circuit.generators import loaded_inverter_cluster, random_logic
from repro.experiments import (
    run_fig4_device_trends,
    run_fig5_inverter_loading,
    run_fig6_ldall_surface,
    run_fig7_nand_vectors,
    run_fig8_device_variants,
    run_fig9_temperature,
    run_fig12_circuit_estimation,
    run_runtime_comparison,
)
from repro.device.presets import DeviceVariant


class TestFig4:
    def test_trends(self, bulk50):
        result = run_fig4_device_trends(
            bulk50,
            halo_values_cm3=[1e18, 4e18],
            tox_values_nm=[1.0, 1.4],
            temperatures_k=[300.0, 400.0],
        )
        # Halo: subthreshold falls, BTBT rises, gate flat.
        assert result.halo.subthreshold[1] < result.halo.subthreshold[0]
        assert result.halo.btbt[1] > result.halo.btbt[0]
        assert result.halo.gate[1] == pytest.approx(result.halo.gate[0], rel=1e-6)
        # Tox: gate falls, subthreshold rises.
        assert result.tox.gate[1] < result.tox.gate[0]
        assert result.tox.subthreshold[1] > result.tox.subthreshold[0]
        # Temperature: subthreshold rises by far the most.
        sub_ratio = result.temperature.subthreshold[1] / result.temperature.subthreshold[0]
        gate_ratio = result.temperature.gate[1] / result.temperature.gate[0]
        assert sub_ratio > 5.0
        assert gate_ratio < 1.5
        assert "Isub" in result.to_table()


class TestFig5Fig6:
    def test_fig5_panels(self, bulk25):
        result = run_fig5_inverter_loading(bulk25, loading_currents=(0.0, 2.0e-6))
        panel = result.input_loading_in0
        assert panel.effects[0].total == pytest.approx(0.0, abs=1e-9)
        assert panel.effects[-1].subthreshold > 0
        assert result.output_loading_in0.effects[-1].btbt < 0
        assert len(result.panels()) == 4
        assert "LD sub" in result.to_table()

    def test_fig6_surface(self, bulk25):
        result = run_fig6_ldall_surface(bulk25, grid=(0.0, 2.0e-6))
        assert result.input0.value(0, 0) == pytest.approx(0.0, abs=1e-9)
        # Moving along the input-loading axis raises LD_ALL, along the
        # output-loading axis lowers it.
        assert result.input0.value(1, 0) > result.input0.value(0, 0)
        assert result.input0.value(0, 1) < result.input0.value(0, 0)
        assert "IL-IN" in result.to_table()


@pytest.mark.slow
class TestFig7Fig8Fig9:
    def test_fig7_vector_dependence(self, bulk25):
        result = run_fig7_nand_vectors(bulk25, loading_currents=(0.0, 2.5e-6))
        assert set(result.panels) == {"00", "01", "10", "11"}
        # Input loading is stronger with an input at '0' than with '11'.
        assert (
            result.panel("01").input_a[-1].total
            > result.panel("11").input_a[-1].total
        )
        # Output loading is strongest when the output is '0' (vector '11').
        assert abs(result.panel("11").output[-1].total) > abs(
            result.panel("00").output[-1].total
        )
        assert "NAND2" in result.to_table()

    def test_fig8_variant_ordering(self):
        result = run_fig8_device_variants(loading_currents=(0.0, 2.5e-6))
        series = result.series
        assert (
            series[DeviceVariant.D25_S].max_input_total()
            > series[DeviceVariant.D25_G].max_input_total()
        )
        assert (
            series[DeviceVariant.D25_JN].max_output_total()
            > series[DeviceVariant.D25_G].max_output_total()
        )
        assert "d25-s" in result.to_table()

    def test_fig9_temperature_trend(self, bulk25):
        result = run_fig9_temperature(bulk25, temperatures_c=(25.0, 125.0))
        sub = result.component_series("subthreshold")
        assert sub[-1] > sub[0] > 0
        assert "LD sub" in result.to_table()


@pytest.mark.slow
class TestFig12AndRuntime:
    def test_fig12_small_suite(self, d25s, library_d25s):
        circuits = {
            "cluster": loaded_inverter_cluster(4, 4),
            "rnd40": random_logic("rnd40", 6, 40, rng=1),
        }
        result = run_fig12_circuit_estimation(
            circuits,
            technology=d25s,
            library=library_d25s,
            vectors=4,
            reference_vectors=1,
            reference_max_gates=100,
            rng=0,
        )
        assert {entry.name for entry in result.entries} == {"cluster", "rnd40"}
        cluster = result.entry("cluster")
        assert cluster.reference_power_uw is not None
        assert abs(cluster.estimate_vs_reference_percent["total"]) < 2.0
        assert cluster.impact.average_percent["subthreshold"] > 0
        table = result.to_table()
        assert "Fig. 12(a)" in table and "Fig. 12(c)" in table

    def test_runtime_speedup(self, d25s, library_d25s):
        circuit = random_logic("rt", 6, 30, rng=4)
        result = run_runtime_comparison(
            circuit, technology=d25s, library=library_d25s, vectors=1, rng=0
        )
        assert result.speedup > 10.0
        assert result.gate_count == 30
        assert "speed-up" in result.to_table()
