"""Tests for the scalar Gauss–Seidel oracle solver and its analysis helpers."""

import pytest

from repro.gates.library import GateType
from repro.gates.templates import build_gate_transistors
from repro.oracle import (
    DcSolver,
    gate_injection_at_node,
    leakage_by_owner,
    transistor_currents,
)
from repro.spice.analysis import ComponentBreakdown
from repro.spice.netlist import TransistorNetlist
from repro.spice.solver import SolverOptions


def _inverter_cell(technology, input_value):
    """Build a single inverter with an ideal (fixed) input."""
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("in", fixed_voltage=technology.vdd * input_value)
    build_gate_transistors(
        netlist, technology, GateType.INV, "inv", {"a": "in", "y": "out"}
    )
    return netlist


class TestSolverOptions:
    def test_defaults_valid(self):
        options = SolverOptions()
        assert options.max_sweeps >= 1
        assert options.voltage_tol > 0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(max_sweeps=0)
        with pytest.raises(ValueError):
            SolverOptions(voltage_tol=0.0)


class TestInverterOperatingPoint:
    @pytest.mark.parametrize("input_value, expect_high", [(0, True), (1, False)])
    def test_output_sits_at_opposite_rail(self, bulk25, input_value, expect_high):
        netlist = _inverter_cell(bulk25, input_value)
        op = DcSolver(netlist, 300.0).solve()
        assert op.converged
        output = op.voltage("out")
        if expect_high:
            assert output > 0.95 * bulk25.vdd
        else:
            assert output < 0.05 * bulk25.vdd

    def test_residual_is_small_after_convergence(self, bulk25):
        netlist = _inverter_cell(bulk25, 0)
        solver = DcSolver(netlist, 300.0)
        op = solver.solve()
        assert abs(solver.residual("out", op.voltages)) < 1e-11

    def test_residual_unknown_node_raises(self, bulk25):
        netlist = _inverter_cell(bulk25, 0)
        solver = DcSolver(netlist, 300.0)
        op = solver.solve()
        with pytest.raises(KeyError):
            solver.residual("vdd", op.voltages)

    def test_temperature_must_be_positive(self, bulk25):
        netlist = _inverter_cell(bulk25, 0)
        with pytest.raises(ValueError):
            DcSolver(netlist, -5.0)

    def test_injection_raises_low_node(self, bulk25):
        """A current injected into a low output must lift its voltage."""
        base = _inverter_cell(bulk25, 1)
        op0 = DcSolver(base, 300.0).solve()
        loaded = _inverter_cell(bulk25, 1)
        loaded.add_current_source("out", 1.0e-6)
        op1 = DcSolver(loaded, 300.0).solve()
        assert op1.voltage("out") > op0.voltage("out")

    def test_injection_lowers_high_node(self, bulk25):
        base = _inverter_cell(bulk25, 0)
        op0 = DcSolver(base, 300.0).solve()
        loaded = _inverter_cell(bulk25, 0)
        loaded.add_current_source("out", -1.0e-6)
        op1 = DcSolver(loaded, 300.0).solve()
        assert op1.voltage("out") < op0.voltage("out")


class TestStackingEffect:
    def test_nand2_stack_node_rises_with_both_inputs_low(self, bulk25):
        """The classic stacking effect: the internal node floats above ground,
        reverse-biasing the top transistor and cutting subthreshold leakage."""
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("a", fixed_voltage=0.0)
        netlist.add_node("b", fixed_voltage=0.0)
        internal = build_gate_transistors(
            netlist, bulk25, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
        )
        op = DcSolver(netlist, 300.0).solve()
        assert op.converged
        stack_node = internal[0]
        assert 0.01 < op.voltage(stack_node) < 0.5 * bulk25.vdd

    def test_nand2_00_leaks_less_than_10(self, library25):
        """Subthreshold-wise, '00' benefits from stacking relative to '10'."""
        leak_00 = library25.characterization(GateType.NAND2, (0, 0)).nominal
        leak_10 = library25.characterization(GateType.NAND2, (1, 0)).nominal
        assert leak_00.subthreshold < leak_10.subthreshold


class TestAnalysis:
    def test_component_breakdown_arithmetic(self):
        a = ComponentBreakdown(1.0, 2.0, 3.0)
        b = ComponentBreakdown(0.5, 0.5, 0.5)
        total = a + b
        assert total.total == pytest.approx(7.5)
        assert a.scaled(2.0).gate == 4.0
        assert a.component("total") == 6.0
        assert a.as_dict()["btbt"] == 3.0
        with pytest.raises(KeyError):
            a.component("bogus")

    def test_leakage_by_owner_covers_all_transistors(self, bulk25):
        netlist = _inverter_cell(bulk25, 0)
        op = DcSolver(netlist, 300.0).solve()
        per_owner = leakage_by_owner(netlist, op)
        assert set(per_owner) == {"inv"}
        overall = sum(
            currents.total_leakage
            for currents in transistor_currents(netlist, op).values()
        )
        assert overall == pytest.approx(per_owner["inv"].total)

    def test_transistor_currents_keys(self, bulk25):
        netlist = _inverter_cell(bulk25, 0)
        op = DcSolver(netlist, 300.0).solve()
        currents = transistor_currents(netlist, op)
        assert set(currents) == {t.name for t in netlist.transistors}

    def test_gate_injection_sign_follows_net_level(self, bulk25):
        """Receivers inject into a '0' net and draw from a '1' net."""
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("drv_in", fixed_voltage=bulk25.vdd)  # driver output low
        build_gate_transistors(
            netlist, bulk25, GateType.INV, "drv", {"a": "drv_in", "y": "net"}
        )
        build_gate_transistors(
            netlist, bulk25, GateType.INV, "recv", {"a": "net", "y": "out"}
        )
        op = DcSolver(netlist, 300.0).solve()
        injection_low = gate_injection_at_node(netlist, op, "net")
        assert injection_low > 0

        netlist_high = TransistorNetlist(vdd=bulk25.vdd)
        netlist_high.add_node("drv_in", fixed_voltage=0.0)  # driver output high
        build_gate_transistors(
            netlist_high, bulk25, GateType.INV, "drv", {"a": "drv_in", "y": "net"}
        )
        build_gate_transistors(
            netlist_high, bulk25, GateType.INV, "recv", {"a": "net", "y": "out"}
        )
        op_high = DcSolver(netlist_high, 300.0).solve()
        injection_high = gate_injection_at_node(netlist_high, op_high, "net")
        assert injection_high < 0

    def test_gate_injection_owner_exclusion(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("drv_in", fixed_voltage=bulk25.vdd)
        build_gate_transistors(
            netlist, bulk25, GateType.INV, "drv", {"a": "drv_in", "y": "net"}
        )
        build_gate_transistors(
            netlist, bulk25, GateType.INV, "recv", {"a": "net", "y": "out"}
        )
        op = DcSolver(netlist, 300.0).solve()
        all_receivers = gate_injection_at_node(netlist, op, "net")
        excluded = gate_injection_at_node(netlist, op, "net", exclude_owners={"recv"})
        assert excluded == pytest.approx(0.0, abs=1e-18)
        assert all_receivers != 0.0
