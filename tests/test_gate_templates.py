"""Tests for the transistor-level gate templates.

The electrical truth table of every template is checked by building the gate
with ideal inputs, solving its operating point and comparing the output rail
against the logic function — i.e. the templates are validated against the
specs through the real solver, not by inspection.
"""

import pytest

from repro.gates.library import GateType, all_gate_types, gate_spec
from repro.gates.templates import (
    build_gate_transistors,
    internal_seed_levels,
    transistor_count,
)
from repro.oracle import DcSolver
from repro.spice.netlist import TransistorNetlist


def _solve_output(technology, gate_type, bits):
    spec = gate_spec(gate_type)
    netlist = TransistorNetlist(vdd=technology.vdd)
    pins = {}
    for pin, bit in zip(spec.inputs, bits):
        node = f"in_{pin}"
        netlist.add_node(node, fixed_voltage=technology.vdd * bit)
        pins[pin] = node
    pins[spec.output] = "out"
    internal = build_gate_transistors(netlist, technology, gate_type, "dut", pins)
    initial = {"out": technology.vdd * spec.evaluate(bits)}
    for node in internal:
        initial[node] = initial["out"]
    op = DcSolver(netlist, 300.0).solve(initial_voltages=initial)
    assert op.converged
    return op.voltage("out")


class TestTransistorCounts:
    @pytest.mark.parametrize("gate_type", all_gate_types())
    def test_template_creates_declared_count(self, bulk25, gate_type):
        spec = gate_spec(gate_type)
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        pins = {pin: f"n_{pin}" for pin in spec.inputs}
        pins[spec.output] = "n_y"
        for node in pins.values():
            netlist.add_node(node, fixed_voltage=0.0)
        netlist.free_node("n_y")
        build_gate_transistors(netlist, bulk25, gate_type, "dut", pins)
        assert len(netlist.transistors) == transistor_count(gate_type)

    def test_missing_pin_rejected(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        with pytest.raises(ValueError, match="missing pin"):
            build_gate_transistors(netlist, bulk25, GateType.NAND2, "g", {"a": "x", "y": "y"})

    def test_owner_defaults_to_instance(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        netlist.add_node("a", fixed_voltage=0.0)
        build_gate_transistors(netlist, bulk25, GateType.INV, "myinv", {"a": "a", "y": "z"})
        assert {t.owner for t in netlist.transistors} == {"myinv"}

    def test_series_stack_is_widened(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        for node in ("a", "b", "c"):
            netlist.add_node(node, fixed_voltage=0.0)
        build_gate_transistors(
            netlist, bulk25, GateType.NAND3, "g", {"a": "a", "b": "b", "c": "c", "y": "y"}
        )
        nmos_widths = {
            t.mosfet.device.width_nm
            for t in netlist.transistors
            if t.mosfet.device.is_nmos
        }
        assert nmos_widths == {3.0 * bulk25.nmos.width_nm}


@pytest.mark.slow
class TestElectricalTruthTables:
    @pytest.mark.parametrize(
        "gate_type",
        [
            GateType.INV,
            GateType.BUF,
            GateType.NAND2,
            GateType.NOR2,
            GateType.AND2,
            GateType.OR2,
            GateType.XOR2,
            GateType.XNOR2,
            GateType.AOI21,
            GateType.OAI21,
            GateType.NAND3,
            GateType.NOR3,
        ],
    )
    def test_output_rail_matches_logic(self, bulk25, gate_type):
        spec = gate_spec(gate_type)
        vdd = bulk25.vdd
        for bits in spec.all_vectors():
            expected = spec.evaluate(bits)
            output = _solve_output(bulk25, gate_type, bits)
            if expected:
                assert output > 0.9 * vdd, f"{spec.name}{bits}: {output}"
            else:
                assert output < 0.1 * vdd, f"{spec.name}{bits}: {output}"

    def test_internal_nodes_reported(self, bulk25):
        netlist = TransistorNetlist(vdd=bulk25.vdd)
        for node in ("a", "b"):
            netlist.add_node(node, fixed_voltage=0.0)
        internal = build_gate_transistors(
            netlist, bulk25, GateType.AND2, "g", {"a": "a", "b": "b", "y": "y"}
        )
        assert len(internal) >= 2  # stack node + internal stage
        for node in internal:
            assert node.startswith("g.")
            assert node in netlist.nodes


class TestInternalSeedLevels:
    """The seed table must name every template node with a sane level."""

    def test_covers_every_template_node(self, bulk25):
        for gate_type in all_gate_types():
            spec = gate_spec(gate_type)
            netlist = TransistorNetlist(vdd=bulk25.vdd)
            pins = {}
            for pin in spec.inputs:
                netlist.add_node(f"in_{pin}", fixed_voltage=0.0)
                pins[pin] = f"in_{pin}"
            pins[spec.output] = "out"
            internal = build_gate_transistors(
                netlist, bulk25, gate_type, "dut", pins
            )
            labels = {node.removeprefix("dut.") for node in internal}
            for bits in spec.all_vectors():
                levels = internal_seed_levels(
                    gate_type, bits, spec.evaluate(bits)
                )
                assert set(levels) == labels, f"{spec.name}{bits}"
                assert all(value in (0, 1) for value in levels.values())

    def test_two_stage_nodes_are_complements(self):
        # BUF mid and AND/OR stage1 are outputs of the *inverting* first
        # stage; XOR/XNOR input inverters complement their own input.
        assert internal_seed_levels(GateType.BUF, [1], 1) == {"mid": 0}
        assert internal_seed_levels(GateType.BUF, [0], 0) == {"mid": 1}
        assert internal_seed_levels(GateType.AND2, [1, 1], 1)["stage1"] == 0
        assert internal_seed_levels(GateType.OR2, [0, 0], 0)["stage1"] == 1
        levels = internal_seed_levels(GateType.XOR2, [1, 0], 1)
        assert levels["a_bar"] == 0
        assert levels["b_bar"] == 1

    def test_series_stack_follows_conduction(self):
        # NAND3 stack gates top->bottom (1, 0, 1), output '1': above the
        # OFF device the node conducts to the output, below it to ground.
        levels = internal_seed_levels(GateType.NAND3, [1, 0, 1], 1)
        assert levels == {"sn0": 1, "sn1": 0}
        # All inputs high (output '0'): the whole stack conducts to both
        # ends, which agree at the ground rail.
        assert internal_seed_levels(GateType.NAND3, [1, 1, 1], 0) == {
            "sn0": 0,
            "sn1": 0,
        }
        # NOR3 all-low (output '1'): the PMOS stack conducts to supply.
        assert internal_seed_levels(GateType.NOR3, [0, 0, 0], 1) == {
            "sp0": 1,
            "sp1": 1,
        }

    def test_driven_internal_stages_settle_at_seed_rail(self, bulk25):
        # Electrical check: for every two-stage/XOR template and vector,
        # the actively driven internal nodes converge at the rail the seed
        # table names (floating stack nodes are excluded — a leakage
        # divider parks them anywhere in the band).
        driven = {
            GateType.BUF: ("mid",),
            GateType.AND2: ("stage1",),
            GateType.OR2: ("stage1",),
            GateType.XOR2: ("a_bar", "b_bar"),
            GateType.XNOR2: ("a_bar", "b_bar"),
        }
        vdd = bulk25.vdd
        for gate_type, labels in driven.items():
            spec = gate_spec(gate_type)
            for bits in spec.all_vectors():
                netlist = TransistorNetlist(vdd=vdd)
                pins = {}
                for pin, bit in zip(spec.inputs, bits):
                    netlist.add_node(f"in_{pin}", fixed_voltage=vdd * bit)
                    pins[pin] = f"in_{pin}"
                pins[spec.output] = "out"
                internal = build_gate_transistors(
                    netlist, bulk25, gate_type, "dut", pins
                )
                levels = internal_seed_levels(
                    gate_type, bits, spec.evaluate(bits)
                )
                initial = {"out": vdd * spec.evaluate(bits)}
                for node in internal:
                    initial[node] = vdd * levels[node.removeprefix("dut.")]
                op = DcSolver(netlist, 300.0).solve(initial_voltages=initial)
                assert op.converged
                for label in labels:
                    seed = levels[label]
                    solved = op.voltage(f"dut.{label}")
                    if seed:
                        assert solved > 0.9 * vdd, f"{spec.name}{bits} {label}"
                    else:
                        assert solved < 0.1 * vdd, f"{spec.name}{bits} {label}"

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="input values"):
            internal_seed_levels(GateType.NAND2, [1], 0)
