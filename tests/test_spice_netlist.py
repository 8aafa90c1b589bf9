"""Tests for the transistor-level netlist container."""

import pytest

from repro.device.mosfet import Mosfet
from repro.spice.netlist import GROUND, SUPPLY, NodeKind, TransistorNetlist


@pytest.fixture
def netlist(bulk25):
    return TransistorNetlist(vdd=bulk25.vdd)


def _add_inverter(netlist, technology, name, input_node, output_node):
    netlist.add_transistor(
        f"{name}.mn",
        Mosfet(technology.nmos),
        gate=input_node,
        drain=output_node,
        source=GROUND,
        bulk=GROUND,
        owner=name,
    )
    netlist.add_transistor(
        f"{name}.mp",
        Mosfet(technology.pmos),
        gate=input_node,
        drain=output_node,
        source=SUPPLY,
        bulk=SUPPLY,
        owner=name,
    )


class TestNodes:
    def test_rails_exist(self, netlist, bulk25):
        assert netlist.nodes[GROUND].voltage == 0.0
        assert netlist.nodes[SUPPLY].voltage == pytest.approx(bulk25.vdd)
        assert netlist.nodes[SUPPLY].kind is NodeKind.FIXED

    def test_invalid_vdd_rejected(self):
        with pytest.raises(ValueError):
            TransistorNetlist(vdd=0.0)

    def test_add_free_then_fix(self, netlist):
        netlist.add_node("n1")
        assert netlist.nodes["n1"].kind is NodeKind.FREE
        netlist.fix_node("n1", 0.5)
        assert netlist.nodes["n1"].kind is NodeKind.FIXED
        netlist.free_node("n1", initial_voltage=0.2)
        assert netlist.nodes["n1"].kind is NodeKind.FREE
        assert netlist.nodes["n1"].voltage == 0.2

    def test_conflicting_fixed_voltage_rejected(self, netlist):
        netlist.add_node("a", fixed_voltage=0.9)
        with pytest.raises(ValueError):
            netlist.add_node("a", fixed_voltage=0.1)

    def test_fixing_existing_free_node_via_add_rejected(self, netlist):
        netlist.add_node("f")
        with pytest.raises(ValueError):
            netlist.add_node("f", fixed_voltage=0.9)


class TestTransistorsAndSources:
    def test_attachment_index(self, netlist, bulk25):
        netlist.add_node("in", fixed_voltage=0.0)
        _add_inverter(netlist, bulk25, "inv", "in", "out")
        attachments = netlist.attachments()
        assert len(attachments["out"]) == 2
        assert len(attachments["in"]) == 2
        assert {terminal for _, terminal in attachments["out"]} == {"drain"}

    def test_owner_listing(self, netlist, bulk25):
        netlist.add_node("in", fixed_voltage=0.0)
        _add_inverter(netlist, bulk25, "g1", "in", "n1")
        _add_inverter(netlist, bulk25, "g2", "n1", "n2")
        assert netlist.owners() == ["g1", "g2"]

    def test_free_nodes_and_fixed_voltages(self, netlist, bulk25):
        netlist.add_node("in", fixed_voltage=bulk25.vdd)
        _add_inverter(netlist, bulk25, "g1", "in", "n1")
        assert "n1" in netlist.free_nodes()
        assert "in" in netlist.fixed_voltages()


class TestValidation:
    def test_duplicate_transistor_names_rejected(self, netlist, bulk25):
        netlist.add_node("in", fixed_voltage=0.0)
        _add_inverter(netlist, bulk25, "g", "in", "out")
        netlist.add_transistor(
            "g.mn", Mosfet(bulk25.nmos), gate="in", drain="out", source=GROUND, bulk=GROUND
        )
        with pytest.raises(ValueError, match="duplicate"):
            netlist.validate()

    def test_floating_free_node_rejected(self, netlist):
        netlist.add_node("floating")
        with pytest.raises(ValueError, match="no attached devices"):
            netlist.validate()

    def test_valid_netlist_passes(self, netlist, bulk25):
        netlist.add_node("in", fixed_voltage=0.0)
        _add_inverter(netlist, bulk25, "g", "in", "out")
        netlist.validate()
