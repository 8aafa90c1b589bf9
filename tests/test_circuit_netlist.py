"""Tests for the gate-level circuit container."""

import pytest

from repro.circuit import netlist
from repro.circuit.bench_io import parse_bench, write_bench
from repro.circuit.generators import iscas_like
from repro.circuit.netlist import Circuit
from repro.gates.library import GateType


@pytest.fixture
def small_circuit():
    circuit = Circuit(name="small")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("g1", GateType.NAND2, ["a", "b"], "n1")
    circuit.add_gate("g2", GateType.INV, ["n1"], "n2")
    circuit.add_output("n2")
    return circuit


class TestConstruction:
    def test_basic_structure(self, small_circuit):
        assert small_circuit.gate_count == 2
        assert small_circuit.primary_inputs == ["a", "b"]
        assert small_circuit.primary_outputs == ["n2"]
        assert set(small_circuit.nets()) == {"a", "b", "n1", "n2"}

    def test_duplicate_gate_name_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="duplicate"):
            small_circuit.add_gate("g1", GateType.INV, ["a"], "x")

    def test_multiple_drivers_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="already driven"):
            small_circuit.add_gate("g3", GateType.INV, ["a"], "n1")

    def test_driving_primary_input_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="primary input"):
            small_circuit.add_gate("g3", GateType.INV, ["n1"], "a")

    def test_arity_mismatch_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="expects 2 inputs"):
            small_circuit.add_gate("g3", GateType.NAND2, ["a"], "x")

    def test_input_on_driven_net_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="already driven"):
            small_circuit.add_input("n1")

    def test_adding_existing_input_is_idempotent(self, small_circuit):
        small_circuit.add_input("a")
        assert small_circuit.primary_inputs.count("a") == 1

    def test_adding_existing_output_is_idempotent(self, small_circuit):
        small_circuit.add_output("n2")
        assert small_circuit.primary_outputs.count("n2") == 1


class TestQueries:
    def test_driver_and_fanout(self, small_circuit):
        assert small_circuit.driver_of("n1") == "g1"
        assert small_circuit.driver_of("a") is None
        assert small_circuit.fanout_of("n1") == [("g2", "a")]
        assert small_circuit.fanout_of("n2") == []
        assert small_circuit.is_primary_input("a")
        assert not small_circuit.is_primary_input("n1")

    def test_gate_accessors(self, small_circuit):
        gate = small_circuit.gates["g1"]
        assert gate.input_net("b") == "b"
        assert gate.pin_of_net("a") == ["a"]
        with pytest.raises(KeyError):
            gate.input_net("z")

    def test_histogram_and_stats(self, small_circuit):
        histogram = small_circuit.gate_type_histogram()
        assert histogram == {"inv": 1, "nand2": 1}
        stats = small_circuit.stats()
        assert stats["gates"] == 2
        assert stats["nets"] == 4

    def test_indices_update_after_mutation(self, small_circuit):
        small_circuit.add_gate("g3", GateType.INV, ["n2"], "n3")
        assert small_circuit.driver_of("n3") == "g3"
        assert ("g3", "a") in small_circuit.fanout_of("n2")

    def test_indices_stay_current_while_interleaving(self):
        """add_gate/add_input between queries keep both indexes exact."""
        circuit = Circuit(name="interleaved")
        circuit.add_input("a")
        assert circuit.driver_of("a") is None
        circuit.add_gate("g1", GateType.INV, ["a"], "n1")
        assert circuit.driver_of("n1") == "g1"
        assert circuit.fanout_of("a") == [("g1", "a")]
        circuit.add_input("b")
        assert circuit.fanout_of("b") == []
        circuit.add_gate("g2", GateType.NAND2, ["n1", "b"], "n2")
        assert circuit.fanout_of("n1") == [("g2", "a")]
        circuit.add_gate("g3", GateType.NOR2, ["n1", "n1"], "n3")
        assert circuit.driver_of("n3") == "g3"
        assert circuit.fanout_of("n1") == [("g2", "a"), ("g3", "a"), ("g3", "b")]
        circuit.add_input("c")
        circuit.add_gate("g4", GateType.NAND3, ["c", "n2", "n3"], "n4")

        cached_drivers = circuit._drivers
        cached_fanouts = circuit._fanouts
        circuit._invalidate()
        assert cached_drivers == circuit._drivers
        assert cached_fanouts == circuit._fanouts
        assert {net: circuit.driver_of(net) for net in circuit.nets()} == {
            "a": None, "b": None, "c": None,
            "n1": "g1", "n2": "g2", "n3": "g3", "n4": "g4",
        }

    def test_large_bench_parse_builds_driver_index_once(self, monkeypatch):
        """Parsing is linear: the driver index is built once, not per gate."""
        text = write_bench(iscas_like("s13207"))
        builds = []
        original = netlist.Circuit._drivers.fget

        def counting(circuit):
            if "_driver_index" not in circuit.__dict__:
                builds.append(circuit.name)
            return original(circuit)

        monkeypatch.setattr(netlist.Circuit, "_drivers", property(counting))
        circuit = parse_bench(text, name="big")
        assert circuit.gate_count > 8000
        assert len(builds) <= 1

    def test_copy_is_independent(self, small_circuit):
        clone = small_circuit.copy(name="clone")
        clone.add_gate("extra", GateType.INV, ["n2"], "n9")
        assert "extra" not in small_circuit.gates
        assert clone.name == "clone"


class TestValidation:
    def test_valid_circuit_passes(self, small_circuit):
        small_circuit.validate()

    def test_undriven_input_detected(self):
        circuit = Circuit(name="broken")
        circuit.add_input("a")
        circuit.add_gate("g", GateType.NAND2, ["a", "ghost"], "y")
        with pytest.raises(ValueError, match="no driver"):
            circuit.validate()

    def test_undriven_output_detected(self):
        circuit = Circuit(name="broken")
        circuit.add_input("a")
        circuit.add_gate("g", GateType.INV, ["a"], "y")
        circuit.add_output("nowhere")
        with pytest.raises(ValueError, match="no driver"):
            circuit.validate()
