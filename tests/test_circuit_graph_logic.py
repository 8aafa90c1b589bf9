"""Tests for topological ordering, levelization and logic propagation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generators import inverter_chain, nand_tree, random_logic
from repro.circuit.graph import (
    fanout_histogram,
    levelize,
    logic_depth,
    reachable_from_inputs,
    topological_order,
)
from repro.circuit.logic import (
    exhaustive_vectors,
    gate_input_bits,
    propagate,
    random_input_assignment,
    random_vectors,
)
from repro.circuit.netlist import Circuit
from repro.gates.library import GateType


class TestTopologicalOrder:
    def test_chain_order(self):
        circuit = inverter_chain(5)
        order = topological_order(circuit)
        assert order == [f"inv{i}" for i in range(1, 6)]

    def test_cycle_detection(self):
        circuit = Circuit(name="cyclic")
        circuit.add_input("a")
        circuit.add_gate("g1", GateType.NAND2, ["a", "n2"], "n1")
        circuit.add_gate("g2", GateType.INV, ["n1"], "n2")
        with pytest.raises(ValueError, match="cycle"):
            topological_order(circuit)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), gates=st.integers(8, 60))
    def test_order_respects_dependencies(self, seed, gates):
        """Property: every gate appears after all gates driving its inputs."""
        circuit = random_logic("prop", 6, gates, rng=seed)
        order = topological_order(circuit)
        position = {name: idx for idx, name in enumerate(order)}
        assert len(order) == circuit.gate_count
        for gate in circuit.gates.values():
            for net in gate.inputs:
                driver = circuit.driver_of(net)
                if driver is not None:
                    assert position[driver] < position[gate.name]


class TestLevelsAndStats:
    def test_levelize_chain(self):
        circuit = inverter_chain(4)
        levels = levelize(circuit)
        assert [levels[f"inv{i}"] for i in range(1, 5)] == [0, 1, 2, 3]
        assert logic_depth(circuit) == 4

    def test_tree_depth(self):
        circuit = nand_tree(3)
        assert logic_depth(circuit) == 3

    def test_fanout_histogram(self):
        circuit = inverter_chain(3)
        histogram = fanout_histogram(circuit)
        assert histogram[1] == 3  # in, n1, n2 each drive one inverter
        assert histogram[0] == 1  # final output

    def test_reachable_from_inputs(self):
        circuit = inverter_chain(3)
        assert reachable_from_inputs(circuit) == set(circuit.gates)

    def test_empty_circuit_depth(self):
        assert logic_depth(Circuit(name="empty")) == 0


class TestLogicPropagation:
    def test_inverter_chain_alternates(self):
        circuit = inverter_chain(4)
        values = propagate(circuit, {"in": 1})
        assert values["n1"] == 0
        assert values["n2"] == 1
        assert values["n4"] == 1

    def test_missing_input_rejected(self):
        circuit = inverter_chain(2)
        with pytest.raises(KeyError, match="unassigned"):
            propagate(circuit, {})

    def test_extra_input_rejected(self):
        circuit = inverter_chain(2)
        with pytest.raises(KeyError, match="non-primary"):
            propagate(circuit, {"in": 0, "bogus": 1})

    def test_gate_input_bits(self):
        circuit = inverter_chain(2)
        values = propagate(circuit, {"in": 0})
        assert gate_input_bits(circuit.gates["inv2"], values) == (1,)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_propagation_consistent_with_specs(self, seed):
        """Property: every gate output equals its spec applied to its inputs."""
        circuit = random_logic("prop", 5, 40, rng=seed)
        assignment = random_input_assignment(circuit, rng=seed)
        values = propagate(circuit, assignment)
        for gate in circuit.gates.values():
            bits = tuple(values[n] for n in gate.inputs)
            assert values[gate.output] == gate.spec.evaluate(bits)


class TestVectorGeneration:
    def test_random_vectors_reproducible(self):
        circuit = nand_tree(2)
        first = list(random_vectors(circuit, 5, rng=42))
        second = list(random_vectors(circuit, 5, rng=42))
        assert first == second

    def test_random_vector_covers_all_inputs(self):
        circuit = nand_tree(2)
        assignment = random_input_assignment(circuit, rng=1)
        assert set(assignment) == set(circuit.primary_inputs)
        assert set(assignment.values()) <= {0, 1}

    def test_negative_count_rejected(self):
        circuit = nand_tree(2)
        with pytest.raises(ValueError):
            list(random_vectors(circuit, -1))

    def test_exhaustive_vectors(self):
        circuit = nand_tree(2)  # 4 inputs
        vectors = list(exhaustive_vectors(circuit))
        assert len(vectors) == 16
        assert len({tuple(sorted(v.items())) for v in vectors}) == 16
