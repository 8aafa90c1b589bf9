"""Tests for the logic-level gate library (specs and boolean functions)."""

import itertools

import pytest

from repro.gates.library import GateType, all_gate_types, gate_spec


def _reference_function(gate_type, bits):
    """Independent re-implementation of every gate's boolean function."""
    a = bits
    if gate_type is GateType.INV:
        return 1 - a[0]
    if gate_type is GateType.BUF:
        return a[0]
    if gate_type in (GateType.NAND2, GateType.NAND3, GateType.NAND4):
        return 1 - int(all(a))
    if gate_type in (GateType.NOR2, GateType.NOR3):
        return 1 - int(any(a))
    if gate_type in (GateType.AND2, GateType.AND3):
        return int(all(a))
    if gate_type in (GateType.OR2, GateType.OR3):
        return int(any(a))
    if gate_type is GateType.XOR2:
        return a[0] ^ a[1]
    if gate_type is GateType.XNOR2:
        return 1 - (a[0] ^ a[1])
    if gate_type is GateType.AOI21:
        return 1 - ((a[0] & a[1]) | a[2])
    if gate_type is GateType.OAI21:
        return 1 - ((a[0] | a[1]) & a[2])
    raise AssertionError(f"unhandled {gate_type}")


class TestGateSpecs:
    @pytest.mark.parametrize("gate_type", all_gate_types())
    def test_truth_table_matches_reference(self, gate_type):
        spec = gate_spec(gate_type)
        for bits in itertools.product((0, 1), repeat=spec.num_inputs):
            assert spec.evaluate(bits) == _reference_function(gate_type, bits)

    @pytest.mark.parametrize("gate_type", all_gate_types())
    def test_all_vectors_enumeration(self, gate_type):
        spec = gate_spec(gate_type)
        vectors = spec.all_vectors()
        assert len(vectors) == 2**spec.num_inputs
        assert len(set(vectors)) == len(vectors)

    def test_vector_label(self):
        spec = gate_spec(GateType.NAND2)
        assert spec.vector_label((0, 1)) == "01"

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gate_spec(GateType.NAND2).evaluate((1,))

    def test_lookup_by_name(self):
        assert gate_spec("nand2").gate_type is GateType.NAND2
        assert GateType.from_name("XOR2") is GateType.XOR2
        with pytest.raises(KeyError):
            gate_spec("nand17")

    def test_output_pin_name(self):
        assert gate_spec(GateType.INV).output == "y"
        assert gate_spec(GateType.AOI21).inputs == ("a", "b", "c")
