"""Regression tests for the batched transistor-level reference path.

The contract mirrors the batched campaign engine's: the per-vector
Gauss–Seidel relaxation :class:`repro.oracle.ScalarReference` is the
oracle, and :meth:`ReferenceSimulator.estimate_batch` must reproduce its
per-gate breakdowns and totals to solver-tolerance error while being
*bitwise* independent of how a vector set is grouped into batches (chunk
sizes, batch neighbours).  :meth:`ReferenceSimulator.estimate` is a batch
of one.
"""

import numpy as np
import pytest

from repro.circuit.flatten import flatten, flatten_batch
from repro.circuit.generators import (
    array_multiplier,
    inverter_chain,
    iscas_like,
    nand_tree,
    random_logic,
)
from repro.circuit.logic import random_vectors
from repro.core.reference import ReferenceSimulator, run_reference_campaign
from repro.core.report import REPORT_COMPONENTS
from repro.oracle import ScalarReference, per_vector_campaign
from repro.spice.solver import SolverOptions

#: Agreement bar of the production solve against the scalar oracle once
#: both sit at the root (tight tolerances), per gate and component.
TIGHT_RTOL = 1e-9
TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)


def _assert_reports_match(batched, scalar, rtol=TIGHT_RTOL):
    assert batched.input_assignment == scalar.input_assignment
    assert set(batched.per_gate) == set(scalar.per_gate)
    for name, entry_s in scalar.per_gate.items():
        entry_b = batched.per_gate[name]
        assert entry_b.vector == entry_s.vector
        assert entry_b.gate_type_name == entry_s.gate_type_name
        for component in ("subthreshold", "gate", "btbt"):
            assert entry_b.breakdown.component(component) == pytest.approx(
                entry_s.breakdown.component(component), rel=rtol, abs=1e-24
            )
    for component in REPORT_COMPONENTS:
        assert batched.component(component) == pytest.approx(
            scalar.component(component), rel=rtol, abs=0
        )


def _bitwise_equal(report_a, report_b):
    if report_a.input_assignment != report_b.input_assignment:
        return False
    for name, entry_a in report_a.per_gate.items():
        entry_b = report_b.per_gate[name]
        if entry_a.breakdown.as_dict() != entry_b.breakdown.as_dict():
            return False
    return True


class TestFlattenBatch:
    def test_structure_shared_and_per_vector_arrays(self, d25s):
        circuit = nand_tree(2)
        assignments = [
            {f"in{i}": bit for i in range(4)} for bit in (0, 1)
        ]
        flattened = flatten_batch(circuit, d25s, assignments)
        assert flattened.batch == 2
        # One shared topology; the per-vector rails are (B,) arrays over it.
        assert set(flattened.fixed_voltages) == set(circuit.primary_inputs)
        assert all(
            rails.shape == (2,) for rails in flattened.fixed_voltages.values()
        )
        # Per-vector columns equal the scalar flatten of the same assignment.
        seeds = flattened.initial_voltages()
        for column, assignment in enumerate(assignments):
            scalar = flatten(circuit, d25s, assignment)
            assert [t.name for t in scalar.netlist.transistors] == [
                t.name for t in flattened.netlist.transistors
            ]
            for net in circuit.primary_inputs:
                assert flattened.fixed_voltages[net][column] == pytest.approx(
                    scalar.netlist.nodes[net].voltage
                )
            scalar_seeds = scalar.initial_voltages()
            assert set(seeds) == set(scalar_seeds)
            for node, values in seeds.items():
                assert values[column] == scalar_seeds[node]

    def test_empty_assignments_rejected(self, d25s):
        with pytest.raises(ValueError, match="at least one"):
            flatten_batch(nand_tree(1), d25s, [])


class TestBatchedMatchesScalar:
    # The batched (Newton) and scalar (Gauss-Seidel) solves follow different
    # trajectories, so both run at tight tolerances, where each sits at the
    # root, and are held to the TIGHT_RTOL bar per gate and component.
    TIGHT_OPTIONS = SolverOptions(**TIGHT)

    def test_synthetic_circuit(self, d25s):
        circuit = iscas_like("s838", scale=0.05)
        vectors = list(random_vectors(circuit, 4, rng=3))
        simulator = ReferenceSimulator(d25s, solver_options=self.TIGHT_OPTIONS)
        oracle = ScalarReference(d25s, solver_options=self.TIGHT_OPTIONS)
        batched = simulator.estimate_batch(circuit, vectors)
        for report, vector in zip(batched, vectors):
            _assert_reports_match(
                report, oracle.estimate(circuit, vector), rtol=TIGHT_RTOL
            )
            assert report.metadata["engine"] == "batched"
            assert report.metadata["solver_converged"]

    def test_multiplier(self, d25s):
        circuit = array_multiplier(3)
        inputs = list(circuit.primary_inputs)
        vectors = [
            {net: (i >> j) & 1 for j, net in enumerate(inputs)}
            for i in (0, 21, 63)
        ]
        simulator = ReferenceSimulator(d25s, solver_options=self.TIGHT_OPTIONS)
        oracle = ScalarReference(d25s, solver_options=self.TIGHT_OPTIONS)
        batched = simulator.estimate_batch(circuit, vectors)
        for report, vector in zip(batched, vectors):
            _assert_reports_match(
                report, oracle.estimate(circuit, vector), rtol=TIGHT_RTOL
            )

    def test_tight_solve_matches_scalar_oracle_per_gate(self, d25s):
        """The production solve (batched Newton) against the scalar
        Gauss–Seidel oracle: every vector converged without fallback, every
        gate's components within 1e-9 relative, the whole vector set solved
        as one batch."""
        circuit = random_logic("ref_tight", 6, 10, rng=2)
        vectors = list(random_vectors(circuit, 3, rng=3))
        options = SolverOptions(**TIGHT)
        batched = run_reference_campaign(
            circuit, d25s, vectors=vectors, solver_options=options
        )
        scalar = per_vector_campaign(
            ScalarReference(d25s, solver_options=options), circuit, vectors
        )
        for report_b, report_s in zip(batched.reports, scalar.reports):
            meta_b, meta_s = report_b.metadata, report_s.metadata
            assert meta_b["solver_converged"] and meta_s["solver_converged"]
            assert meta_b["solver_method"] == "newton"
            assert not meta_b["solver_fallback"]
            assert meta_b["batch"] == len(vectors)
            assert set(report_b.per_gate) == set(report_s.per_gate)
            for name, entry_s in report_s.per_gate.items():
                for component in ("subthreshold", "gate", "btbt"):
                    assert report_b.per_gate[name].breakdown.component(
                        component
                    ) == pytest.approx(
                        entry_s.breakdown.component(component), rel=TIGHT_RTOL, abs=0.0
                    )


class TestBatchCompositionInvariance:
    def test_chunk_size_is_bitwise_neutral(self, d25s):
        circuit = nand_tree(2)
        vectors = list(random_vectors(circuit, 5, rng=7))
        simulator = ReferenceSimulator(d25s)
        whole = simulator.estimate_batch(circuit, vectors, chunk_size=5)
        chunked = simulator.estimate_batch(circuit, vectors, chunk_size=2)
        solo = simulator.estimate_batch(circuit, vectors, chunk_size=1)
        for a, b, c in zip(whole, chunked, solo):
            assert _bitwise_equal(a, b)
            assert _bitwise_equal(a, c)

    def test_mixed_batch_with_corner_vectors(self, d25s):
        """A batch mixing all-zeros, all-ones and random vectors: every
        column must match its own single-vector batch bitwise."""
        circuit = nand_tree(2)
        inputs = list(circuit.primary_inputs)
        vectors = (
            [{net: 0 for net in inputs}]
            + list(random_vectors(circuit, 2, rng=11))
            + [{net: 1 for net in inputs}]
        )
        simulator = ReferenceSimulator(d25s)
        together = simulator.estimate_batch(circuit, vectors)
        for vector, report in zip(vectors, together):
            [alone] = simulator.estimate_batch(circuit, [vector])
            assert _bitwise_equal(report, alone)
        # The corner vectors really are in the batch (and differ).
        assert together[0].input_assignment == {net: 0 for net in inputs}
        assert together[-1].input_assignment == {net: 1 for net in inputs}
        assert together[0].total != together[-1].total

    def test_single_vector_estimate_is_one_batch_call(self, d25s, monkeypatch):
        """``estimate`` answers one vector with exactly one ``estimate_batch``
        call holding that vector, and its leakage is bitwise that of the
        matching report of a multi-vector batch."""
        circuit = nand_tree(2)
        vectors = list(random_vectors(circuit, 3, rng=13))
        simulator = ReferenceSimulator(d25s)
        together = simulator.estimate_batch(circuit, vectors)
        calls = []
        real = ReferenceSimulator.estimate_batch

        def counting(self, circuit, assignments, *args, **kwargs):
            assignments = list(assignments)
            calls.append(assignments)
            return real(self, circuit, assignments, *args, **kwargs)

        monkeypatch.setattr(ReferenceSimulator, "estimate_batch", counting)
        report = simulator.estimate(circuit, vectors[1])
        assert calls == [[vectors[1]]]
        assert set(report.per_gate) == set(together[1].per_gate)
        assert _bitwise_equal(report, together[1])
        assert report.metadata["engine"] == "batched"

    def test_chunk_size_validation(self, d25s):
        simulator = ReferenceSimulator(d25s)
        with pytest.raises(ValueError, match="chunk_size"):
            simulator.estimate_batch(nand_tree(1), [{"in0": 0, "in1": 0}], chunk_size=0)


class TestReferenceCampaign:
    def test_batched_campaign_matches_scalar_campaign(self, d25s):
        circuit = inverter_chain(3)
        vectors = [{"in": 0}, {"in": 1}]
        options = SolverOptions(**TIGHT)
        batched = run_reference_campaign(
            circuit, d25s, vectors=vectors, solver_options=options
        )
        scalar = per_vector_campaign(
            ScalarReference(d25s, solver_options=options), circuit, vectors
        )
        assert batched.method == scalar.method == "reference"
        assert batched.vector_count == scalar.vector_count == 2
        np.testing.assert_allclose(
            batched.totals(), scalar.totals(), rtol=TIGHT_RTOL, atol=0
        )
        assert batched.runtime_s() > 0.0

    def test_empty_vector_set_rejected(self, d25s):
        with pytest.raises(ValueError, match="no vectors"):
            run_reference_campaign(inverter_chain(1), d25s, vectors=[])

    def test_random_vector_draw(self, d25s):
        campaign = run_reference_campaign(
            nand_tree(1), d25s, count=2, rng=5
        )
        assert campaign.vector_count == 2


class TestMissingOwnerDiagnostic:
    def test_scalar_path_names_gate_template_and_owners(self, d25s, monkeypatch):
        import repro.oracle as oracle_module

        real = oracle_module.leakage_by_owner

        def dropping(netlist, op):
            result = real(netlist, op)
            result.pop("inv1")
            return result

        monkeypatch.setattr(oracle_module, "leakage_by_owner", dropping)
        simulator = ScalarReference(d25s)
        with pytest.raises(RuntimeError) as excinfo:
            simulator.estimate(inverter_chain(2), {"in": 0})
        message = str(excinfo.value)
        assert "'inv1'" in message  # the gate
        assert "template 'inv'" in message  # its template
        assert "'inv2'" in message  # the owners actually present

    def test_batched_path_names_gate_template_and_owners(self, d25s, monkeypatch):
        from repro.spice.batched import BatchedDcSolver

        real = BatchedDcSolver.leakage_by_owner

        def dropping(self, op):
            result = real(self, op)
            result.pop("inv1")
            return result

        monkeypatch.setattr(BatchedDcSolver, "leakage_by_owner", dropping)
        simulator = ReferenceSimulator(d25s)
        with pytest.raises(RuntimeError) as excinfo:
            simulator.estimate_batch(inverter_chain(2), [{"in": 0}])
        message = str(excinfo.value)
        assert "'inv1'" in message
        assert "template 'inv'" in message
        assert "'inv2'" in message
