"""Tests for the sparse Newton backend and the solver-backend dispatch.

Covers the backend abstraction introduced around
:mod:`repro.spice.sparse`:

* parity — the sparse backend must agree with the dense backend on mixed
  batches (voltages and per-owner leakage to ~machine precision, far
  below the 1e-12 relative bar asserted here);
* the structure the pinned SuperLU ordering assumes: a structurally
  symmetric shared pattern with a full diagonal;
* the solver-level invariants the dense path already guarantees, now for
  the sparse path: bitwise batch-composition invariance and the bitwise
  Gauss–Seidel fallback;
* the backend rule (free-node threshold and dense-memory escape) and the
  backend reporting;
* the characterization-cache fingerprint: the solver options and the
  SuperLU ordering fork caches, strict loads refuse a backend mismatch;
* the scalable layered-DAG generator the large-system benchmark builds on
  (``iscas_like(n_gates)``), which must be lint-clean by construction.
"""

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from repro.analysis.netlist_lint import lint_circuit
from repro.circuit.flatten import flatten_batch
from repro.circuit.generators import iscas_like, layered_logic
from repro.circuit.graph import logic_depth
from repro.circuit.logic import random_vectors
from repro.device.mosfet import Mosfet
from repro.gates.cache import (
    characterization_fingerprint,
    load_library,
    save_library,
)
from repro.gates.characterize import (
    CharacterizationOptions,
    GateCharacterizer,
    GateLibrary,
)
from repro.gates.library import GateType
from repro.gates.templates import build_gate_transistors
from repro.oracle import solve_gauss_seidel
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import NodeKind, TransistorNetlist
from repro.spice.newton import (
    _NewtonAssembler,
    dense_jacobian_bytes,
    resolve_newton_method,
)
from repro.spice.solver import SolverOptions
from repro.spice.sparse import SparseNewtonBackend

TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)
#: The free-node threshold forces a backend: 1 sends every system with a
#: free node to the sparse one, a threshold above every system here keeps
#: the dense one (its stacks stay far below the memory limit).
TIGHT_DENSE = SolverOptions(newton_sparse_threshold=10**9, **TIGHT)
TIGHT_SPARSE = SolverOptions(newton_sparse_threshold=1, **TIGHT)


def _nand2_cell(technology, vector, injection=None, vth_shift=0.0):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    if injection:
        netlist.add_current_source("out", injection)
    if vth_shift:
        for transistor in netlist.transistors:
            transistor.mosfet.vth_shift = vth_shift
    return netlist


def _mixed_batch(technology):
    return [
        _nand2_cell(technology, (1, 0)),
        _nand2_cell(technology, (0, 0), injection=5e-7),
        _nand2_cell(technology, (1, 1), injection=-2e-7, vth_shift=0.004),
        _nand2_cell(technology, (0, 1), injection=2e-6),
    ]


def _relative_gap(a, b, floor=1e-30):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


@pytest.mark.slow
class TestSparseDenseParity:
    def test_voltages_and_leakage_match_on_mixed_batch(self, bulk25):
        netlists = _mixed_batch(bulk25)
        dense_solver = BatchedDcSolver(netlists, 300.0, TIGHT_DENSE)
        sparse_solver = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE)
        dense = dense_solver.solve()
        sparse = sparse_solver.solve()
        assert dense.all_converged and sparse.all_converged
        assert dense.method == "newton"
        assert sparse.method == "newton-sparse"
        assert not sparse.fallback.any()
        assert np.max(np.abs(dense.voltages - sparse.voltages)) <= 1e-12

        dense_leak = dense_solver.leakage_by_owner(dense)["g"]
        sparse_leak = sparse_solver.leakage_by_owner(sparse)["g"]
        for index in range(len(netlists)):
            got = sparse_leak.at(index)
            want = dense_leak.at(index)
            assert _relative_gap(got.total, want.total) <= 1e-12
            for component in ("subthreshold", "gate", "btbt"):
                assert (
                    _relative_gap(
                        got.component(component), want.component(component)
                    )
                    <= 1e-12
                )

    def test_sparse_matches_gauss_seidel_oracle(self, bulk25):
        netlists = _mixed_batch(bulk25)
        sparse = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        relaxed = solve_gauss_seidel(BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE))
        assert sparse.all_converged and relaxed.all_converged
        assert np.max(np.abs(sparse.voltages - relaxed.voltages)) <= 1e-9


class TestSparsePattern:
    def test_shared_pattern_is_symmetric_with_full_diagonal(self, bulk25):
        """The pinned ordering works on the pattern of A+A^T, which is only
        the Jacobian's own pattern when that is structurally symmetric; a
        full diagonal keeps every pivot structurally available."""
        circuit = iscas_like(48, rng=7)
        flattened = flatten_batch(
            circuit, bulk25, list(random_vectors(circuit, 1, rng=1))
        )
        solver = BatchedDcSolver(flattened.netlist_views(), 300.0, TIGHT_SPARSE)
        backend = SparseNewtonBackend(_NewtonAssembler(solver))
        n = backend.assembler.n_free
        pattern = csc_matrix(
            (np.ones(backend.nnz), backend.indices, backend.indptr), shape=(n, n)
        )
        assert n > 100
        assert (pattern != pattern.T).nnz == 0
        assert np.all(pattern.diagonal() == 1.0)


@pytest.mark.slow
class TestSparseBatchInvariance:
    def test_batch_composition_is_bitwise_neutral(self, bulk25):
        """Sparse columns solved alone, chunked, or in the full batch must
        be bit-for-bit identical (per-column SuperLU factorization never
        mixes columns)."""
        netlists = _mixed_batch(bulk25)
        whole = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert whole.all_converged
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT_SPARSE).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]
        halves = [
            BatchedDcSolver(netlists[:2], 300.0, TIGHT_SPARSE).solve(),
            BatchedDcSolver(netlists[2:], 300.0, TIGHT_SPARSE).solve(),
        ]
        recombined = np.concatenate([half.voltages for half in halves], axis=1)
        assert np.array_equal(recombined, whole.voltages)


@pytest.mark.slow
class TestSparseFallback:
    def _pinned_cell(self, technology, injection):
        netlist = TransistorNetlist(vdd=technology.vdd)
        netlist.add_node("float_gate")
        netlist.add_transistor(
            name="m1",
            mosfet=Mosfet(technology.nmos),
            gate="float_gate",
            drain="vdd",
            source="gnd",
            bulk="gnd",
            owner="g",
        )
        netlist.add_current_source("float_gate", injection)
        return netlist

    def test_pinned_node_falls_back_bitwise_to_gauss_seidel(self, bulk25):
        sparse = BatchedDcSolver(
            [self._pinned_cell(bulk25, 1e-3)], 300.0, TIGHT_SPARSE
        ).solve()
        relaxed = solve_gauss_seidel(
            BatchedDcSolver([self._pinned_cell(bulk25, 1e-3)], 300.0, TIGHT_SPARSE)
        )
        assert sparse.fallback[0]
        assert sparse.method == "newton-sparse"
        assert np.array_equal(sparse.voltages, relaxed.voltages)

    def test_mixed_fallback_batch_stays_column_independent(self, bulk25):
        netlists = [
            self._pinned_cell(bulk25, 1e-3),
            self._pinned_cell(bulk25, 1e-12),
        ]
        whole = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert whole.all_converged
        assert whole.fallback[0] and not whole.fallback[1]
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT_SPARSE).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])


class TestAutoDispatch:
    def test_resolution_policy(self):
        default = SolverOptions()
        assert resolve_newton_method(default, 8, 4) == "newton"
        assert resolve_newton_method(default, 127, 64) == "newton"
        assert resolve_newton_method(default, 128, 1) == "newton-sparse"
        assert resolve_newton_method(TIGHT_DENSE, 5000, 1) == "newton"
        assert resolve_newton_method(TIGHT_SPARSE, 2, 1) == "newton-sparse"
        # The dense-memory escape triggers sparse below the node threshold.
        assert resolve_newton_method(TIGHT_DENSE, 5000, 64) == "newton-sparse"
        tight_memory = SolverOptions(newton_dense_memory_limit=100.0)
        assert resolve_newton_method(tight_memory, 8, 4) == "newton-sparse"

    def test_estimate(self):
        assert dense_jacobian_bytes(3, 10) == 3 * 10 * 10 * 8

    @pytest.mark.slow
    def test_auto_below_threshold_is_bitwise_dense(self, bulk25):
        netlists = _mixed_batch(bulk25)
        auto = SolverOptions(**TIGHT)
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        dense = BatchedDcSolver(netlists, 300.0, TIGHT_DENSE).solve()
        assert resolved.method == "newton"
        assert np.array_equal(resolved.voltages, dense.voltages)

    @pytest.mark.slow
    def test_auto_at_threshold_is_bitwise_sparse(self, bulk25):
        netlists = _mixed_batch(bulk25)  # two free nodes
        auto = SolverOptions(newton_sparse_threshold=2, **TIGHT)
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        sparse = BatchedDcSolver(netlists, 300.0, TIGHT_SPARSE).solve()
        assert resolved.method == "newton-sparse"
        assert np.array_equal(resolved.voltages, sparse.voltages)

    @pytest.mark.slow
    def test_auto_over_memory_limit_switches_instead_of_raising(self, bulk25):
        netlists = _mixed_batch(bulk25)
        auto = SolverOptions(newton_dense_memory_limit=10.0, **TIGHT)
        resolved = BatchedDcSolver(netlists, 300.0, auto).solve()
        assert resolved.method == "newton-sparse"
        assert resolved.all_converged


class TestDenseMemoryGuard:
    def test_options_validated(self):
        with pytest.raises(ValueError, match="newton_sparse_threshold"):
            SolverOptions(newton_sparse_threshold=0)
        with pytest.raises(ValueError, match="newton_dense_memory_limit"):
            SolverOptions(newton_dense_memory_limit=0.0)


class TestSparseCacheFingerprint:
    def _options(self, **solver_kwargs):
        return CharacterizationOptions(
            injection_grid=(-1e-6, 1e-6),
            solver=SolverOptions(**solver_kwargs),
        )

    def test_backend_options_change_fingerprint(self, bulk25, monkeypatch):
        """Each backend knob is part of the cache identity: dense and sparse
        agree only to ~1e-15, not bitwise, so records must not be shared.
        The same holds for two SuperLU column orderings."""
        kwargs_set = (
            dict(),
            dict(newton_sparse_threshold=1),
            dict(newton_sparse_threshold=64),
            dict(newton_dense_memory_limit=1e8),
        )

        def fingerprints():
            return {
                characterization_fingerprint(
                    bulk25, self._options(**kwargs), bulk25.temperature_k
                )
                for kwargs in kwargs_set
            }

        pinned = fingerprints()
        assert len(pinned) == len(kwargs_set)
        monkeypatch.setattr("repro.spice.sparse._PERMC_SPEC", "COLAMD")
        other_ordering = fingerprints()
        assert len(other_ordering) == len(kwargs_set)
        assert not pinned & other_ordering

    def test_strict_load_refuses_backend_mismatch(self, bulk25, tmp_path):
        path = tmp_path / "library.json"
        dense = GateLibrary(bulk25, options=self._options())
        dense.precharacterize([GateType.INV])
        save_library(dense, path)

        sparse = GateLibrary(bulk25, options=self._options(newton_sparse_threshold=1))
        with pytest.raises(ValueError, match="options"):
            load_library(sparse, path)
        assert load_library(sparse, path, strict=False) == 2
        assert load_library(GateLibrary(bulk25, options=self._options()), path) == 2


class TestBackendReporting:
    def test_characterizer_counts_resolved_backends(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=(-1e-6, 1e-6),
                solver=TIGHT_SPARSE,
            ),
        )
        characterizer.characterize(GateType.INV, (0,))
        methods = characterizer.solve_stats["methods"]
        assert methods.get("newton-sparse", 0) > 0
        assert "newton" not in methods
        solves = characterizer.solve_stats["solves"]
        assert sum(methods.values()) == solves

    def test_auto_request_reports_resolved_backend(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=(-1e-6, 1e-6),
                solver=SolverOptions(**TIGHT),
            ),
        )
        characterizer.characterize(GateType.INV, (1,))
        methods = characterizer.solve_stats["methods"]
        assert "newton-sparse" not in methods
        assert methods.get("newton", 0) > 0  # tiny cells resolve dense


class TestLayeredGenerator:
    def test_gate_count_and_determinism(self):
        circuit = iscas_like(64, rng=5)
        again = iscas_like(64, rng=5)
        assert len(circuit.gates) == 64
        assert list(circuit.gates) == list(again.gates)
        assert [g.inputs for g in circuit.gates.values()] == [
            g.inputs for g in again.gates.values()
        ]

    def test_lint_clean_by_construction(self):
        for seed in (0, 1, 2):
            circuit = iscas_like(200, rng=seed)
            assert not lint_circuit(circuit).diagnostics

    def test_layers_bound_logic_depth(self):
        circuit = layered_logic("l4", n_inputs=8, n_gates=40, rng=3, n_layers=4)
        assert len(circuit.gates) == 40
        assert not lint_circuit(circuit).diagnostics
        assert logic_depth(circuit) <= 4

    def test_scale_shrinks_gate_count(self):
        full = iscas_like(120, rng=9)
        half = iscas_like(120, scale=0.5, rng=9)
        assert len(half.gates) == 60
        assert len(full.gates) == 120

    def test_input_validation(self):
        with pytest.raises(ValueError, match="gate count"):
            iscas_like(4)
        with pytest.raises(TypeError, match="gate count"):
            iscas_like(True)
        with pytest.raises(ValueError, match="n_inputs"):
            layered_logic("bad", n_inputs=2, n_gates=10)
        with pytest.raises(ValueError, match="skip_fraction"):
            layered_logic("bad", n_inputs=8, n_gates=10, skip_fraction=1.5)

    @pytest.mark.slow
    def test_flattened_circuit_solves_with_auto_sparse(self, bulk25):
        """End-to-end: a generated circuit flattens to 30 free nodes, past a
        threshold lowered to 24, so the solver sends it to the sparse
        backend by its node count alone (its dense stack is far below the
        memory limit; ``TestAutoDispatch::test_resolution_policy`` covers
        the default threshold).  Every column converges without a
        Gauss–Seidel fallback; per-gate leakage matches dense to 1e-12 and
        Gauss–Seidel to 1e-9 relative; each column solved alone is
        bitwise the batch's."""
        circuit = iscas_like(12, rng=7)
        vectors = list(random_vectors(circuit, 2, rng=1))
        flattened = flatten_batch(circuit, bulk25, vectors)
        views = flattened.netlist_views()
        free = sum(
            1
            for node in flattened.netlist.nodes.values()
            if node.kind is NodeKind.FREE
        )
        auto = SolverOptions(newton_sparse_threshold=24, **TIGHT)
        assert free >= auto.newton_sparse_threshold
        assert dense_jacobian_bytes(len(views), free) < auto.newton_dense_memory_limit

        def solve(options, run=BatchedDcSolver.solve):
            solver = BatchedDcSolver(views, 300.0, options)
            op = run(solver, flattened.initial_voltages())
            assert op.all_converged
            return op, solver.leakage_by_owner(op)

        (op, leakage), (dense, dense_leakage), (relaxed, relaxed_leakage) = (
            solve(auto), solve(TIGHT_DENSE), solve(auto, solve_gauss_seidel)
        )
        assert op.method == "newton-sparse"
        assert not op.fallback.any()
        assert np.max(np.abs(op.voltages - dense.voltages)) <= 1e-12
        assert np.max(np.abs(op.voltages - relaxed.voltages)) <= 1e-9
        assert set(leakage) == set(circuit.gates)
        for owner, breakdown in leakage.items():
            for component in ("subthreshold", "gate", "btbt"):
                got = getattr(breakdown, component)
                np.testing.assert_allclose(
                    got, getattr(dense_leakage[owner], component), rtol=1e-12, atol=0
                )
                np.testing.assert_allclose(
                    got, getattr(relaxed_leakage[owner], component), rtol=1e-9, atol=0
                )
        for column, vector in enumerate(vectors):
            alone = flatten_batch(circuit, bulk25, [vector])
            alone_op = BatchedDcSolver(alone.netlist_views(), 300.0, auto).solve(
                alone.initial_voltages()
            )
            assert np.array_equal(alone_op.voltages[:, 0], op.voltages[:, column])
