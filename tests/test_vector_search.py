"""Tests for the minimum-leakage vector-search subsystem (`repro.optimize`).

Four layers are covered:

* engine layer — the totals-only fast path (:func:`run_totals`) against the
  report-materializing :func:`run_compiled`, including chunking invariance
  and input validation;
* objective layer — population scoring and the evaluation ledger;
* search layer — exhaustive-oracle parity of both heuristics on every
  small-input circuit shape (the acceptance bar: <= 12 primary inputs must
  return the true minimum), bitwise island/worker-count reproducibility,
  budget caps and convergence diagnostics;
* dispatch layer — :func:`minimize_leakage`'s strategy routing and its
  argument validation, including the refusal of non-library estimators.
"""

import numpy as np
import pytest

from repro.circuit.generators import (
    alu,
    array_multiplier,
    nand_tree,
    random_logic,
)
from repro.circuit.logic import exhaustive_vectors
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.vectors import run_vector_campaign
from repro.engine import compile_circuit, run_compiled, run_totals
from repro.optimize import (
    GeneticOptions,
    GreedyOptions,
    LeakageObjective,
    MAX_EXHAUSTIVE_INPUTS,
    exhaustive_minimize,
    genetic_minimize,
    greedy_minimize,
    minimize_leakage,
)


@pytest.fixture(scope="module")
def estimator(library25):
    return LoadingAwareEstimator(library25)


@pytest.fixture(scope="module")
def small_circuit():
    return nand_tree(3)


@pytest.fixture(scope="module")
def compiled_small(small_circuit, library25):
    return compile_circuit(small_circuit, library25)


# --------------------------------------------------------------------------- #
# engine layer: run_totals
# --------------------------------------------------------------------------- #


class TestRunTotals:
    def test_matches_run_compiled_bitwise(self, compiled_small, small_circuit):
        vectors = list(exhaustive_vectors(small_circuit))[:40]
        run = run_compiled(compiled_small, vectors)
        bits = compiled_small.validate_assignments(vectors)
        totals = run_totals(compiled_small, bits)
        assert np.array_equal(totals, run.component_totals()["total"])

    def test_no_loading_matches(self, compiled_small, small_circuit):
        vectors = list(exhaustive_vectors(small_circuit))[:16]
        run = run_compiled(compiled_small, vectors, include_loading=False)
        bits = compiled_small.validate_assignments(vectors)
        totals = run_totals(compiled_small, bits, include_loading=False)
        assert np.array_equal(totals, run.component_totals()["total"])

    def test_chunking_is_bitwise_invariant(self, compiled_small):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(8, 37), dtype=np.uint8)
        whole = run_totals(compiled_small, bits)
        for chunk_size in (1, 5, 37, 1000):
            assert np.array_equal(
                run_totals(compiled_small, bits, chunk_size=chunk_size), whole
            )

    def test_rejects_bad_inputs(self, compiled_small):
        with pytest.raises(ValueError, match="shape"):
            run_totals(compiled_small, np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 or 1"):
            run_totals(compiled_small, np.full((8, 2), 2, dtype=np.uint8))
        with pytest.raises(ValueError, match="chunk_size"):
            run_totals(
                compiled_small, np.zeros((8, 2), dtype=np.uint8), chunk_size=0
            )


class TestObjective:
    def test_ledger_counts_every_candidate(self, compiled_small):
        objective = LeakageObjective(compiled_small)
        rng = np.random.default_rng(0)
        objective.totals(rng.integers(0, 2, size=(5, 8), dtype=np.uint8))
        objective.totals(rng.integers(0, 2, size=(3, 8), dtype=np.uint8))
        assert objective.evaluations == 8

    def test_assignment_roundtrip(self, compiled_small, small_circuit):
        objective = LeakageObjective(compiled_small)
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assignment = objective.assignment(bits)
        assert list(assignment) == list(small_circuit.primary_inputs)
        assert [assignment[pi] for pi in small_circuit.primary_inputs] == [
            1, 0, 1, 1, 0, 0, 1, 0,
        ]

    def test_rejects_wrong_width(self, compiled_small):
        objective = LeakageObjective(compiled_small)
        with pytest.raises(ValueError, match="shape"):
            objective.totals(np.zeros((2, 5), dtype=np.uint8))
        with pytest.raises(ValueError, match="bits"):
            objective.assignment(np.zeros(5, dtype=np.uint8))


# --------------------------------------------------------------------------- #
# search layer: oracle parity, reproducibility, budgets
# --------------------------------------------------------------------------- #


def _small_circuits():
    """Every circuit shape of the acceptance bar (<= 12 primary inputs)."""
    return [
        nand_tree(2),  # 4 inputs, tree
        nand_tree(3),  # 8 inputs, tree
        array_multiplier(3),  # 6 inputs, exact arithmetic array
        alu(2),  # 7 inputs, mux/adder mix
        random_logic("opt_rl10", 10, 30, rng=7),  # 10 inputs, random logic
        random_logic("opt_rl12", 12, 36, rng=19),  # 12 inputs, random logic
    ]


class TestOracleParity:
    @pytest.mark.parametrize(
        "circuit", _small_circuits(), ids=lambda c: c.name
    )
    def test_heuristics_find_the_exhaustive_minimum(self, circuit, estimator):
        """<= 12 inputs: both strategies must return the true minimum."""
        oracle = minimize_leakage(estimator, circuit, strategy="exhaustive")
        greedy = minimize_leakage(estimator, circuit, strategy="greedy", rng=11)
        genetic = minimize_leakage(estimator, circuit, strategy="genetic", rng=11)
        assert greedy.best_total == oracle.best_total
        assert genetic.best_total == oracle.best_total

    def test_exhaustive_matches_legacy_streaming_search(
        self, estimator, small_circuit
    ):
        """The streamed oracle equals the argmin of one whole campaign."""
        vectors = list(exhaustive_vectors(small_circuit))
        totals = run_vector_campaign(
            estimator, small_circuit, vectors=vectors
        ).totals()
        best = int(np.argmin(totals))
        oracle = exhaustive_minimize(
            compile_circuit(small_circuit, estimator.library)
        )
        assert totals[best] == oracle.best_total
        assert vectors[best] == oracle.best_assignment

    def test_no_loading_scoring_follows_the_estimator(
        self, library25, small_circuit
    ):
        baseline = NoLoadingEstimator(library25)
        oracle = minimize_leakage(baseline, small_circuit, strategy="exhaustive")
        greedy = minimize_leakage(baseline, small_circuit, strategy="greedy", rng=5)
        assert not oracle.include_loading
        assert greedy.best_total == oracle.best_total

    def test_exhaustive_refuses_wide_circuits(self, estimator, library25):
        wide = random_logic("opt_wide", MAX_EXHAUSTIVE_INPUTS + 1, 30, rng=2)
        compiled = compile_circuit(wide, library25)
        with pytest.raises(ValueError, match="greedy"):
            exhaustive_minimize(compiled)


class TestReproducibility:
    def test_greedy_is_island_split_invariant(self, compiled_small):
        serial = greedy_minimize(compiled_small, rng=42, islands=1)
        split = greedy_minimize(compiled_small, rng=42, islands=3)
        assert serial.best_total == split.best_total
        assert np.array_equal(serial.best_bits, split.best_bits)
        assert serial.evaluations == split.evaluations

    @pytest.mark.slow
    def test_islands_match_process_pool_bitwise(self, compiled_small):
        options = GeneticOptions(population=12, generations=6)
        serial = genetic_minimize(
            compiled_small, options=options, rng=7, islands=2, max_workers=1
        )
        pooled = genetic_minimize(
            compiled_small, options=options, rng=7, islands=2, max_workers=2
        )
        assert serial.best_total == pooled.best_total
        assert np.array_equal(serial.best_bits, pooled.best_bits)
        assert serial.evaluations == pooled.evaluations
        for a, b in zip(serial.islands, pooled.islands):
            assert np.array_equal(a.trajectory, b.trajectory)
            assert a.stop_reason == b.stop_reason

    def test_same_seed_same_result(self, compiled_small):
        first = genetic_minimize(compiled_small, rng=123)
        second = genetic_minimize(compiled_small, rng=123)
        assert first.best_total == second.best_total
        assert np.array_equal(first.best_bits, second.best_bits)


class TestBudgetsAndDiagnostics:
    def test_greedy_round_cap_and_ledger(self, compiled_small):
        options = GreedyOptions(restarts=4, max_rounds=0)
        result = greedy_minimize(compiled_small, options=options, rng=1)
        # No neighborhood rounds: only the 4 start vectors were scored.
        assert result.evaluations == 4
        assert not result.converged
        assert result.islands[0].stop_reason == "max-rounds"

    def test_greedy_runs_to_local_minima(self, compiled_small):
        result = greedy_minimize(
            compiled_small, options=GreedyOptions(restarts=3), rng=1
        )
        assert result.converged
        assert all(i.stop_reason == "local-minima" for i in result.islands)
        n = result.n_inputs
        # Ledger: starts plus one n-candidate neighborhood per active
        # restart per round — bounded below by one final non-improving
        # round per restart.
        assert result.evaluations >= 3 + 3 * n

    def test_genetic_generation_ledger(self, compiled_small):
        options = GeneticOptions(
            population=10, generations=3, elite=2, stall_generations=None
        )
        result = genetic_minimize(compiled_small, options=options, rng=9)
        # population + generations * (population - elite) candidates scored.
        assert result.evaluations == 10 + 3 * (10 - 2)
        assert result.islands[0].rounds == 3

    def test_trajectories_are_monotone(self, compiled_small):
        result = genetic_minimize(compiled_small, rng=4)
        curve = result.trajectory
        assert curve.size
        assert np.all(np.diff(curve) <= 0.0)
        assert curve[-1] == result.best_total
        assert "Minimum-leakage" in result.to_table()

    def test_option_validation(self, compiled_small):
        with pytest.raises(ValueError, match="max_workers"):
            genetic_minimize(compiled_small, max_workers=0)
        with pytest.raises(ValueError):
            GreedyOptions(restarts=0)
        with pytest.raises(ValueError):
            GreedyOptions(max_rounds=-1)
        with pytest.raises(ValueError):
            GeneticOptions(population=1)
        with pytest.raises(ValueError):
            GeneticOptions(elite=32, population=32)
        with pytest.raises(ValueError):
            GeneticOptions(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GeneticOptions(stall_generations=0)


# --------------------------------------------------------------------------- #
# dispatch layer: minimize_leakage(strategy=...)
# --------------------------------------------------------------------------- #


class _ScalarOnlyEstimator:
    """A non-library estimator: the search refuses it."""

    def estimate(self, circuit, assignment):
        raise AssertionError("a refused estimator evaluated a vector")


class TestStrategyDispatch:
    def test_strategy_engine_validation(self, estimator):
        circuit = nand_tree(2)
        # The exhaustive oracle is a serial deterministic stream: search
        # knobs are rejected, not silently dropped.
        with pytest.raises(TypeError, match="takes no options"):
            minimize_leakage(
                estimator, circuit, strategy="exhaustive",
                options=GreedyOptions(),
            )
        with pytest.raises(ValueError, match="islands"):
            minimize_leakage(estimator, circuit, strategy="exhaustive", islands=2)
        with pytest.raises(ValueError, match="islands"):
            minimize_leakage(
                estimator, circuit, strategy="exhaustive", max_workers=2
            )

    def test_strategy_argument_validation(self, estimator, small_circuit):
        with pytest.raises(ValueError, match="strategy must be one of"):
            minimize_leakage(estimator, small_circuit, strategy="anneal")
        stub = _ScalarOnlyEstimator()
        for strategy in ("exhaustive", "greedy"):
            with pytest.raises(ValueError, match="library-backed"):
                minimize_leakage(stub, small_circuit, strategy=strategy)
        with pytest.raises(TypeError, match="GreedyOptions"):
            minimize_leakage(
                estimator,
                small_circuit,
                strategy="greedy",
                options=GeneticOptions(),
            )
        with pytest.raises(TypeError, match="GeneticOptions"):
            minimize_leakage(
                estimator,
                small_circuit,
                strategy="genetic",
                options=GreedyOptions(),
            )
