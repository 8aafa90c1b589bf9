"""Schema regression tests for the recorded benchmark artifacts.

Every ``benchmarks/*.json`` is a *recorded claim* — a speedup, an
agreement bar, a solver method — that CI re-produces and downstream
documentation quotes.  Nothing previously guarded their shape: a benchmark
refactor could silently rename ``speedup`` or drop the error bars and the
stale artifact would keep looking authoritative.  This module pins, per
artifact, the key paths the claims live at (dotted paths; ``circuits.*``
applies a sub-schema to every entry of a keyed table) and their types, and
refuses unknown artifacts so a new benchmark must register its schema here
alongside its JSON.
"""

import json
import math
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

NUMBER = (int, float)

#: Required key paths per artifact.  A path maps to the expected type(s);
#: the special segment ``*`` applies the remaining path to every value of a
#: (non-empty) dict at that point.
SCHEMAS: dict[str, dict[str, type | tuple]] = {
    "engine_batched.json": {
        "circuit": str,
        "gates": int,
        "vectors": int,
        "seed": int,
        "scalar_seconds": NUMBER,
        "batched_seconds": NUMBER,
        "speedup": NUMBER,
        "max_relative_error": NUMBER,
        "relative_error_per_component.total": NUMBER,
    },
    "batched_solver.json": {
        "seed": int,
        "solver_options.voltage_tol": NUMBER,
        "solver_options.xtol": NUMBER,
        "solver_options.method": str,
        "characterization.speedup": NUMBER,
        "characterization.max_relative_error": NUMBER,
        "monte_carlo.speedup": NUMBER,
        "monte_carlo.max_relative_error": NUMBER,
        "monte_carlo.solver_method": str,
    },
    "batched_reference.json": {
        "seed": int,
        "solver_options.method": str,
        "min_speedup": NUMBER,
        "max_relative_error_bar": NUMBER,
        "circuits.*.speedup": NUMBER,
        "circuits.*.max_relative_error": NUMBER,
        "circuits.*.batched_solver.method": str,
    },
    "newton_solver.json": {
        "seed": int,
        "solver_options.newton_max_iterations": int,
        "min_speedup": NUMBER,
        "max_relative_error_bar": NUMBER,
        "characterization.speedup_vs_gauss_seidel": NUMBER,
        "characterization.speedup_vs_scalar": NUMBER,
        "characterization.max_relative_error_vs_scalar": NUMBER,
        "reference.speedup_vs_gauss_seidel": NUMBER,
        "reference.max_relative_error_vs_scalar": NUMBER,
        "reference.chunk_invariant": bool,
    },
    "sparse_newton.json": {
        "seed": int,
        "solver_options.newton_sparse_threshold": int,
        "solver_options.newton_dense_memory_limit": NUMBER,
        "min_speedup": NUMBER,
        "max_relative_error_bar": NUMBER,
        "dense_parity_bar": NUMBER,
        "medium.free_nodes": int,
        "medium.speedup_vs_dense": NUMBER,
        "medium.max_relative_error_vs_oracle": NUMBER,
        "medium.max_relative_error_vs_dense": NUMBER,
        "medium.chunk_invariant": bool,
        "large.free_nodes": int,
        "large.speedup_vs_dense": NUMBER,
        "large.max_relative_error_vs_oracle": NUMBER,
        "large.max_relative_error_vs_dense": NUMBER,
        "large.chunk_invariant": bool,
        "large.auto_resolves_sparse": bool,
        "large.dense_infeasible_batch": int,
        "large.sparse_solver_stats.fallbacks": int,
    },
    "sparse_crossover.json": {
        "seed": int,
        "permc_spec": str,
        "newton_sparse_threshold": int,
        "dense_parity_bar": NUMBER,
        "fill.*.free_nodes": int,
        "fill.*.structurally_symmetric": bool,
        "fill.*.full_diagonal": bool,
        "fill.*.colamd_lu_nnz": int,
        "fill.*.pinned_lu_nnz": int,
        "sweep.*.crossover_free_nodes": (int, type(None)),
        "sweep.*.points": list,
    },
    "session.json": {
        "circuit": str,
        "gates": int,
        "seed": int,
        "vectors_per_query": int,
        "speedup": NUMBER,
        "warm.threads": int,
        "warm.queries": int,
        "warm.queries_per_second": NUMBER,
        "warm.bitwise_identical": bool,
        "cold.queries": int,
        "cold.queries_per_second": NUMBER,
        "cold.bitwise_identical": bool,
        "coalescing.requests": int,
        "coalescing.batches": int,
        "coalescing.coalesced_requests": int,
        "compile_cache.hits": int,
        "compile_cache.misses": int,
    },
    "resilience.json": {
        "seed": int,
        "samples": int,
        "workers": int,
        "max_overhead_bar": NUMBER,
        "fault_free.seconds": NUMBER,
        "fault_free.bitwise_identical": bool,
        "faulted.seconds": NUMBER,
        "faulted.bitwise_identical": bool,
        "faulted.overhead_vs_fault_free": NUMBER,
        "faulted.retries": int,
        "faulted.pool_restarts": int,
        "faulted.gave_up": int,
    },
    "statistical_leakage.json": {
        "seed": int,
        "sigma_vth_inter_v": NUMBER,
        "samples_per_replicate": int,
        "replicates": int,
        "reference_samples": int,
        "min_efficiency_bar": NUMBER,
        "reference.std_shift_percent": NUMBER,
        "reference.lognormal_bias_percent": NUMBER,
        "std_shift.rmse_mc_empirical": NUMBER,
        "std_shift.rmse_qmc_empirical": NUMBER,
        "std_shift.rmse_qmc_lognormal": NUMBER,
        "std_shift.efficiency_qmc_empirical": NUMBER,
        "std_shift.efficiency_variance_reduced": NUMBER,
        "equivalent_mc_samples_log_std": NUMBER,
        "moments.oracle_samples": int,
        "moments.method": str,
        "moments.solve_count": int,
        "moments.speedup_vs_oracle": NUMBER,
        "moments.mean_error_bar": NUMBER,
        "moments.std_error_bar": NUMBER,
        "moments.loaded_mean_error": NUMBER,
        "moments.loaded_std_error": NUMBER,
        "moments.unloaded_mean_error": NUMBER,
        "moments.unloaded_std_error": NUMBER,
        "reproducibility.qmc_pool_bitwise": bool,
    },
    "vector_search.json": {
        "seed": int,
        "engine": str,
        "solver_method": str,
        "min_speedup": NUMBER,
        "exhaustive_parity.all_match": bool,
        "reproducibility.greedy_island_bitwise": bool,
        "reproducibility.genetic_pool_bitwise": bool,
        "circuits.*.speedup_vs_scalar": NUMBER,
        "circuits.*.improvement_percent.greedy": NUMBER,
        "circuits.*.improvement_percent.genetic": NUMBER,
        "circuits.*.beats_random.greedy": bool,
        "circuits.*.beats_random.genetic": bool,
    },
}


def _resolve(payload, path: str, artifact: str):
    """Yield every value at ``path``, expanding ``*`` over dict entries."""
    head, _, rest = path.partition(".")
    if head == "*":
        assert isinstance(payload, dict) and payload, (
            f"{artifact}: expected a non-empty table where '*' applies"
        )
        for key, value in payload.items():
            yield from _resolve(value, rest, f"{artifact}[{key}]")
        return
    assert isinstance(payload, dict), f"{artifact}: expected an object at {head!r}"
    assert head in payload, f"{artifact}: missing required key {head!r}"
    if rest:
        yield from _resolve(payload[head], rest, f"{artifact}.{head}")
    else:
        yield f"{artifact}.{head}", payload[head]


def _artifacts():
    return sorted(BENCHMARKS_DIR.glob("*.json"))


def test_every_artifact_has_a_registered_schema():
    """A new benchmark JSON must register its required keys here."""
    present = {path.name for path in _artifacts()}
    unknown = present - set(SCHEMAS)
    assert not unknown, (
        f"benchmark artifacts without a registered schema: {sorted(unknown)} — "
        "add their required key paths to tests/test_benchmark_schemas.py"
    )


@pytest.mark.parametrize(
    "path", _artifacts(), ids=lambda p: p.name
)
def test_artifact_parses_and_carries_required_keys(path):
    payload = json.loads(path.read_text())
    assert isinstance(payload, dict) and payload, f"{path.name}: empty record"
    schema = SCHEMAS[path.name]
    for key_path, expected_type in schema.items():
        for where, value in _resolve(payload, key_path, path.name):
            # bool is an int subclass; an int slot must not silently hold one.
            if expected_type in (int, NUMBER):
                assert not isinstance(value, bool), f"{where}: bool where number expected"
            assert isinstance(value, expected_type), (
                f"{where}: expected {expected_type}, got "
                f"{type(value).__name__} ({value!r})"
            )
            if isinstance(value, float):
                assert math.isfinite(value), f"{where}: non-finite {value!r}"


@pytest.mark.parametrize(
    "name", sorted(SCHEMAS), ids=lambda name: name
)
def test_registered_artifacts_exist(name):
    """Registered claims must actually be recorded in the repo."""
    assert (BENCHMARKS_DIR / name).exists(), (
        f"{name} is registered but not recorded under benchmarks/"
    )
