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
