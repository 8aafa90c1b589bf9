"""Sparse-Newton benchmark: SuperLU backend vs dense Newton at circuit scale.

The dense batched Newton solver factorizes a ``(B, N, N)`` Jacobian stack
per iteration — perfect for characterization-sized cells (N of tens), but
quadratic memory and cubic factorization cost in the free-node count N.
The sparse backend (:mod:`repro.spice.sparse`) assembles the same Jacobian
entries into one shared CSC pattern and runs SuperLU per column, so cost
scales with the number of *nonzeros* (a few device stamps per node).  This
benchmark pins the crossover claim on two synthetic ISCAS-like circuits
(:func:`repro.circuit.generators.iscas_like` integer scaling):

* a **medium** point (~1,300 free nodes) where dense still runs — sparse
  must beat it while agreeing to dense-parity tolerance, and
* a **large** point (>= 5,000 free nodes) where the dense Jacobian stack
  is memory-infeasible beyond a handful of batch columns — the recorded
  ``dense_infeasible_batch`` says where the pre-flight guard trips at the
  default 4 GB limit — and, where dense does still fit, at least
  ``MIN_SPEEDUP`` slower than the sparse backend.

Both points run the full end-to-end reference campaign (flatten, solve,
per-gate leakage aggregation), not a bare linear solve.  Acceptance bars:
every solve converged with zero Gauss-Seidel fallbacks, sparse vs dense
per-gate leakage within ``DENSE_PARITY_BOUND`` (the two backends solve the
same Newton steps to LAPACK-vs-SuperLU rounding), sparse vs the
Gauss-Seidel oracle within ``MAX_RELATIVE_ERROR``, results bitwise
independent of vector chunking, and ``method="auto"`` resolving to the
sparse backend wherever the free-node count crosses the default threshold.
The speedup floors can be lowered for smoke runs on small configurations
(the per-column SuperLU loop only amortizes at real circuit sizes); the
accuracy bars are never relaxed.

The numbers land in ``benchmarks/sparse_newton.json`` (override with
``SPARSE_BENCH_JSON``).  Smoke knobs: ``SPARSE_BENCH_MEDIUM_GATES``
(default 600), ``SPARSE_BENCH_LARGE_GATES`` (default 2400),
``SPARSE_BENCH_VECTORS`` (batch per point, default 2),
``SPARSE_BENCH_ORACLE_VECTORS`` (Gauss-Seidel oracle prefix, default 1),
``SPARSE_BENCH_MIN_SPEEDUP`` (large-point floor, default 5.0) and
``SPARSE_BENCH_MIN_MEDIUM_SPEEDUP`` (default 2.0).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.circuit.flatten import flatten_batch
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core.reference import run_reference_campaign
from repro.spice.netlist import NodeKind
from repro.spice.newton import dense_jacobian_bytes, resolve_newton_method
from repro.spice.solver import SolverOptions

SEED = 3105
MEDIUM_GATES = int(os.environ.get("SPARSE_BENCH_MEDIUM_GATES", "600"))
LARGE_GATES = int(os.environ.get("SPARSE_BENCH_LARGE_GATES", "2400"))
VECTORS = int(os.environ.get("SPARSE_BENCH_VECTORS", "2"))
ORACLE_VECTORS = int(os.environ.get("SPARSE_BENCH_ORACLE_VECTORS", "1"))

#: Acceptance thresholds (see module docstring).  The speedup floors are
#: wall clock and can be lowered for smoke runs at reduced circuit sizes;
#: the two agreement bars are deterministic and never lowered.
MIN_SPEEDUP = float(os.environ.get("SPARSE_BENCH_MIN_SPEEDUP", "5.0"))
MIN_MEDIUM_SPEEDUP = float(
    os.environ.get("SPARSE_BENCH_MIN_MEDIUM_SPEEDUP", "2.0")
)
MAX_RELATIVE_ERROR = 1.0e-9
DENSE_PARITY_BOUND = 1.0e-12

#: Tight tolerances shared by every engine, matching the other solver
#: benchmarks: root-finder termination noise sits far below the bars.
_TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)
SPARSE = SolverOptions(method="newton-sparse", **_TIGHT)
DENSE = SolverOptions(method="newton", **_TIGHT)
GAUSS_SEIDEL = SolverOptions(method="gauss-seidel", **_TIGHT)


def _json_path() -> Path:
    override = os.environ.get("SPARSE_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "sparse_newton.json"


def _campaign(circuit, technology, vectors, options, chunk_size=64):
    start = time.perf_counter()
    result = run_reference_campaign(
        circuit,
        technology,
        vectors=vectors,
        solver_options=options,
        chunk_size=chunk_size,
    )
    return result, time.perf_counter() - start


def _breakdowns(result):
    return [
        {name: entry.breakdown.as_dict() for name, entry in report.per_gate.items()}
        for report in result.reports
    ]


def _worst_error(result_a, result_b):
    """Max per-gate per-component relative difference over paired reports."""
    worst = 0.0
    for report_a, report_b in zip(result_a.reports, result_b.reports):
        for name, entry_b in report_b.per_gate.items():
            entry_a = report_a.per_gate[name]
            for component in ("subthreshold", "gate", "btbt"):
                expected = entry_b.breakdown.component(component)
                observed = entry_a.breakdown.component(component)
                worst = max(
                    worst, abs(observed - expected) / max(abs(expected), 1e-30)
                )
    return worst


def _run_point(technology, n_gates, label):
    circuit = iscas_like(n_gates)
    vectors = list(random_vectors(circuit, VECTORS, rng=SEED))

    flattened = flatten_batch(circuit, technology, vectors)
    n_free = sum(
        1
        for node in flattened.netlist.nodes.values()
        if node.kind is NodeKind.FREE
    )

    sparse, sparse_s = _campaign(circuit, technology, vectors, SPARSE)
    dense, dense_s = _campaign(circuit, technology, vectors, DENSE)
    oracle_vectors = vectors[: max(1, ORACLE_VECTORS)]
    oracle, oracle_s = _campaign(circuit, technology, oracle_vectors, GAUSS_SEIDEL)

    for result in (sparse, dense, oracle):
        assert all(r.metadata["solver_converged"] for r in result.reports)
    assert all(r.metadata["solver_method"] == "newton-sparse" for r in sparse.reports)
    fallbacks = sum(1 for r in sparse.reports if r.metadata["solver_fallback"])
    assert fallbacks == 0, f"{label}: {fallbacks} Gauss-Seidel fallbacks"

    # Bitwise batch-composition invariance: per-column factorization means
    # re-chunking the sparse campaign reproduces every component exactly.
    rechunked, _ = _campaign(circuit, technology, vectors, SPARSE, chunk_size=1)
    chunk_invariant = _breakdowns(sparse) == _breakdowns(rechunked)
    assert chunk_invariant

    iterations = [int(r.metadata["newton_iterations"]) for r in sparse.reports]
    default_limit = SolverOptions().newton_dense_memory_limit
    per_column = dense_jacobian_bytes(1, n_free)
    return {
        "circuit": circuit.name,
        "gates": circuit.gate_count,
        "transistors": int(sparse.reports[0].metadata["transistors"]),
        "free_nodes": n_free,
        "vectors": len(vectors),
        "oracle_vectors": len(oracle_vectors),
        "sparse_seconds": sparse_s,
        "dense_seconds": dense_s,
        "gauss_seidel_seconds": oracle_s,
        "speedup_vs_dense": dense_s / sparse_s if sparse_s > 0 else float("nan"),
        "max_relative_error_vs_dense": _worst_error(sparse, dense),
        "max_relative_error_vs_oracle": _worst_error(sparse, oracle),
        "chunk_invariant": chunk_invariant,
        "auto_resolves_sparse": (
            resolve_newton_method(
                SolverOptions(method="auto"), n_free, len(vectors)
            )
            == "newton-sparse"
        ),
        "dense_gb_per_column": per_column / 1e9,
        # Smallest batch whose dense Jacobian stack trips the pre-flight
        # guard at the default memory limit (the dense-infeasible frontier).
        "dense_infeasible_batch": int(default_limit // per_column) + 1,
        "sparse_solver_stats": {
            "method": "newton-sparse",
            "iterations_mean": sum(iterations) / len(iterations),
            "iterations_max": max(iterations),
            "fallbacks": fallbacks,
        },
    }


def _run_points(technology):
    return (
        _run_point(technology, MEDIUM_GATES, "medium"),
        _run_point(technology, LARGE_GATES, "large"),
    )


def test_sparse_newton_scaling(benchmark, d25s):
    medium, large = run_once(benchmark, _run_points, d25s)

    record = {
        "seed": SEED,
        "solver_options": {
            "voltage_tol": SPARSE.voltage_tol,
            "xtol": SPARSE.xtol,
            "max_sweeps": SPARSE.max_sweeps,
            "newton_max_iterations": SPARSE.newton_max_iterations,
            "newton_sparse_threshold": SolverOptions().newton_sparse_threshold,
            "newton_dense_memory_limit": SolverOptions().newton_dense_memory_limit,
        },
        "min_speedup": MIN_SPEEDUP,
        "min_medium_speedup": MIN_MEDIUM_SPEEDUP,
        "max_relative_error_bar": MAX_RELATIVE_ERROR,
        "dense_parity_bar": DENSE_PARITY_BOUND,
        "medium": medium,
        "large": large,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for label, point in (("medium", medium), ("large", large)):
        print(
            f"{label} ({point['circuit']}: {point['gates']} gates, "
            f"{point['free_nodes']} free nodes, {point['vectors']} vectors): "
            f"sparse {point['sparse_seconds']:.2f}s vs dense "
            f"{point['dense_seconds']:.2f}s -> "
            f"{point['speedup_vs_dense']:.1f}x, max rel err "
            f"{point['max_relative_error_vs_oracle']:.3e} vs oracle, "
            f"{point['max_relative_error_vs_dense']:.3e} vs dense, "
            f"{point['sparse_solver_stats']['iterations_mean']:.1f} mean "
            f"iterations, dense infeasible at batch >= "
            f"{point['dense_infeasible_batch']} ({path})"
        )

    for point in (medium, large):
        assert point["max_relative_error_vs_oracle"] <= MAX_RELATIVE_ERROR
        assert point["max_relative_error_vs_dense"] <= DENSE_PARITY_BOUND
        # Wherever the free-node count crosses the default threshold, the
        # "auto" policy must pick the sparse backend.
        if point["free_nodes"] >= SolverOptions().newton_sparse_threshold:
            assert point["auto_resolves_sparse"]
    assert medium["speedup_vs_dense"] >= MIN_MEDIUM_SPEEDUP
    assert large["speedup_vs_dense"] >= MIN_SPEEDUP
