"""Sparse-Newton ordering and the dense/sparse backend crossover.

Two constants of the transistor-level reference path are read off this
benchmark:

* **Fill: the SuperLU column ordering** (``repro.spice.sparse._PERMC_SPEC``).
  A flattened circuit's KCL Jacobian is structurally symmetric with a full
  diagonal: free node *i* couples to free node *j* exactly where one
  transistor touches both, and every free node carries its own
  conductance.  The fill section captures the first Newton Jacobian of
  alu88, s838, synth600 and synth2400 (one vector each, at the seed
  voltages) through the ``repro.spice.sparse.splu`` entry point, checks
  that structure, and records the L+U nonzeros and the best-of-
  ``FACTOR_REPEATS`` factorization time of each matrix under COLAMD (the
  unsymmetric ordering) and under the pinned ordering.  The pinned
  ordering must never fill more than COLAMD.
* **Crossover: the sparse threshold**
  (``SolverOptions.newton_sparse_threshold``).  ``iscas_like(n, rng=3)``
  for every ``n`` in ``SWEEP_GATES`` is flattened at each column count in
  ``SWEEP_COLUMNS`` and solved by the dense and by the sparse backend at
  the default tolerances (best of ``SWEEP_REPEATS`` solver constructions
  plus solves, the two backends alternating).  Each column count records
  the smallest free-node count from which sparse wins at that and every
  larger swept size.  Dense and sparse voltages must agree within
  ``DENSE_PARITY_BOUND`` volts at every point.

Run with BLAS pinned to one thread, as the end-to-end benchmark runs::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_sparse_crossover.py -q -s

The numbers land in ``benchmarks/sparse_crossover.json`` (override with
``SPARSE_CROSSOVER_JSON``).
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import splu

from benchmarks.conftest import run_once
from repro.circuit.flatten import flatten_batch
from repro.circuit.generators import alu, iscas_like
from repro.circuit.logic import random_vectors
from repro.core.reference import run_reference_campaign
from repro.spice import sparse
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import NodeKind
from repro.spice.solver import SolverOptions

SEED = 3105
CIRCUIT_RNG = 3
SWEEP_GATES = (8, 16, 24, 32, 48, 56, 64, 80, 96, 128, 160, 192)
SWEEP_COLUMNS = (1, 16, 64)
SWEEP_REPEATS = 5
FACTOR_REPEATS = 3
DENSE_PARITY_BOUND = 1.0e-12

#: Each backend is forced through the free-node threshold: 1 sends every
#: system to the sparse backend, a threshold above every swept size keeps
#: the dense one.
DENSE = SolverOptions(newton_sparse_threshold=10**9)
SPARSE = SolverOptions(newton_sparse_threshold=1)


def _json_path() -> Path:
    override = os.environ.get("SPARSE_CROSSOVER_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "sparse_crossover.json"


def _factor_seconds(matrix, permc_spec):
    best = math.inf
    for _ in range(FACTOR_REPEATS):
        start = time.perf_counter()
        factor = splu(matrix, permc_spec=permc_spec)
        best = min(best, time.perf_counter() - start)
    return factor.L.nnz + factor.U.nnz, best


def _fill_point(technology, circuit, monkeypatch):
    captured = []

    def capture(matrix, **kwargs):
        if not captured:
            captured.append(matrix.copy())
        return splu(matrix, **kwargs)

    monkeypatch.setattr(sparse, "splu", capture)
    run_reference_campaign(
        circuit,
        technology,
        vectors=list(random_vectors(circuit, 1, rng=SEED)),
        solver_options=SPARSE,
    )
    monkeypatch.undo()

    (matrix,) = captured
    pattern = matrix.copy()
    pattern.data[:] = 1.0
    colamd_nnz, colamd_s = _factor_seconds(matrix, "COLAMD")
    pinned_nnz, pinned_s = _factor_seconds(matrix, sparse._PERMC_SPEC)
    return {
        "free_nodes": matrix.shape[0],
        "jacobian_nnz": int(matrix.nnz),
        "structurally_symmetric": (pattern != pattern.T).nnz == 0,
        "full_diagonal": bool(np.all(matrix.diagonal() != 0.0)),
        "colamd_lu_nnz": int(colamd_nnz),
        "pinned_lu_nnz": int(pinned_nnz),
        "colamd_factor_ms": colamd_s * 1e3,
        "pinned_factor_ms": pinned_s * 1e3,
    }


def _sweep_point(technology, n_gates, columns):
    circuit = iscas_like(n_gates, rng=CIRCUIT_RNG)
    flattened = flatten_batch(
        circuit, technology, list(random_vectors(circuit, columns, rng=SEED))
    )
    initial = flattened.initial_voltages()
    # Dense and sparse solves alternate, so a drift in machine speed
    # reaches both backends' best times alike.  Results are keyed by the
    # backend each solve reports it ran.
    best = {"newton": math.inf, "newton-sparse": math.inf}
    solved = {}
    for _ in range(SWEEP_REPEATS):
        for options in (DENSE, SPARSE):
            start = time.perf_counter()
            solver = BatchedDcSolver(
                flattened.netlist,
                technology.temperature_k,
                options,
                fixed=flattened.fixed_voltages,
            )
            op = solver.solve(initial)
            solved[op.method] = op
            best[op.method] = min(best[op.method], time.perf_counter() - start)
    dense, sparse_op = solved["newton"], solved["newton-sparse"]
    dense_s, sparse_s = best["newton"], best["newton-sparse"]
    assert dense.all_converged and sparse_op.all_converged
    return {
        "gates": n_gates,
        "columns": columns,
        "free_nodes": sum(
            1
            for node in flattened.netlist.nodes.values()
            if node.kind is NodeKind.FREE
        ),
        "dense_ms": dense_s * 1e3,
        "sparse_ms": sparse_s * 1e3,
        "dense_over_sparse": dense_s / sparse_s,
        "max_voltage_gap_vs_dense": float(
            np.max(np.abs(dense.voltages - sparse_op.voltages))
        ),
    }


def _crossover(points):
    """Smallest free-node count from which sparse wins at every larger size."""
    crossing = None
    for point in sorted(points, key=lambda p: p["free_nodes"], reverse=True):
        if point["dense_over_sparse"] <= 1.0:
            break
        crossing = point["free_nodes"]
    return crossing


def _run(technology, monkeypatch):
    fill = {
        circuit.name: _fill_point(technology, circuit, monkeypatch)
        for circuit in (alu(8), iscas_like("s838"), iscas_like(600), iscas_like(2400))
    }
    sweep = {}
    for columns in SWEEP_COLUMNS:
        points = [_sweep_point(technology, n, columns) for n in SWEEP_GATES]
        sweep[str(columns)] = {
            "crossover_free_nodes": _crossover(points),
            "points": points,
        }
    return fill, sweep


def test_sparse_ordering_and_crossover(benchmark, d25s, monkeypatch):
    fill, sweep = run_once(benchmark, _run, d25s, monkeypatch)
    record = {
        "seed": SEED,
        "circuit_rng": CIRCUIT_RNG,
        "permc_spec": sparse._PERMC_SPEC,
        "newton_sparse_threshold": SolverOptions().newton_sparse_threshold,
        "dense_parity_bar": DENSE_PARITY_BOUND,
        "fill": fill,
        "sweep": sweep,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for name, point in fill.items():
        print(
            f"fill {name} ({point['free_nodes']} free nodes, "
            f"{point['jacobian_nnz']} nonzeros): L+U "
            f"{point['colamd_lu_nnz']} COLAMD -> {point['pinned_lu_nnz']} "
            f"{sparse._PERMC_SPEC}, {point['colamd_factor_ms']:.2f} -> "
            f"{point['pinned_factor_ms']:.2f} ms"
        )
    for columns, entry in sweep.items():
        row = ", ".join(
            f"{p['free_nodes']}:{p['dense_over_sparse']:.2f}" for p in entry["points"]
        )
        print(
            f"{columns} columns (free nodes: dense/sparse) {row}; sparse wins "
            f"from {entry['crossover_free_nodes']} ({path})"
        )

    for name, point in fill.items():
        assert point["structurally_symmetric"] and point["full_diagonal"], name
        assert point["pinned_lu_nnz"] <= point["colamd_lu_nnz"], name
    for entry in sweep.values():
        for point in entry["points"]:
            assert point["max_voltage_gap_vs_dense"] <= DENSE_PARITY_BOUND
