"""Batched-reference benchmark: transistor-level Fig. 12a solves vs scalar.

The tentpole claim of the batched reference path is that the "SPICE" column
of Fig. 12(a) — full transistor-level solves of whole vector sets — rides
the batched SPICE layer: the circuit flattens once, every vector of a chunk
solves as one :class:`~repro.spice.batched.BatchedDcSolver` batch, and the
per-gate leakage of the whole chunk aggregates in one array pass, while
reproducing the scalar :class:`~repro.spice.solver.DcSolver` oracle's
numbers (:func:`repro.oracle.per_vector_campaign` over a
:class:`~repro.core.reference.ReferenceSimulator`) to well below 1e-9
relative error per leakage component.

Both paths run with tightened solver tolerances so root-finder
termination noise sits far below the agreement bar; the tolerances are
recorded in the JSON alongside the timings.

The benchmark runs the Fig. 12 smoke configuration (the synthetic suite at
the fig12 benchmark's scale); EXPERIMENTS.md records how to run full-size
campaigns.  Environment knobs: ``REFERENCE_BENCH_CIRCUITS`` (comma-separated
suite names, default ``s838``), ``REFERENCE_BENCH_SCALE`` (default 0.12, the
fig12 smoke scale), ``REFERENCE_BENCH_VECTORS`` (default 32),
``REFERENCE_BENCH_MIN_SPEEDUP`` (default 5.0; smoke runs on noisy shared
runners may lower it) and ``REFERENCE_BENCH_JSON`` (output path, default
``benchmarks/batched_reference.json``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.circuit.generators import alu, array_multiplier, iscas_like
from repro.circuit.logic import random_vectors
from repro.core.reference import ReferenceSimulator, run_reference_campaign
from repro.core.report import REPORT_COMPONENTS
from repro.oracle import per_vector_campaign
from repro.spice.solver import SolverOptions

SEED = 1205
SCALE = float(os.environ.get("REFERENCE_BENCH_SCALE", "0.12"))
VECTORS = int(os.environ.get("REFERENCE_BENCH_VECTORS", "64"))

#: Acceptance thresholds: the batched reference must run at least 5x faster
#: than the scalar oracle on the Fig. 12 smoke configuration while agreeing
#: to 1e-9 relative error on every leakage component of every gate of every
#: vector.  The agreement bar is deterministic; the speedup bar is
#: wall-clock and can be lowered for smoke runs on shared runners via
#: ``REFERENCE_BENCH_MIN_SPEEDUP`` (the full benchmark keeps the 5x default).
MIN_SPEEDUP = float(os.environ.get("REFERENCE_BENCH_MIN_SPEEDUP", "5.0"))
MAX_RELATIVE_ERROR = 1.0e-9

#: Tight solver settings shared by both paths (see module docstring).
TIGHT_SOLVER = SolverOptions(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)


def _circuits():
    names = os.environ.get("REFERENCE_BENCH_CIRCUITS", "s838").split(",")
    circuits = {}
    for name in (n.strip() for n in names):
        if name == "alu88":
            circuits[name] = alu(8)
        elif name == "mult88":
            circuits[name] = array_multiplier(8)
        else:
            circuits[name] = iscas_like(name, scale=SCALE)
    return circuits


def _json_path() -> Path:
    override = os.environ.get("REFERENCE_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "batched_reference.json"


def _max_relative_error(batched_reports, scalar_reports) -> float:
    """Max relative error over vectors, gates and leakage components."""
    worst = 0.0
    for report_b, report_s in zip(batched_reports, scalar_reports):
        for component in REPORT_COMPONENTS:
            observed = report_b.component(component)
            expected = report_s.component(component)
            worst = max(
                worst, abs(observed - expected) / max(abs(expected), 1e-30)
            )
        for gate_name, entry_s in report_s.per_gate.items():
            entry_b = report_b.per_gate[gate_name]
            for component in ("subthreshold", "gate", "btbt"):
                expected = entry_s.breakdown.component(component)
                observed = entry_b.breakdown.component(component)
                worst = max(
                    worst, abs(observed - expected) / max(abs(expected), 1e-30)
                )
    return worst


def _run_circuit(technology, circuit):
    vectors = list(random_vectors(circuit, VECTORS, rng=SEED))

    start = time.perf_counter()
    batched = run_reference_campaign(
        circuit, technology, vectors=vectors, solver_options=TIGHT_SOLVER
    )
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = per_vector_campaign(
        ReferenceSimulator(technology, solver_options=TIGHT_SOLVER), circuit, vectors
    )
    scalar_seconds = time.perf_counter() - start

    assert all(r.metadata["solver_converged"] for r in batched.reports)
    assert all(r.metadata["solver_converged"] for r in scalar.reports)
    return {
        "gates": circuit.gate_count,
        "transistors": int(batched.reports[0].metadata["transistors"]),
        "vectors": len(vectors),
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds
        if batched_seconds > 0
        else float("nan"),
        "max_relative_error": _max_relative_error(
            batched.reports, scalar.reports
        ),
        # Convergence cost of each path: iterations/sweeps per solve.
        "batched_solver": _solver_stats(batched.reports),
        "scalar_solver": _solver_stats(scalar.reports),
    }


def _solver_stats(reports) -> dict:
    """Aggregate per-solve iteration counts from campaign report metadata."""
    sweeps = [int(r.metadata["solver_sweeps"]) for r in reports]
    stats = {
        "method": reports[0].metadata["solver_method"],
        "iterations_mean": sum(sweeps) / len(sweeps),
        "iterations_max": max(sweeps),
    }
    if "solver_fallback" in reports[0].metadata:
        stats["fallbacks"] = sum(
            1 for r in reports if r.metadata["solver_fallback"]
        )
    return stats


def _run_workload(technology, circuits):
    return {name: _run_circuit(technology, circuit) for name, circuit in circuits.items()}


def test_batched_reference_speedup(benchmark, d25s):
    circuits = _circuits()
    per_circuit = run_once(benchmark, _run_workload, d25s, circuits)

    record = {
        "seed": SEED,
        "scale": SCALE,
        "solver_options": {
            "voltage_tol": TIGHT_SOLVER.voltage_tol,
            "xtol": TIGHT_SOLVER.xtol,
            "max_sweeps": TIGHT_SOLVER.max_sweeps,
            "method": TIGHT_SOLVER.method,
        },
        "min_speedup": MIN_SPEEDUP,
        "max_relative_error_bar": MAX_RELATIVE_ERROR,
        "circuits": per_circuit,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for name, entry in per_circuit.items():
        print(
            f"{name} ({entry['gates']} gates, {entry['vectors']} vectors): "
            f"scalar {entry['scalar_seconds']:.2f}s vs batched "
            f"{entry['batched_seconds']:.2f}s -> {entry['speedup']:.1f}x, "
            f"max rel err {entry['max_relative_error']:.3e} ({path})"
        )

    for entry in per_circuit.values():
        assert entry["max_relative_error"] <= MAX_RELATIVE_ERROR
        assert entry["speedup"] >= MIN_SPEEDUP
