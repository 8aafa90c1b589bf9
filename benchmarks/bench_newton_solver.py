"""Newton-solver benchmark: damped Newton vs batched Gauss-Seidel vs scalar.

The tentpole claim of the Newton DC solver (:mod:`repro.spice.newton`) is
that it removes the last scalar-shaped cost of the reproduction: where the
batched Gauss-Seidel solver still pays tens-to-hundreds of relaxation
sweeps per solve (each a bracketed 1-D root find per free node), Newton
converges the full free-node system in ~5-15 damped iterations using
analytic device Jacobians and one batched ``np.linalg.solve`` per
iteration.  This benchmark pins that claim on the two DC-solve-bound
workloads:

* full-library characterization (every gate type, vector, pin and
  injection-grid point), and
* the s838 batched transistor-level reference campaign of Fig. 12(a);

each measured three ways — Newton-batched, Gauss-Seidel-batched (the
method oracle) and the scalar :class:`~repro.spice.solver.DcSolver` (the
accuracy oracle).  Alongside wall clock, the JSON records per-solve
iteration counts and fallback totals so the BENCH trajectory tracks
convergence *cost*.  Acceptance bars: Newton at least ``MIN_SPEEDUP``
faster than the batched Gauss-Seidel solver on both workloads, at most
1e-9 relative leakage error against the scalar oracle, every solve
converged (Gauss-Seidel fallback included), and reference results bitwise
independent of how the vector set is chunked into batches.

The numbers land in ``benchmarks/newton_solver.json`` (override with
``NEWTON_BENCH_JSON``).  Smoke knobs: ``NEWTON_BENCH_GATES``
(comma-separated gate types, default: the full library),
``NEWTON_BENCH_VECTORS`` (default 64), ``NEWTON_BENCH_CIRCUIT`` (default
``s838``), ``NEWTON_BENCH_SCALE`` (default 0.12, the fig12 smoke scale)
and ``NEWTON_BENCH_MIN_SPEEDUP`` (default 3.0).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.bench_batched_solver import _characterization_error, _characterize_per_cell
from benchmarks.conftest import run_once
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core.reference import ReferenceSimulator, run_reference_campaign
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.gates.library import GateType
from repro.oracle import per_vector_campaign
from repro.spice.solver import SolverOptions

SEED = 2605
VECTORS = int(os.environ.get("NEWTON_BENCH_VECTORS", "64"))
CIRCUIT = os.environ.get("NEWTON_BENCH_CIRCUIT", "s838")
SCALE = float(os.environ.get("NEWTON_BENCH_SCALE", "0.12"))

#: Acceptance thresholds (see module docstring).  The speedup bar is wall
#: clock and can be lowered for smoke runs on noisy shared runners; the
#: agreement bar is deterministic and never lowered.
MIN_SPEEDUP = float(os.environ.get("NEWTON_BENCH_MIN_SPEEDUP", "3.0"))
MAX_RELATIVE_ERROR = 1.0e-9

#: Tight tolerances shared by every engine, matching the other solver
#: benchmarks: root-finder termination noise sits far below the bar.
_TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)
NEWTON = SolverOptions(method="newton", **_TIGHT)
GAUSS_SEIDEL = SolverOptions(method="gauss-seidel", **_TIGHT)


def _gate_types() -> list[GateType]:
    names = os.environ.get("NEWTON_BENCH_GATES")
    if not names:
        return list(GateType)
    return [GateType.from_name(name.strip()) for name in names.split(",")]


def _json_path() -> Path:
    override = os.environ.get("NEWTON_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "newton_solver.json"


def _options(solver):
    # on_nonconverged="raise": a silently non-converged cell would corrupt
    # the agreement measurement, so the benchmark fails loudly instead.
    return CharacterizationOptions(solver=solver, on_nonconverged="raise")


def _characterize(technology, gate_types, solver):
    library = GateLibrary(technology, options=_options(solver))
    start = time.perf_counter()
    library.precharacterize(gate_types)
    elapsed = time.perf_counter() - start
    return library, elapsed


def _run_characterization(technology, gate_types):
    newton, newton_s = _characterize(technology, gate_types, NEWTON)
    relaxed, relaxed_s = _characterize(technology, gate_types, GAUSS_SEIDEL)
    start = time.perf_counter()
    _, scalar = _characterize_per_cell(technology, gate_types, _options(GAUSS_SEIDEL))
    scalar_s = time.perf_counter() - start
    stats = newton.characterizer.solve_stats
    return {
        "gate_types": [gate_type.value for gate_type in gate_types],
        "records": len(newton.cached_records()),
        "newton_seconds": newton_s,
        "gauss_seidel_seconds": relaxed_s,
        "scalar_seconds": scalar_s,
        "speedup_vs_gauss_seidel": relaxed_s / newton_s if newton_s > 0 else float("nan"),
        "speedup_vs_scalar": scalar_s / newton_s if newton_s > 0 else float("nan"),
        "max_relative_error_vs_scalar": _characterization_error(newton, scalar),
        "newton_solver_stats": stats,
        "gauss_seidel_solver_stats": relaxed.characterizer.solve_stats,
    }


def _campaign_breakdowns(result):
    return [
        {
            name: entry.breakdown.as_dict()
            for name, entry in report.per_gate.items()
        }
        for report in result.reports
    ]


def _run_reference(technology, circuit):
    vectors = list(random_vectors(circuit, VECTORS, rng=SEED))

    start = time.perf_counter()
    newton = run_reference_campaign(
        circuit, technology, vectors=vectors, solver_options=NEWTON
    )
    newton_s = time.perf_counter() - start

    start = time.perf_counter()
    relaxed = run_reference_campaign(
        circuit, technology, vectors=vectors, solver_options=GAUSS_SEIDEL
    )
    relaxed_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar = per_vector_campaign(
        ReferenceSimulator(technology, solver_options=GAUSS_SEIDEL), circuit, vectors
    )
    scalar_s = time.perf_counter() - start

    # Every vector of the suite circuit must converge, fallback included.
    assert all(r.metadata["solver_converged"] for r in newton.reports)
    assert all(r.metadata["solver_converged"] for r in scalar.reports)

    # Bitwise batch-composition invariance: re-chunking the Newton campaign
    # must reproduce every per-gate component exactly.
    rechunked = run_reference_campaign(
        circuit, technology, vectors=vectors, solver_options=NEWTON, chunk_size=17
    )
    chunk_invariant = _campaign_breakdowns(newton) == _campaign_breakdowns(
        rechunked
    )
    assert chunk_invariant

    worst = 0.0
    for report_n, report_s in zip(newton.reports, scalar.reports):
        for name, entry_s in report_s.per_gate.items():
            entry_n = report_n.per_gate[name]
            for component in ("subthreshold", "gate", "btbt"):
                expected = entry_s.breakdown.component(component)
                observed = entry_n.breakdown.component(component)
                worst = max(
                    worst, abs(observed - expected) / max(abs(expected), 1e-30)
                )

    iterations = [
        int(r.metadata["newton_iterations"]) for r in newton.reports
    ]
    fallbacks = sum(1 for r in newton.reports if r.metadata["solver_fallback"])
    relaxed_sweeps = [
        int(r.metadata["solver_sweeps"]) for r in relaxed.reports
    ]
    return {
        "circuit": circuit.name,
        "gates": circuit.gate_count,
        "transistors": int(newton.reports[0].metadata["transistors"]),
        "vectors": len(vectors),
        "newton_seconds": newton_s,
        "gauss_seidel_seconds": relaxed_s,
        "scalar_seconds": scalar_s,
        "speedup_vs_gauss_seidel": relaxed_s / newton_s if newton_s > 0 else float("nan"),
        "speedup_vs_scalar": scalar_s / newton_s if newton_s > 0 else float("nan"),
        "max_relative_error_vs_scalar": worst,
        "chunk_invariant": chunk_invariant,
        "newton_solver_stats": {
            "method": "newton",
            "iterations_mean": sum(iterations) / len(iterations),
            "iterations_max": max(iterations),
            "fallbacks": fallbacks,
        },
        "gauss_seidel_solver_stats": {
            "method": "gauss-seidel",
            "iterations_mean": sum(relaxed_sweeps) / len(relaxed_sweeps),
            "iterations_max": max(relaxed_sweeps),
        },
    }


def _run_workloads(technology, gate_types, circuit):
    return (
        _run_characterization(technology, gate_types),
        _run_reference(technology, circuit),
    )


def test_newton_solver_speedup(benchmark, d25s):
    gate_types = _gate_types()
    circuit = iscas_like(CIRCUIT, scale=SCALE)
    characterization, reference = run_once(
        benchmark, _run_workloads, d25s, gate_types, circuit
    )

    record = {
        "seed": SEED,
        "solver_options": {
            "voltage_tol": NEWTON.voltage_tol,
            "xtol": NEWTON.xtol,
            "max_sweeps": NEWTON.max_sweeps,
            "newton_max_iterations": NEWTON.newton_max_iterations,
            "newton_backtracks": NEWTON.newton_backtracks,
            "newton_step_limit": NEWTON.newton_step_limit,
        },
        "min_speedup": MIN_SPEEDUP,
        "max_relative_error_bar": MAX_RELATIVE_ERROR,
        "characterization": characterization,
        "reference": reference,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"characterization ({characterization['records']} records): "
        f"newton {characterization['newton_seconds']:.2f}s vs gauss-seidel "
        f"{characterization['gauss_seidel_seconds']:.2f}s -> "
        f"{characterization['speedup_vs_gauss_seidel']:.1f}x, max rel err "
        f"{characterization['max_relative_error_vs_scalar']:.3e} vs scalar"
    )
    print(
        f"reference ({reference['circuit']}, {reference['vectors']} vectors): "
        f"newton {reference['newton_seconds']:.2f}s vs gauss-seidel "
        f"{reference['gauss_seidel_seconds']:.2f}s -> "
        f"{reference['speedup_vs_gauss_seidel']:.1f}x, max rel err "
        f"{reference['max_relative_error_vs_scalar']:.3e} vs scalar, "
        f"{reference['newton_solver_stats']['iterations_mean']:.1f} mean "
        f"iterations, {reference['newton_solver_stats']['fallbacks']} "
        f"fallbacks ({path})"
    )

    for entry in (characterization, reference):
        assert entry["max_relative_error_vs_scalar"] <= MAX_RELATIVE_ERROR
        assert entry["speedup_vs_gauss_seidel"] >= MIN_SPEEDUP
