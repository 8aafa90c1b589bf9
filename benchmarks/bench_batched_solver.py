"""Batched-DC-solver benchmark: characterization and Monte-Carlo vs scalar.

The tentpole claim of the batched SPICE layer is that the two DC-solve-bound
workloads of this library — characterizing a full gate library (pins x
vectors x injection grids of structurally identical cell solves) and the
Fig. 10/11 Monte-Carlo study (hundreds of identical-topology inverter-pair
solves) — collapse into a handful of vectorized batched solves while
reproducing the scalar :class:`~repro.spice.solver.DcSolver` oracles'
leakage numbers (:func:`repro.oracle.characterize_per_cell` and
:func:`repro.oracle.monte_carlo_per_sample`) to well below 1e-9 relative
error.

Both paths run with tightened solver tolerances so that root-finder
termination noise (which would otherwise dominate at the default 5 uV /
1e-8 V settings) sits far below the agreement bar; the tolerances are
recorded in the JSON alongside the timings.

The numbers are recorded as JSON (``benchmarks/batched_solver.json`` by
default, override with ``BATCHED_BENCH_JSON``) in the same spirit as
``bench_engine_batched.py``, so CI can archive the speedup trajectory.
Environment knobs for smoke runs: ``BATCHED_BENCH_GATES`` (comma-separated
gate-type names; default: the full library) and ``BATCHED_BENCH_MC_SAMPLES``
(default 200).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.device.presets import make_technology
from repro.gates.characterize import (
    CharacterizationOptions,
    GateCharacterizer,
    GateLibrary,
)
from repro.gates.library import GateType, gate_spec
from repro.oracle import characterize_per_cell, monte_carlo_per_sample
from repro.spice.solver import SolverOptions
from repro.variation.montecarlo import (
    MonteCarloResult,
    build_sample_task,
    draw_parameters,
    run_loaded_inverter_monte_carlo,
)

SEED = 2005
MC_SAMPLES = int(os.environ.get("BATCHED_BENCH_MC_SAMPLES", "200"))

#: Acceptance thresholds: each workload must run at least 5x faster batched
#: while agreeing with the scalar oracle to 1e-9 relative leakage error.
#: The agreement bar is deterministic; the speedup bar is wall-clock and can
#: be lowered for smoke runs on noisy shared runners via
#: ``BATCHED_BENCH_MIN_SPEEDUP`` (the full benchmark keeps the 5x default).
MIN_SPEEDUP = float(os.environ.get("BATCHED_BENCH_MIN_SPEEDUP", "5.0"))
MAX_RELATIVE_ERROR = 1.0e-9

#: Tight solver settings shared by both paths (see module docstring).
TIGHT_SOLVER = SolverOptions(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)


def _gate_types() -> list[GateType]:
    names = os.environ.get("BATCHED_BENCH_GATES")
    if not names:
        return list(GateType)
    return [GateType.from_name(name.strip()) for name in names.split(",")]


def _json_path() -> Path:
    override = os.environ.get("BATCHED_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "batched_solver.json"


def _relative(observed: float, expected: float) -> float:
    return abs(observed - expected) / max(abs(expected), 1e-30)


def _characterize_per_cell(technology, gate_types, options):
    """Characterize every vector of ``gate_types`` through the per-cell oracle.

    Returns the oracle's characterizer (its ``solve_stats`` count every
    cell relaxation) and the records keyed by (gate type name, vector).
    """
    characterizer = GateCharacterizer(technology, options=options)
    records = {}
    for gate_type in gate_types:
        spec = gate_spec(gate_type)
        for vector in spec.all_vectors():
            records[(spec.name, vector)] = characterize_per_cell(
                characterizer, gate_type, vector
            )
    return characterizer, records


def _characterization_error(batched: GateLibrary, scalar: dict) -> float:
    """Max relative leakage error across every record, curve and component."""
    worst = 0.0
    for record in batched.cached_records():
        oracle = scalar[(record.gate_type_name, tuple(record.vector))]
        for name in ("subthreshold", "gate", "btbt"):
            worst = max(
                worst,
                _relative(
                    record.nominal.component(name), oracle.nominal.component(name)
                ),
            )
        for pin, curve in record.responses.items():
            oracle_curve = oracle.responses[pin]
            for name in ("subthreshold", "gate", "btbt"):
                expected = getattr(oracle_curve, name)
                errors = np.abs(getattr(curve, name) - expected) / np.maximum(
                    np.abs(expected), 1e-30
                )
                worst = max(worst, float(errors.max()))
    return worst


def _run_characterization(technology, gate_types):
    batched_library = GateLibrary(
        technology, options=CharacterizationOptions(solver=TIGHT_SOLVER)
    )
    start = time.perf_counter()
    records = batched_library.precharacterize(gate_types)
    batched_seconds = time.perf_counter() - start

    # The per-cell oracle always relaxes; its stats record that method.
    relaxation = replace(TIGHT_SOLVER, method="gauss-seidel")
    start = time.perf_counter()
    scalar = _characterize_per_cell(
        technology, gate_types, CharacterizationOptions(solver=relaxation)
    )
    scalar_seconds = time.perf_counter() - start
    return batched_library, scalar, records, batched_seconds, scalar_seconds


def _run_monte_carlo(technology):
    start = time.perf_counter()
    batched = run_loaded_inverter_monte_carlo(
        technology, samples=MC_SAMPLES, rng=SEED, solver_options=TIGHT_SOLVER
    )
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    task = build_sample_task(technology, solver_options=TIGHT_SOLVER)
    scalar = MonteCarloResult(
        task.spec,
        task.input_value,
        task.input_loads,
        task.output_loads,
        monte_carlo_per_sample(task, draw_parameters(task, "mc", MC_SAMPLES, SEED)),
    )
    scalar_seconds = time.perf_counter() - start

    worst = 0.0
    for component in ("subthreshold", "gate", "btbt"):
        for loaded in (True, False):
            observed = batched.values(component, loaded=loaded)
            expected = scalar.values(component, loaded=loaded)
            worst = max(
                worst, float(np.max(np.abs(observed - expected) / np.abs(expected)))
            )
    return batched_seconds, scalar_seconds, worst


def _run_workloads(technology, gate_types):
    characterization = _run_characterization(technology, gate_types)
    monte_carlo = _run_monte_carlo(technology)
    return characterization, monte_carlo


def test_batched_solver_speedup(benchmark, d25s):
    gate_types = _gate_types()
    (
        (batched_library, (scalar, scalar_records), records, char_batched_s, char_scalar_s),
        (mc_batched_s, mc_scalar_s, mc_error),
    ) = run_once(benchmark, _run_workloads, d25s, gate_types)

    char_error = _characterization_error(batched_library, scalar_records)
    char_speedup = char_scalar_s / char_batched_s if char_batched_s > 0 else float("nan")
    mc_speedup = mc_scalar_s / mc_batched_s if mc_batched_s > 0 else float("nan")

    record = {
        "seed": SEED,
        "solver_options": {
            "voltage_tol": TIGHT_SOLVER.voltage_tol,
            "xtol": TIGHT_SOLVER.xtol,
            "max_sweeps": TIGHT_SOLVER.max_sweeps,
            "method": TIGHT_SOLVER.method,
        },
        "characterization": {
            "gate_types": [gate_type.value for gate_type in gate_types],
            "records": records,
            "scalar_seconds": char_scalar_s,
            "batched_seconds": char_batched_s,
            "speedup": char_speedup,
            "max_relative_error": char_error,
            # Convergence cost, not just wall clock: per-solve iteration
            # counts of each path (sweeps or Newton iterations).
            "batched_solver_stats": batched_library.characterizer.solve_stats,
            "scalar_solver_stats": scalar.solve_stats,
        },
        "monte_carlo": {
            "samples": MC_SAMPLES,
            "scalar_seconds": mc_scalar_s,
            "batched_seconds": mc_batched_s,
            "speedup": mc_speedup,
            "max_relative_error": mc_error,
            "solver_method": TIGHT_SOLVER.method,
        },
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"characterization ({records} records): scalar {char_scalar_s:.2f}s vs "
        f"batched {char_batched_s:.2f}s -> {char_speedup:.1f}x, "
        f"max rel err {char_error:.3e}"
    )
    print(
        f"monte carlo ({MC_SAMPLES} samples): scalar {mc_scalar_s:.2f}s vs "
        f"batched {mc_batched_s:.2f}s -> {mc_speedup:.1f}x, "
        f"max rel err {mc_error:.3e} ({path})"
    )

    assert char_error <= MAX_RELATIVE_ERROR
    assert mc_error <= MAX_RELATIVE_ERROR
    assert char_speedup >= MIN_SPEEDUP
    assert mc_speedup >= MIN_SPEEDUP
