"""Batched-engine benchmark: whole-campaign evaluation vs. the scalar loop.

The tentpole claim of the campaign engine is that a full random-vector
campaign (the paper's Fig. 12 workload: 100 vectors on an ISCAS89-sized
circuit) collapses from one Python estimator walk per vector into a few
NumPy array passes, while reproducing the scalar
:class:`~repro.core.estimator.LoadingAwareEstimator` circuit totals to
rounding error.

This benchmark times both paths on the identical vector set (the scalar
loop is the oracle :func:`repro.oracle.per_vector_campaign`), checks the
per-component agreement, and records the numbers as JSON
(``benchmarks/engine_batched.json`` by default, override with
``ENGINE_BENCH_JSON``) so CI can archive the speedup trend.  Environment
knobs for smoke runs: ``ENGINE_BENCH_SCALE`` (synthetic-circuit scale) and
``ENGINE_BENCH_VECTORS`` (campaign size).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core.estimator import LoadingAwareEstimator
from repro.core.report import REPORT_COMPONENTS
from repro.core.vectors import run_vector_campaign
from repro.engine import compile_circuit
from repro.oracle import per_vector_campaign

CIRCUIT = "s838"
SCALE = float(os.environ.get("ENGINE_BENCH_SCALE", "1.0"))
VECTORS = int(os.environ.get("ENGINE_BENCH_VECTORS", "100"))
SEED = 2005

#: Acceptance thresholds: the engine must reproduce the scalar totals to
#: 1e-12 relative error while running at least 10x faster end-to-end.
MAX_RELATIVE_ERROR = 1e-12
MIN_SPEEDUP = 10.0


def _json_path() -> Path:
    override = os.environ.get("ENGINE_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "engine_batched.json"


def _run_campaigns(estimator, circuit, vectors):
    """Time one batched campaign (warm compile cache) and the scalar loop.

    The compile is a one-time cost amortized across campaigns by the compile
    cache — the compile-once/run-many usage the engine targets — so it is
    timed separately by the test and excluded here.
    """
    start = time.perf_counter()
    batched = run_vector_campaign(estimator, circuit, vectors=vectors)
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = per_vector_campaign(estimator, circuit, vectors)
    scalar_seconds = time.perf_counter() - start
    return batched, batched_seconds, scalar, scalar_seconds


def test_engine_batched_speedup(benchmark, d25s, library_d25s):
    circuit = iscas_like(CIRCUIT, scale=SCALE)
    estimator = LoadingAwareEstimator(library_d25s)
    vectors = list(random_vectors(circuit, VECTORS, rng=SEED))

    # The recorded compile_seconds is the first compile of this circuit:
    # flattening plus characterizing whatever (gate type, vector) pairs the
    # library has not yet solved — the one-time cost the compile cache
    # amortizes across campaigns.
    start = time.perf_counter()
    compile_circuit(circuit, library_d25s)
    compile_seconds = time.perf_counter() - start

    batched, batched_seconds, scalar, scalar_seconds = run_once(
        benchmark, _run_campaigns, estimator, circuit, vectors
    )

    errors = {}
    for component in REPORT_COMPONENTS:
        expected = scalar.totals(component)
        observed = batched.totals(component)
        errors[component] = float(
            np.max(np.abs(observed - expected) / np.abs(expected))
        )
    max_error = max(errors.values())
    speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else float("nan")

    record = {
        "circuit": CIRCUIT,
        "scale": SCALE,
        "gates": circuit.gate_count,
        "vectors": len(vectors),
        "seed": SEED,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "compile_seconds": compile_seconds,
        "engine_runtime_s": batched.runtime_s(),
        "speedup": speedup,
        "max_relative_error": max_error,
        "relative_error_per_component": errors,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"batched {batched_seconds:.4f}s vs scalar {scalar_seconds:.4f}s "
        f"-> {speedup:.1f}x, max rel err {max_error:.3e} ({path})"
    )

    assert max_error <= MAX_RELATIVE_ERROR
    assert speedup >= MIN_SPEEDUP
