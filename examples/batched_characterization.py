#!/usr/bin/env python3
"""End-to-end batched flow: characterize -> cache -> campaign -> Monte Carlo.

The batched DC subsystem vectorizes the layer *below* the campaign engine:
every characterization cell of a gate type — and every Monte-Carlo sample of
the Fig. 10 study — solves as one :class:`~repro.spice.batched.BatchedDcSolver`
call instead of one scalar Gauss–Seidel solve per cell.  This example walks
the whole pipeline:

1. characterize the full gate library with the batched solver;
2. persist it with the fingerprinted cache (a reload under different
   settings is refused instead of silently reusing stale records);
3. run a batched vector campaign on an ISCAS-like circuit on top of the
   batched-characterized library;
4. run the Fig. 10 Monte-Carlo study with all samples solved as one batch.

Run with ``python examples/batched_characterization.py``.
"""

import tempfile
import time
from pathlib import Path

from repro import make_technology
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core import LoadingAwareEstimator, run_vector_campaign
from repro.gates.cache import load_library, save_library
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.gates.library import GateType
from repro.utils.tables import format_table
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo


def main() -> None:
    technology = make_technology("d25-s")

    # 1. Full-library characterization through the batched solver: every
    #    gate type's (vector x pin x injection) sweep is two batched solves.
    library = GateLibrary(technology, options=CharacterizationOptions())
    start = time.perf_counter()
    records = library.precharacterize(list(GateType))
    characterize_s = time.perf_counter() - start

    # 2. Persist and reload; the cache carries a fingerprint of the full
    #    technology + characterization settings, so a mismatched library
    #    refuses the records instead of silently accepting them.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "library.json"
        save_library(library, path)
        fresh = GateLibrary(technology, options=CharacterizationOptions())
        reloaded = load_library(fresh, path)
        mismatched = GateLibrary(
            technology,
            options=CharacterizationOptions(injection_grid=(-1e-6, 0.0, 1e-6)),
        )
        try:
            load_library(mismatched, path)
            refusal = "NOT refused (bug!)"
        except ValueError as error:
            refusal = f"refused ({error})"

    # 3. A batched campaign on top of the batched-characterized library.
    circuit = iscas_like("s838", scale=0.25)
    estimator = LoadingAwareEstimator(fresh)
    vectors = list(random_vectors(circuit, 100, rng=2005))
    start = time.perf_counter()
    campaign = run_vector_campaign(estimator, circuit, vectors=vectors)
    campaign_s = time.perf_counter() - start

    # 4. The Fig. 10 Monte-Carlo study, all samples as one batch.
    start = time.perf_counter()
    monte_carlo = run_loaded_inverter_monte_carlo(technology, samples=200, rng=7)
    monte_carlo_s = time.perf_counter() - start

    rows = [
        ["characterize library (batched)", characterize_s, f"{records} records"],
        ["100-vector campaign", campaign_s, f"{circuit.gate_count} gates"],
        ["200-sample Monte Carlo (batched)", monte_carlo_s, "Fig. 10 study"],
    ]
    print(
        format_table(
            ["stage", "wall [s]", "size"],
            rows,
            title="End-to-end batched pipeline",
        )
    )
    print(f"\ncache round-trip: {reloaded} records; mismatched settings {refusal}")
    print(
        f"campaign mean leakage: {campaign.mean_total() * 1e9:.3f} nA; "
        f"MC loaded-mean total: "
        f"{monte_carlo.values('total', loaded=True).mean() * 1e9:.3f} nA"
    )


if __name__ == "__main__":
    main()
