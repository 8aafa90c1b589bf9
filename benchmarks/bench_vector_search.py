"""Vector-search benchmark: optimizers vs. best-of-random at equal budget.

The claim of the :mod:`repro.optimize` subsystem is threefold, and this
benchmark asserts and records all three parts in
``benchmarks/vector_search.json`` (override with ``VECTOR_SEARCH_JSON``):

1. **oracle parity** — on circuits small enough for the exhaustive oracle
   (<= 12 primary inputs here) both the greedy hill climber and the
   genetic search return the true minimum-leakage vector;
2. **search quality at scale** — on the full-size study circuits (s838,
   mult88, alu88) both strategies find a vector at least as good as — and
   on s838 strictly better than — the best of N uniform random vectors,
   where N is the *larger* of the two optimizers' own evaluation ledgers
   (the random baseline never sees fewer candidates than either
   optimizer);
3. **reproducibility** — re-running the s838 searches split over islands
   (and a worker pool) reproduces the serial results bitwise.

It also records the feasibility speedup: the cost of the per-vector,
gate-by-gate estimator walk (the oracle :class:`repro.oracle.PerGateEstimator`,
probed on ``VECTOR_SEARCH_PROBE`` vectors) times the total number of
candidates searched, over the actual batched search wall-clock — how much
longer the identical search would have taken vector by vector.

Environment knobs for smoke runs: ``VECTOR_SEARCH_CIRCUITS``,
``VECTOR_SEARCH_SCALE`` (synthetic circuits only), ``VECTOR_SEARCH_RESTARTS``,
``VECTOR_SEARCH_POPULATION``, ``VECTOR_SEARCH_GENERATIONS``,
``VECTOR_SEARCH_MIN_SPEEDUP``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.circuit.generators import (
    alu,
    array_multiplier,
    iscas_like,
    nand_tree,
    random_logic,
)
from repro.engine import compile_circuit
from repro.optimize import (
    GeneticOptions,
    GreedyOptions,
    LeakageObjective,
    exhaustive_minimize,
    genetic_minimize,
    greedy_minimize,
)
from repro.oracle import PerGateEstimator
from repro.utils.rng import spawn_streams

CIRCUITS = [
    name.strip()
    for name in os.environ.get(
        "VECTOR_SEARCH_CIRCUITS", "s838,mult88,alu88"
    ).split(",")
    if name.strip()
]
SCALE = float(os.environ.get("VECTOR_SEARCH_SCALE", "1.0"))
SEED = 2005
RESTARTS = int(os.environ.get("VECTOR_SEARCH_RESTARTS", "8"))
POPULATION = int(os.environ.get("VECTOR_SEARCH_POPULATION", "48"))
GENERATIONS = int(os.environ.get("VECTOR_SEARCH_GENERATIONS", "60"))
PROBE_VECTORS = int(os.environ.get("VECTOR_SEARCH_PROBE", "10"))

#: The searched-per-second advantage over running the identical search
#: through the scalar estimator must clear this bar (conservative for CI).
MIN_SPEEDUP = float(os.environ.get("VECTOR_SEARCH_MIN_SPEEDUP", "5.0"))


def _json_path() -> Path:
    override = os.environ.get("VECTOR_SEARCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "vector_search.json"


def _build_circuit(name: str):
    if name == "mult88":
        return array_multiplier(8)
    if name == "alu88":
        return alu(8)
    return iscas_like(name, scale=SCALE)


def _search_one(compiled, greedy_rng, genetic_rng, random_rng):
    """Run both strategies plus the equal-budget random baselines, timed.

    The random draws are i.i.d. in order, so the best of the *first K* of
    one ``max_budget``-sized sample is exactly a best-of-random-K baseline:
    one batched evaluation pass yields the equal-budget baseline of every
    strategy via prefix minima.
    """
    start = time.perf_counter()
    greedy = greedy_minimize(
        compiled, options=GreedyOptions(restarts=RESTARTS), rng=greedy_rng
    )
    greedy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    genetic = genetic_minimize(
        compiled,
        options=GeneticOptions(population=POPULATION, generations=GENERATIONS),
        rng=genetic_rng,
    )
    genetic_seconds = time.perf_counter() - start

    budget = max(greedy.evaluations, genetic.evaluations)
    objective = LeakageObjective(compiled)
    candidates = random_rng.integers(
        0, 2, size=(budget, objective.n_inputs), dtype=np.uint8
    )
    start = time.perf_counter()
    totals = objective.totals(candidates)
    random_seconds = time.perf_counter() - start
    prefix_min = np.minimum.accumulate(totals)
    random_best = {
        "greedy": float(prefix_min[greedy.evaluations - 1]),
        "genetic": float(prefix_min[genetic.evaluations - 1]),
        "max": float(prefix_min[-1]),
    }
    return (
        greedy,
        greedy_seconds,
        genetic,
        genetic_seconds,
        budget,
        random_best,
        random_seconds,
    )


def test_vector_search(benchmark, d25s, library_d25s):
    estimator = PerGateEstimator(library_d25s)

    # 1. oracle parity on small circuits ----------------------------------- #
    # The parity bar always runs at the full default restart/population
    # sizes: the smoke knobs shrink the *scale* section, but "finds the true
    # minimum on small circuits" is an accuracy claim whose search effort is
    # part of the contract (4 restarts demonstrably get trapped), and small
    # circuits make full-size searches nearly free anyway.
    parity = {"circuits": [], "all_match": True}
    for small in (nand_tree(3), random_logic("vs_small", 10, 30, rng=7)):
        compiled = compile_circuit(small, library_d25s)
        oracle = exhaustive_minimize(compiled)
        greedy = greedy_minimize(
            compiled, options=GreedyOptions(restarts=8), rng=SEED
        )
        genetic = genetic_minimize(compiled, rng=SEED)
        matches = (
            greedy.best_total == oracle.best_total
            and genetic.best_total == oracle.best_total
        )
        parity["circuits"].append(
            {
                "circuit": small.name,
                "inputs": len(small.primary_inputs),
                "exhaustive_evaluations": oracle.evaluations,
                "matches": matches,
            }
        )
        parity["all_match"] = parity["all_match"] and matches
        assert matches, f"{small.name}: heuristics missed the exhaustive minimum"

    # 2. search at scale vs. best-of-random -------------------------------- #
    circuits = {}
    reproducibility = {}
    for index, name in enumerate(CIRCUITS):
        circuit = _build_circuit(name)
        start = time.perf_counter()
        compiled = compile_circuit(circuit, library_d25s)
        compile_seconds = time.perf_counter() - start

        greedy_rng, genetic_rng, random_rng, probe_rng = spawn_streams(
            SEED + index, 4
        )
        (
            greedy,
            greedy_seconds,
            genetic,
            genetic_seconds,
            budget,
            random_best,
            random_seconds,
        ) = run_once(
            benchmark if index == 0 else _passthrough,
            _search_one,
            compiled,
            greedy_rng,
            genetic_rng,
            random_rng,
        )

        # Scalar feasibility probe: what the same candidate count would
        # have cost through the per-vector gate-by-gate walk.
        probe_bits = probe_rng.integers(
            0, 2, size=(PROBE_VECTORS, len(circuit.primary_inputs)), dtype=np.uint8
        )
        objective = LeakageObjective(compiled)
        start = time.perf_counter()
        for row in probe_bits:
            estimator.estimate(circuit, objective.assignment(row))
        scalar_per_vector = (time.perf_counter() - start) / PROBE_VECTORS
        searched = greedy.evaluations + genetic.evaluations + budget
        batched_seconds = greedy_seconds + genetic_seconds + random_seconds
        speedup = (
            scalar_per_vector * searched / batched_seconds
            if batched_seconds > 0
            else float("nan")
        )

        improvement = {
            "greedy": 100.0
            * (random_best["greedy"] - greedy.best_total)
            / random_best["greedy"],
            "genetic": 100.0
            * (random_best["genetic"] - genetic.best_total)
            / random_best["genetic"],
        }
        circuits[name] = {
            "gates": circuit.gate_count,
            "inputs": len(circuit.primary_inputs),
            "compile_seconds": compile_seconds,
            "scalar_seconds_per_vector": scalar_per_vector,
            "speedup_vs_scalar": speedup,
            "greedy": {
                "best_total": greedy.best_total,
                "evaluations": greedy.evaluations,
                "rounds": greedy.islands[0].rounds,
                "converged": greedy.converged,
                "seconds": greedy_seconds,
            },
            "genetic": {
                "best_total": genetic.best_total,
                "evaluations": genetic.evaluations,
                "generations": genetic.islands[0].rounds,
                "converged": genetic.converged,
                "seconds": genetic_seconds,
            },
            "random": {
                "evaluations": budget,
                "best_total": random_best["max"],
                "best_at_greedy_budget": random_best["greedy"],
                "best_at_genetic_budget": random_best["genetic"],
                "seconds": random_seconds,
            },
            "improvement_percent": improvement,
            "beats_random": {
                "greedy": greedy.best_total < random_best["greedy"],
                "genetic": genetic.best_total < random_best["genetic"],
            },
        }

        assert greedy.best_total <= random_best["greedy"], (
            f"{name}: greedy lost to equal-budget random"
        )
        assert genetic.best_total <= random_best["genetic"], (
            f"{name}: genetic lost to equal-budget random"
        )
        if name == "s838" and SCALE >= 1.0:
            # Full-scale acceptance bar: both strategies strictly beat the
            # equal-budget random baseline.  (Smoke runs at reduced scale
            # keep the non-strict check above; the committed
            # vector_search.json records the full-scale strict result.)
            assert greedy.best_total < random_best["greedy"]
            assert genetic.best_total < random_best["genetic"]
        assert speedup >= MIN_SPEEDUP, (
            f"{name}: batched search only {speedup:.1f}x over the scalar "
            f"estimator (bar {MIN_SPEEDUP}x)"
        )

        # 3. bitwise serial-vs-island reproducibility (first circuit) ------- #
        if index == 0:
            # Each comparison run gets its own freshly-derived generator:
            # spawning streams *advances* a Generator's spawn key, so
            # reusing one object across runs would silently hand the second
            # run different streams.
            greedy_rng2, genetic_rng2, _, _ = spawn_streams(SEED + index, 4)
            _, genetic_rng3, _, _ = spawn_streams(SEED + index, 4)
            split = greedy_minimize(
                compiled,
                options=GreedyOptions(restarts=RESTARTS),
                rng=greedy_rng2,
                islands=4,
            )
            greedy_bitwise = (
                split.best_total == greedy.best_total
                and bool(np.array_equal(split.best_bits, greedy.best_bits))
                and split.evaluations == greedy.evaluations
            )
            pool_options = GeneticOptions(
                population=max(8, POPULATION // 4), generations=8
            )
            serial = genetic_minimize(
                compiled, options=pool_options, rng=genetic_rng2, islands=2,
                max_workers=1,
            )
            pooled = genetic_minimize(
                compiled, options=pool_options, rng=genetic_rng3, islands=2,
                max_workers=2,
            )
            genetic_bitwise = (
                serial.best_total == pooled.best_total
                and bool(np.array_equal(serial.best_bits, pooled.best_bits))
                and all(
                    np.array_equal(a.trajectory, b.trajectory)
                    for a, b in zip(serial.islands, pooled.islands)
                )
            )
            reproducibility = {
                "circuit": name,
                "greedy_island_bitwise": greedy_bitwise,
                "genetic_pool_bitwise": genetic_bitwise,
            }
            assert greedy_bitwise, "island split changed the greedy result"
            assert genetic_bitwise, "worker pool changed the genetic result"

    record = {
        "seed": SEED,
        "scale": SCALE,
        "engine": "batched",
        "solver_method": "lut-campaign",
        "min_speedup": MIN_SPEEDUP,
        "greedy_options": {"restarts": RESTARTS},
        "genetic_options": {"population": POPULATION, "generations": GENERATIONS},
        "exhaustive_parity": parity,
        "reproducibility": reproducibility,
        "circuits": circuits,
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    for name, entry in circuits.items():
        print(
            f"{name}: greedy {entry['improvement_percent']['greedy']:.2f}% / "
            f"genetic {entry['improvement_percent']['genetic']:.2f}% below "
            f"best-of-{entry['random']['evaluations']} random, "
            f"{entry['speedup_vs_scalar']:.0f}x vs scalar search ({path})"
        )


class _Passthrough:
    """Stand-in for the pytest-benchmark fixture on non-primary circuits."""

    @staticmethod
    def pedantic(function, args=(), kwargs=None, rounds=1, iterations=1):
        return function(*args, **(kwargs or {}))


_passthrough = _Passthrough()
