#!/usr/bin/env python3
"""Minimum-leakage input-vector search with the `repro.optimize` subsystem.

Input-vector control (IVC) puts a circuit into its lowest-leakage state
during standby; the paper (Sec. 6) notes the winning vector can change once
loading is considered.  Exhaustive search dies at ~20 inputs, so this
example walks the searchable path end to end:

1. on a small tree the greedy and genetic strategies are checked against
   the exhaustive oracle (they must find the true minimum);
2. on an ISCAS-sized circuit (far beyond exhaustive reach) both strategies
   are compared against a best-of-random-N baseline at an equal evaluation
   budget — every candidate any path scores is one row of a batched engine
   pass, so thousands of vectors cost fractions of a second;
3. the same search is repeated with ``islands=4``: the result is bitwise
   identical to the serial run (SeedSequence-spawned streams + the
   engine's column-independent totals), parallelism is purely throughput.

Run with ``python examples/vector_optimization.py``.
"""

import time

import numpy as np

from repro import make_technology
from repro.circuit.generators import iscas_like, nand_tree
from repro.core import LoadingAwareEstimator
from repro.engine import compile_circuit
from repro.gates.characterize import GateLibrary
from repro.optimize import (
    GeneticOptions,
    GreedyOptions,
    LeakageObjective,
    genetic_minimize,
    greedy_minimize,
    minimize_leakage,
)


def main() -> None:
    technology = make_technology("d25-s")
    library = GateLibrary(technology)
    estimator = LoadingAwareEstimator(library)

    # 1. oracle parity on a small circuit ---------------------------------- #
    small = nand_tree(3)
    oracle = minimize_leakage(estimator, small, strategy="exhaustive")
    for strategy in ("greedy", "genetic"):
        result = minimize_leakage(estimator, small, strategy=strategy, rng=2005)
        status = "MATCHES" if result.best_total == oracle.best_total else "MISSES"
        print(
            f"{small.name}: {strategy} {status} the exhaustive minimum "
            f"({result.best_total * 1e9:.4f} nA in {result.evaluations} "
            f"evaluations vs {oracle.evaluations} exhaustive)"
        )

    # 2. search at scale vs. best-of-random at equal budget ---------------- #
    circuit = iscas_like("s838", scale=0.5)
    compiled = compile_circuit(circuit, library)
    start = time.perf_counter()
    greedy = greedy_minimize(
        compiled, options=GreedyOptions(restarts=6), rng=2005
    )
    genetic = genetic_minimize(
        compiled,
        options=GeneticOptions(population=32, generations=30),
        rng=2005,
    )
    search_s = time.perf_counter() - start

    budget = max(greedy.evaluations, genetic.evaluations)
    objective = LeakageObjective(compiled)
    rng = np.random.default_rng(2005)
    random_best = float(
        objective.totals(
            rng.integers(0, 2, size=(budget, objective.n_inputs), dtype=np.uint8)
        ).min()
    )
    print()
    print(greedy.to_table())
    print()
    print(genetic.to_table())
    print()
    print(
        f"best of {budget} random vectors: {random_best * 1e9:.4f} nA — "
        f"greedy is {100 * (random_best - greedy.best_total) / random_best:.2f}% "
        f"lower, genetic "
        f"{100 * (random_best - genetic.best_total) / random_best:.2f}% lower "
        f"(both searches took {search_s:.2f}s)"
    )

    # 3. island parallelism is bitwise-free -------------------------------- #
    split = greedy_minimize(
        compiled, options=GreedyOptions(restarts=6), rng=2005, islands=4
    )
    identical = split.best_total == greedy.best_total and np.array_equal(
        split.best_bits, greedy.best_bits
    )
    print(f"islands=4 reproduces the serial search bitwise: {identical}")

    # The one call most callers want: compile, search and report.
    result = minimize_leakage(estimator, circuit, strategy="greedy", rng=2005)
    vector, total = result.best_assignment, result.best_total
    ones = sum(vector.values())
    print(
        f"minimize_leakage(strategy='greedy'): {total * 1e9:.4f} nA "
        f"({ones}/{len(vector)} inputs high)"
    )


if __name__ == "__main__":
    main()
