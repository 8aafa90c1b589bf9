#!/usr/bin/env python3
"""Compile-once / run-many campaigns with the batched engine.

The estimator's ``estimate`` answers one vector at a time; campaign
workloads (Fig. 12 statistics, minimum-leakage-vector search) ask
hundreds.  The batched engine compiles the circuit + characterized library
into flat LUT arrays once, then answers whole vector sets as array passes:

* ``run_vector_campaign`` routes library-backed estimators through the
  engine;
* the compile cache makes repeated campaigns on the same circuit reuse the
  flattened arrays, so only the first campaign pays the compile;
* a best-of-N vector search is the ``argmin`` of one campaign's totals,
  answered from the same cached compile.

Run with ``python examples/batched_campaign.py``.  The layer *below* this —
characterizing the library and the Monte-Carlo variation study through the
batched DC solver — is walked end-to-end by
``examples/batched_characterization.py``.
"""

import time

import numpy as np

from repro import make_technology
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core import LoadingAwareEstimator, run_vector_campaign
from repro.gates.characterize import GateLibrary
from repro.service import EstimationSession
from repro.utils.tables import format_table


def main() -> None:
    technology = make_technology("d25-s")
    library = GateLibrary(technology)
    estimator = LoadingAwareEstimator(library)
    circuit = iscas_like("s838", scale=0.25)
    vectors = list(random_vectors(circuit, 100, rng=2005))

    # Compile once: the estimation session characterizes every (gate type,
    # vector) the circuit can hit and flattens the response curves into
    # NumPy arrays.  Subsequent campaigns routed through the same session
    # reuse the cached compile (watch session.stats() count the hits).
    session = EstimationSession()
    start = time.perf_counter()
    session.compiled(circuit, library)
    compile_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_vector_campaign(
        estimator, circuit, vectors=vectors, session=session
    )
    batched_s = time.perf_counter() - start

    rows = [
        ["compile (one-time)", compile_s, "-"],
        ["batched campaign", batched_s, batched.mean_total() * 1e9],
    ]
    print(
        format_table(
            ["path", "wall [s]", "mean leakage [nA]"],
            rows,
            title=f"100-vector campaign on '{circuit.name}' ({circuit.gate_count} gates)",
        )
    )

    # Run-many: a best-of-256 minimum-leakage-vector search is the argmin
    # of one more campaign, which reuses the cached compile.
    start = time.perf_counter()
    candidates = list(random_vectors(circuit, 256, rng=7))
    totals = run_vector_campaign(
        estimator, circuit, vectors=candidates, session=session
    ).totals()
    best = int(np.argmin(totals))
    best_vector, best_total = candidates[best], float(totals[best])
    search_s = time.perf_counter() - start
    ones = sum(best_vector.values())
    print(
        f"minimum-leakage vector over 256 candidates: {best_total * 1e9:.3f} nA "
        f"({ones}/{len(best_vector)} inputs high) in {search_s:.3f}s"
    )

    info = session.stats()["compile_cache"]
    print(
        f"session compile cache: {info['hits']} hits / {info['misses']} miss "
        f"({info['entries']} compiled circuit(s) resident)"
    )


if __name__ == "__main__":
    main()
