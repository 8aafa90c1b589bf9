#!/usr/bin/env python3
"""Validate the LUT estimator against the batched transistor-level reference.

Fig. 12(a) compares the loading-aware estimate with a full "SPICE" solve of
the circuit.  The batched reference path flattens the circuit *once* and
solves a whole vector set as same-topology batches, which is what makes
many-vector validation campaigns interactive:

* ``run_reference_campaign`` is the reference twin of
  ``run_vector_campaign``;
* chunking only bounds memory — results are bitwise independent of how the
  vector set is split into batches.

Run with ``python examples/reference_validation.py``.
"""

import time

from repro import make_technology
from repro.circuit.generators import iscas_like
from repro.circuit.logic import random_vectors
from repro.core import (
    LoadingAwareEstimator,
    run_reference_campaign,
    run_vector_campaign,
)
from repro.gates.characterize import GateLibrary
from repro.utils.tables import format_table


def main() -> None:
    technology = make_technology("d25-s")
    library = GateLibrary(technology)
    estimator = LoadingAwareEstimator(library)
    circuit = iscas_like("s838", scale=0.12)
    vectors = list(random_vectors(circuit, 16, rng=2005))

    print(f"{circuit.name}: {circuit.gate_count} gates, {len(vectors)} vectors")

    start = time.perf_counter()
    reference = run_reference_campaign(circuit, technology, vectors=vectors)
    reference_seconds = time.perf_counter() - start
    print(f"batched reference campaign: {reference_seconds:.2f}s")

    estimate = run_vector_campaign(estimator, circuit, vectors=vectors)

    rows = []
    for component in ("subthreshold", "gate", "btbt", "total"):
        ref_mean = reference.mean_total(component)
        est_mean = estimate.mean_total(component)
        rows.append(
            [
                component,
                ref_mean * 1e9,
                est_mean * 1e9,
                100.0 * (est_mean - ref_mean) / ref_mean,
            ]
        )
    print()
    print(
        format_table(
            ["component", "reference [nA]", "estimated [nA]", "error [%]"],
            rows,
            title="Fig. 12(a): estimator vs transistor-level reference",
        )
    )


if __name__ == "__main__":
    main()
