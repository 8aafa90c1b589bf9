#!/usr/bin/env python3
"""Input-vector dependence of the loading effect (paper Fig. 7 + Sec. 6).

Part 1 sweeps the loading on each pin of a NAND2 gate for all four input
vectors (Fig. 7).  Part 2 demonstrates the paper's input-vector-control
observation: the minimum-leakage input vector of a small circuit can change
once the loading effect is taken into account.

Run with ``python examples/nand_vector_dependence.py``.
"""

from repro import make_technology
from repro.circuit.generators import nand_tree
from repro.core import LoadingAwareEstimator, NoLoadingEstimator
from repro.experiments.fig07 import run_fig7_nand_vectors
from repro.gates import GateLibrary
from repro.optimize import minimize_leakage


def main() -> None:
    technology = make_technology("bulk-25nm")

    fig7 = run_fig7_nand_vectors(technology, loading_currents=(0.0, 1.5e-6, 3.0e-6))
    print(fig7.to_table())
    print()

    # Minimum-leakage vector search with and without loading on a NAND tree.
    library = GateLibrary(technology)
    circuit = nand_tree(3)
    loaded = minimize_leakage(
        LoadingAwareEstimator(library), circuit, strategy="exhaustive"
    )
    unloaded = minimize_leakage(
        NoLoadingEstimator(library), circuit, strategy="exhaustive"
    )
    loaded_vector, loaded_total = loaded.best_assignment, loaded.best_total
    unloaded_vector, unloaded_total = unloaded.best_assignment, unloaded.best_total
    print(f"circuit: {circuit.name} ({circuit.gate_count} NAND2 gates)")
    print(f"min-leakage vector without loading: {unloaded_vector}  "
          f"({unloaded_total * 1e9:.1f} nA)")
    print(f"min-leakage vector with loading   : {loaded_vector}  "
          f"({loaded_total * 1e9:.1f} nA)")
    if loaded_vector != unloaded_vector:
        print("-> the loading effect changes the minimum-leakage vector, which "
              "matters for input-vector-control leakage reduction.")
    else:
        print("-> for this circuit both analyses agree on the vector; the totals "
              "still differ by the loading contribution.")


if __name__ == "__main__":
    main()
