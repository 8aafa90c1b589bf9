"""Differential fuzzing: independent implementations must agree on random inputs.

Every fast path has a per-item oracle (:mod:`repro.oracle`) or a second
solver method to be held to.  The regression suites pin them against each other
on fixed circuits; this module fuzzes the *structure* too — random small
circuits from :mod:`repro.circuit.generators` under random vectors — and
asserts the recorded agreement bars hold for every sampled topology:

* batched campaign engine vs. scalar ``LoadingAwareEstimator``: per-component
  circuit totals within 1e-12 relative (the bar
  ``test_engine.py::TestBatchedCampaignMatchesScalar`` holds on fixed
  circuits);
* batched Newton DC solver vs. batched Gauss–Seidel oracle on the flattened
  transistor netlists: per-vector, per-component reference totals within
  1e-9 relative (the bar ``test_reference_batch.py`` holds per gate
  against the scalar oracle).

Seeds are fixed (deterministic wall-clock, reproducible failures); every
seed generates a different gate mix, depth profile and fanout pattern, which
is exactly the surface hand-picked regression circuits cannot cover.
"""

import numpy as np
import pytest

from repro.circuit.generators import random_logic
from repro.circuit.logic import random_vectors
from repro.core.estimator import LoadingAwareEstimator
from repro.core.reference import ReferenceSimulator
from repro.core.report import REPORT_COMPONENTS
from repro.core.vectors import run_vector_campaign
from repro.oracle import per_vector_campaign
from repro.spice.solver import SolverOptions
from repro.utils.rng import spawn_streams

#: Engine-vs-scalar agreement bar.
ENGINE_BAR = 1e-12

#: Newton-vs-Gauss-Seidel agreement bar.
NEWTON_BAR = 1e-9

#: Tight tolerances put both solver methods at the root, far below the bar.
TIGHT = dict(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)


def _relative_gap(observed: np.ndarray, expected: np.ndarray) -> float:
    """Max relative difference with a floor for exactly-zero components."""
    scale = np.maximum(np.abs(expected), 1e-18)
    return float(np.max(np.abs(observed - expected) / scale))


@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_engine_matches_scalar_estimator_on_random_circuits(seed, library25):
    """Fuzzed topologies: batched totals track the scalar oracle to 1e-12."""
    topology_rng, vector_rng = spawn_streams(seed, 2)
    circuit = random_logic(
        f"fuzz_engine_{seed}",
        n_inputs=int(topology_rng.integers(4, 8)),
        n_gates=int(topology_rng.integers(10, 26)),
        rng=topology_rng,
    )
    estimator = LoadingAwareEstimator(library25)
    vectors = list(random_vectors(circuit, 6, rng=vector_rng))
    batched = run_vector_campaign(estimator, circuit, vectors=vectors)
    scalar = per_vector_campaign(estimator, circuit, vectors)
    for component in REPORT_COMPONENTS:
        gap = _relative_gap(batched.totals(component), scalar.totals(component))
        assert gap <= ENGINE_BAR, (
            f"{circuit.name}: engine drifted {gap:.3e} from the scalar "
            f"oracle on component {component!r}"
        )


@pytest.mark.slow
@pytest.mark.parametrize("seed", [111, 222])
def test_newton_matches_gauss_seidel_on_random_circuits(seed, bulk25):
    """Fuzzed transistor netlists: Newton tracks the relaxation oracle."""
    topology_rng, vector_rng = spawn_streams(seed, 2)
    circuit = random_logic(
        f"fuzz_newton_{seed}",
        n_inputs=int(topology_rng.integers(4, 7)),
        n_gates=int(topology_rng.integers(8, 16)),
        rng=topology_rng,
    )
    vectors = list(random_vectors(circuit, 4, rng=vector_rng))
    reports = {}
    for method in ("newton", "gauss-seidel"):
        simulator = ReferenceSimulator(
            bulk25, solver_options=SolverOptions(method=method, **TIGHT)
        )
        reports[method] = simulator.estimate_batch(circuit, vectors)
    for newton, oracle in zip(reports["newton"], reports["gauss-seidel"]):
        for component in REPORT_COMPONENTS:
            observed = np.array([newton.component(component)])
            expected = np.array([oracle.component(component)])
            gap = _relative_gap(observed, expected)
            assert gap <= NEWTON_BAR, (
                f"{circuit.name}: Newton drifted {gap:.3e} from Gauss-Seidel "
                f"on component {component!r} for vector "
                f"{oracle.input_assignment}"
            )
