"""Input-vector control: minimum-leakage vector search at scale.

The batched campaign engine (:mod:`repro.engine`) made leakage evaluation a
per-*batch* cost; this subsystem spends that budget searching — the workload
the paper's estimator ultimately serves (Sec. 6: the minimum-leakage standby
vector, which can change once loading is considered):

* :mod:`repro.optimize.objective` — whole candidate populations scored as
  single engine array passes, with an exact evaluation ledger;
* :mod:`repro.optimize.search` — batched random-restart greedy bit-flip
  hill climbing, an island-model genetic search, and the streaming
  exhaustive oracle, all bitwise-reproducible from a seed whether islands
  run serially or across a process pool.

:func:`minimize_leakage` is the one search entry point, for library-backed
estimators; ``benchmarks/bench_vector_search.py`` compares its strategies
against best-of-random-N at equal evaluation budget.  A best-of-N over a
given vector set is the ``argmin`` of
:func:`repro.core.vectors.run_vector_campaign`'s totals.
"""

from repro.optimize.objective import LeakageObjective
from repro.optimize.search import (
    GeneticOptions,
    GreedyOptions,
    IslandDiagnostics,
    MAX_EXHAUSTIVE_INPUTS,
    OptimizationResult,
    SEARCH_STRATEGIES,
    exhaustive_minimize,
    genetic_minimize,
    greedy_minimize,
    minimize_leakage,
)

__all__ = [
    "GeneticOptions",
    "GreedyOptions",
    "IslandDiagnostics",
    "LeakageObjective",
    "MAX_EXHAUSTIVE_INPUTS",
    "OptimizationResult",
    "SEARCH_STRATEGIES",
    "exhaustive_minimize",
    "genetic_minimize",
    "greedy_minimize",
    "minimize_leakage",
]
