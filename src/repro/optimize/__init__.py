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

``repro.core.vectors.minimum_leakage_vector(strategy=...)`` dispatches
library-backed estimators here; :mod:`repro.experiments.ivc` and
``benchmarks/bench_vector_search.py`` compare the strategies against
best-of-random-N at equal evaluation budget.
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
