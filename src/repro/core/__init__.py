"""Core contribution: loading-effect analysis and loading-aware leakage estimation.

* :mod:`repro.core.loading` — the LD_IN / LD_OUT / LD_ALL metrics of Eqs. 3-5
  evaluated by exact characterization-cell solves (used by the device-level
  figures 5-9);
* :mod:`repro.core.estimator` — the paper's Fig. 13 algorithm: topological
  traversal of the gate-level netlist, logic-value propagation, per-net
  loading-current accumulation and characterized-LUT lookup, answered by
  the compiled engine of :mod:`repro.engine`;
* :mod:`repro.core.baseline` — the traditional no-loading accumulation the
  paper compares against;
* :mod:`repro.core.reference` — the full transistor-level reference solve
  (the "SPICE" column of Fig. 12a), solved in batches;
* :mod:`repro.core.report` — result containers;
* :mod:`repro.core.vectors` — random-vector campaigns and loading-impact
  statistics (Fig. 12b/c).
"""

from repro.core.loading import LoadingAnalyzer, LoadingEffect
from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.core.estimator import LoadingAwareEstimator
from repro.core.baseline import NoLoadingEstimator
from repro.core.reference import ReferenceSimulator, run_reference_campaign
from repro.core.vectors import (
    VectorCampaignResult,
    loading_impact_statistics,
    run_vector_campaign,
)

__all__ = [
    "LoadingAnalyzer",
    "LoadingEffect",
    "CircuitLeakageReport",
    "GateLeakage",
    "LoadingAwareEstimator",
    "NoLoadingEstimator",
    "ReferenceSimulator",
    "VectorCampaignResult",
    "loading_impact_statistics",
    "run_reference_campaign",
    "run_vector_campaign",
]
