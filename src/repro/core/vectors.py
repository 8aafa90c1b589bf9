"""Vector campaigns and the loading-impact statistics of Fig. 12.

The paper's circuit-level evaluation (Fig. 12) runs 100 random vectors per
circuit and reports, per leakage component, the average and maximum percent
change caused by the loading effect.  :func:`run_vector_campaign` answers a
vector set for a library-backed estimator
(:class:`~repro.core.estimator.LoadingAwareEstimator` and its no-loading
variant) through the batched engine of :mod:`repro.engine`: the circuit +
library are compiled once into flat LUT arrays and the whole vector set is
answered in a few array passes.

The paper also observes (Sec. 6) that the minimum-leakage input vector can
change once loading is considered.  :func:`repro.optimize.minimize_leakage`
searches it; a best-of-N over a given vector set is the ``argmin`` of
``run_vector_campaign(...).totals()``.  The transistor-level reference
campaign is :func:`repro.core.reference.run_reference_campaign`, and the
per-vector walk of any estimator is the test oracle
:func:`repro.oracle.per_vector_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.circuit.logic import random_vectors
from repro.circuit.netlist import Circuit
from repro.core.estimator import LoadingAwareEstimator
from repro.core.report import REPORT_COMPONENTS, CircuitLeakageReport
from repro.utils.rng import RngLike


@dataclass
class VectorCampaignResult:
    """Reports of one estimator over a common vector set.

    Scalar campaigns materialize one :class:`CircuitLeakageReport` per
    vector; batched-engine campaigns store the circuit totals as arrays
    (``precomputed_totals``) and expose ``reports`` as a lazy sequence that
    only builds full per-gate reports when indexed.
    """

    circuit_name: str
    method: str
    reports: Sequence[CircuitLeakageReport] = field(default_factory=list)
    precomputed_totals: dict[str, np.ndarray] | None = None
    batch_runtime_s: float | None = None
    #: Execution provenance (e.g. the supervised pool's retry ledger under
    #: ``"resilience"``); never feeds back into the report values.
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def vector_count(self) -> int:
        """Return the number of vectors evaluated."""
        return len(self.reports)

    def totals(self, component: str = "total") -> np.ndarray:
        """Return the chosen component's circuit total per vector (A)."""
        if self.precomputed_totals is not None:
            return np.asarray(self.precomputed_totals[component], dtype=float).copy()
        return np.array([report.component(component) for report in self.reports])

    def mean_total(self, component: str = "total") -> float:
        """Return the mean circuit leakage of a component over the campaign."""
        totals = self.totals(component)
        return float(totals.mean()) if totals.size else 0.0

    def runtime_s(self) -> float:
        """Return the campaign's estimation runtime in seconds.

        Batched-engine campaigns report the wall-clock of the single array
        pass; scalar campaigns sum the per-report ``runtime_s`` metadata.
        A report without that metadata raises ``ValueError`` — silently
        substituting 0.0 (the old behavior) made downstream speedup ratios
        divide by zero or report infinite speedups.
        """
        if self.batch_runtime_s is not None:
            return float(self.batch_runtime_s)
        missing = sum(1 for r in self.reports if "runtime_s" not in r.metadata)
        if missing:
            raise ValueError(
                f"{missing} of {len(self.reports)} campaign reports lack "
                "'runtime_s' metadata; refusing to fabricate a 0.0 runtime"
            )
        return float(sum(float(r.metadata["runtime_s"]) for r in self.reports))


def run_vector_campaign(
    estimator: LoadingAwareEstimator,
    circuit: Circuit,
    vectors: Iterable[dict[str, int]] | None = None,
    count: int = 100,
    rng: RngLike = None,
    lint: str = "raise",
    session=None,
) -> VectorCampaignResult:
    """Run a library-backed ``estimator`` over a vector set.

    The batched engine answers the whole set; any other estimator raises
    ``TypeError`` (see the module docstring for the reference and oracle
    campaigns).

    Parameters
    ----------
    vectors:
        Explicit vector set; when omitted, ``count`` random vectors are drawn
        using ``rng`` (pass the same seed to different estimators to compare
        them on identical vectors).
    session:
        Optional :class:`repro.service.EstimationSession` the batched path
        compiles through; default is the process-default session, so
        repeated campaigns share one warm compile cache.  Session routing
        never changes numbers.
    lint:
        Netlist pre-flight policy (:func:`repro.analysis.preflight_circuit`).
        Under the default ``"raise"`` a malformed circuit — or an explicit
        vector set whose assignments do not match the primary inputs
        (``NL007``) — is rejected up front with the full structured finding
        list; ``"warn"`` downgrades to warnings, ``"off"`` skips the check.
    """
    from repro.analysis import preflight_circuit
    from repro.engine.campaign import LazyReports
    from repro.service import default_session

    if not isinstance(estimator, LoadingAwareEstimator):
        raise TypeError(
            "run_vector_campaign needs a library-backed estimator "
            f"(got {type(estimator).__name__}); use "
            "repro.core.reference.run_reference_campaign for the "
            "transistor-level reference, or repro.oracle.per_vector_campaign "
            "for a per-vector walk"
        )
    explicit_vectors = vectors is not None
    if vectors is None:
        vectors = list(random_vectors(circuit, count, rng))
    else:
        vectors = list(vectors)
    # Internally drawn vectors are correct by construction; only explicit
    # caller-supplied sets are width-checked.
    preflight_circuit(
        circuit, lint=lint, vectors=vectors if explicit_vectors else None
    )
    if not vectors:
        return VectorCampaignResult(
            circuit_name=circuit.name, method=estimator.method_name
        )
    run = (session or default_session()).campaign(
        circuit,
        estimator.library,
        vectors,
        include_loading=estimator.include_loading,
    )
    return VectorCampaignResult(
        circuit_name=circuit.name,
        method=run.method,
        reports=LazyReports(run),
        precomputed_totals=run.component_totals(),
        batch_runtime_s=run.runtime_s,
    )


@dataclass(frozen=True)
class LoadingImpactStatistics:
    """Per-component impact of the loading effect over a vector campaign.

    ``average_percent`` and ``maximum_percent`` are the Fig. 12(b) and
    Fig. 12(c) quantities: the mean and maximum over vectors of the absolute
    percent difference between the loading-aware and no-loading circuit
    totals.  Vectors whose unloaded total is zero for a component have no
    defined percent change; they are excluded from that component's mean and
    maximum, and ``skipped_vectors`` records how many were dropped (a
    component with every vector skipped reports NaN).
    """

    circuit_name: str
    vector_count: int
    average_percent: dict[str, float]
    maximum_percent: dict[str, float]
    skipped_vectors: dict[str, int] = field(default_factory=dict)

    def row(self, statistic: str = "average") -> list[object]:
        """Return a table row (circuit, sub, gate, btbt, total) in percent."""
        source = (
            self.average_percent if statistic == "average" else self.maximum_percent
        )
        return [self.circuit_name] + [source[name] for name in REPORT_COMPONENTS]


def loading_impact_statistics(
    with_loading: VectorCampaignResult,
    without_loading: VectorCampaignResult,
) -> LoadingImpactStatistics:
    """Return average/maximum loading-induced percent change per component.

    Both campaigns must cover the same circuit and the same number of vectors
    (ideally the identical vector list, which :func:`run_vector_campaign`
    guarantees when given the same seed or explicit vectors).
    """
    if with_loading.circuit_name != without_loading.circuit_name:
        raise ValueError("campaigns cover different circuits")
    if with_loading.vector_count != without_loading.vector_count:
        raise ValueError("campaigns cover different vector counts")
    if with_loading.vector_count == 0:
        raise ValueError("campaigns are empty")

    average: dict[str, float] = {}
    maximum: dict[str, float] = {}
    skipped: dict[str, int] = {}
    for name in REPORT_COMPONENTS:
        loaded = with_loading.totals(name)
        unloaded = without_loading.totals(name)
        defined = unloaded != 0.0
        skipped[name] = int(np.count_nonzero(~defined))
        magnitude = np.abs(
            100.0 * (loaded[defined] - unloaded[defined]) / unloaded[defined]
        )
        # A vector with zero unloaded leakage has no percent change; mapping
        # it to 0% (the old behavior) silently deflated the Fig. 12 average.
        average[name] = float(magnitude.mean()) if magnitude.size else float("nan")
        maximum[name] = float(magnitude.max()) if magnitude.size else float("nan")
    return LoadingImpactStatistics(
        circuit_name=with_loading.circuit_name,
        vector_count=with_loading.vector_count,
        average_percent=average,
        maximum_percent=maximum,
        skipped_vectors=skipped,
    )
