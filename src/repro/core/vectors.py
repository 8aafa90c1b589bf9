"""Vector campaigns: random-vector statistics and minimum-leakage-vector search.

The paper's circuit-level evaluation (Fig. 12) runs 100 random vectors per
circuit and reports, per leakage component, the average and maximum percent
change caused by the loading effect.  It also observes (Sec. 6) that the
minimum-leakage input vector — the quantity input-vector-control leakage
reduction techniques search for — can change once loading is considered.
This module provides both campaign types on top of any estimator that
implements ``estimate(circuit, assignment) -> CircuitLeakageReport``.

Campaigns over the library-backed estimators
(:class:`~repro.core.estimator.LoadingAwareEstimator` and its no-loading
variant) route through the batched engine of :mod:`repro.engine` by default:
the circuit + library are compiled once into flat LUT arrays and the whole
vector set is answered in a few array passes.  Any other estimator is
walked vector by vector; the same walk over a library-backed estimator is
the test oracle :func:`repro.oracle.per_vector_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.circuit.logic import exhaustive_vectors, random_vectors
from repro.circuit.netlist import Circuit
from repro.core.estimator import LoadingAwareEstimator
from repro.core.report import REPORT_COMPONENTS, CircuitLeakageReport
from repro.utils.rng import RngLike

#: Width cap of the exhaustive sweep over an estimator that is not
#: library-backed: one per-vector estimator walk per candidate, so far fewer
#: inputs are feasible than through the batched engine.
_MAX_SCALAR_EXHAUSTIVE_INPUTS = 16


class LeakageEstimator(Protocol):
    """Anything that can produce a :class:`CircuitLeakageReport` for a vector."""

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:  # pragma: no cover - protocol definition
        ...


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


def _engine_backed(estimator: LeakageEstimator) -> bool:
    """Return True when ``estimator`` is a library-backed LUT estimator."""
    return isinstance(estimator, LoadingAwareEstimator)


def _estimate_each(
    estimator: LeakageEstimator, circuit: Circuit, vectors: list[dict[str, int]]
) -> VectorCampaignResult:
    """Evaluate ``vectors`` with one ``estimator.estimate`` call each."""
    reports = [estimator.estimate(circuit, vector) for vector in vectors]
    method = reports[0].method if reports else getattr(estimator, "method_name", "?")
    return VectorCampaignResult(
        circuit_name=circuit.name, method=method, reports=reports
    )


def _check_exhaustive_width(n_inputs: int, library_backed: bool) -> None:
    """Refuse an exhaustive sweep too wide for the path that would stream it."""
    from repro.optimize.search import MAX_EXHAUSTIVE_INPUTS, check_exhaustive_width

    if library_backed:
        check_exhaustive_width(n_inputs)
    elif n_inputs > _MAX_SCALAR_EXHAUSTIVE_INPUTS:
        # One estimator.estimate call per vector is ~1000x an engine row,
        # so 2**16 per-vector walks is already minutes.
        raise ValueError(
            f"exhaustive search over {n_inputs} inputs would stream "
            f"2**{n_inputs} vectors through the per-vector scalar "
            f"estimator (cap: {_MAX_SCALAR_EXHAUSTIVE_INPUTS} inputs); use a "
            "library-backed estimator — which raises the cap to "
            f"{MAX_EXHAUSTIVE_INPUTS} and unlocks strategy='greedy'/"
            "'genetic' for wider circuits"
        )


def _run_batched_campaign(
    estimator: LoadingAwareEstimator,
    circuit: Circuit,
    vectors: list[dict[str, int]],
    session=None,
) -> VectorCampaignResult:
    """Evaluate ``vectors`` through an estimation session's batched engine.

    Routed through :class:`repro.service.EstimationSession` so repeated
    campaigns against the same circuit reuse one compiled instance.
    ``coalesce=False``: this is a synchronous single-caller path, so paying
    the batch window would buy nothing — coalescing is for the session's
    concurrent front-end users.
    """
    from repro.engine.campaign import LazyReports
    from repro.service import default_session

    run = (session or default_session()).campaign(
        circuit,
        estimator.library,
        vectors,
        include_loading=estimator.include_loading,
        coalesce=False,
    )
    return VectorCampaignResult(
        circuit_name=circuit.name,
        method=run.method,
        reports=LazyReports(run),
        precomputed_totals=run.component_totals(),
        batch_runtime_s=run.runtime_s,
    )


def run_vector_campaign(
    estimator: LeakageEstimator,
    circuit: Circuit,
    vectors: Iterable[dict[str, int]] | None = None,
    count: int = 100,
    rng: RngLike = None,
    lint: str = "raise",
    session=None,
) -> VectorCampaignResult:
    """Run ``estimator`` over a vector set and collect the reports.

    Library-backed estimators are answered by the batched engine; any other
    estimator is walked vector by vector.

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
    if vectors and _engine_backed(estimator):
        return _run_batched_campaign(estimator, circuit, vectors, session)
    return _estimate_each(estimator, circuit, vectors)


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


def minimum_leakage_vector(
    estimator: LeakageEstimator,
    circuit: Circuit,
    vectors: Iterable[dict[str, int]] | None = None,
    exhaustive: bool = False,
    count: int = 100,
    rng: RngLike = None,
    strategy: str | None = None,
    strategy_options=None,
    islands: int = 1,
    max_workers: int | None = None,
    lint: str = "raise",
    session=None,
) -> tuple[dict[str, int], float]:
    """Return the input vector with the lowest estimated total leakage.

    Parameters
    ----------
    exhaustive:
        When True every possible input vector is evaluated (only feasible for
        small circuits); otherwise ``vectors`` or ``count`` random vectors
        are used.  Passing both ``exhaustive=True`` and an explicit
        ``vectors`` set is ambiguous and raises ``ValueError``, and so does
        a circuit wider than the sweep's input cap
        (:data:`repro.optimize.MAX_EXHAUSTIVE_INPUTS` through the batched
        engine, 16 inputs for a per-vector estimator).
    strategy:
        Optional search-strategy dispatch into :mod:`repro.optimize`:
        ``"exhaustive"`` evaluates every vector (the oracle), ``"greedy"``
        runs the batched random-restart bit-flip hill climber and
        ``"genetic"`` the island-model genetic search — the latter two make
        the search tractable far beyond the ~20-input exhaustive wall and
        require a library-backed estimator.  ``None`` (default) keeps the
        classic behavior driven by ``vectors`` / ``exhaustive`` / ``count``.
        Strategies are incompatible with an explicit ``vectors=`` set or
        ``exhaustive=True`` (the strategy already decides the candidates).
        ``strategy='exhaustive'`` over an estimator that is not
        library-backed streams every vector through the estimator, behind
        the same input-width guard as ``exhaustive=True``.
    strategy_options / islands / max_workers / rng:
        Forwarded to :func:`repro.optimize.minimize_leakage` when a
        heuristic strategy is selected: per-strategy knobs
        (:class:`~repro.optimize.GreedyOptions` /
        :class:`~repro.optimize.GeneticOptions`), the island split, the
        process-pool width (results are bitwise worker-count independent)
        and the root seed.
    lint:
        Netlist pre-flight policy (``"raise"`` | ``"warn"`` | ``"off"``);
        explicit ``vectors=`` sets are additionally width-checked (NL007).
    session:
        Optional :class:`repro.service.EstimationSession` the batched
        paths compile through (default: the process-default session); also
        forwarded to :func:`repro.optimize.minimize_leakage` for the
        heuristic strategies.

    Returns the (assignment, total leakage in amperes) pair.  The paper notes
    that the winning vector can differ between loading-aware and no-loading
    estimation, which is why the estimator is a parameter.  Callers that
    want the full search diagnostics (trajectories, evaluation counts,
    per-island outcomes) should call
    :func:`repro.optimize.minimize_leakage` directly.
    """
    from repro.analysis import preflight_circuit, preflight_vectors

    preflight_circuit(circuit, lint=lint)
    library_backed = _engine_backed(estimator)
    if strategy is not None:
        from repro.optimize import SEARCH_STRATEGIES, minimize_leakage

        if strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"strategy must be one of {SEARCH_STRATEGIES}, got {strategy!r}"
            )
        if vectors is not None or exhaustive:
            raise ValueError(
                "strategy= already decides the candidate set; drop the "
                "explicit vectors=/exhaustive= arguments"
            )
        # Uniform knob validation, shared by the batched and per-vector
        # branches: the deterministic oracle takes no search knobs, and
        # silently dropping them would mask a caller who meant a heuristic.
        if strategy == "exhaustive":
            if strategy_options is not None:
                raise TypeError("strategy='exhaustive' takes no strategy_options")
            if islands != 1 or max_workers is not None:
                raise ValueError(
                    "strategy='exhaustive' does not parallelize over islands "
                    "or workers"
                )
        if strategy != "exhaustive" and not library_backed:
            raise ValueError(
                f"strategy={strategy!r} requires a library-backed "
                f"estimator (got {type(estimator).__name__})"
            )
        if library_backed:
            result = minimize_leakage(
                estimator,
                circuit,
                strategy=strategy,
                rng=rng,
                islands=islands,
                max_workers=max_workers,
                options=strategy_options,
                session=session,
            )
            return result.best_assignment, result.best_total
        # strategy='exhaustive' over a per-vector estimator: stream every
        # vector through the loop below.
        exhaustive = True
    if exhaustive and vectors is not None:
        raise ValueError(
            "pass either exhaustive=True or an explicit vectors= set, not both"
        )
    if exhaustive:
        _check_exhaustive_width(len(circuit.primary_inputs), library_backed)
        # Streamed, not materialized: 2**n vectors must never live at once.
        candidates: Iterable[dict[str, int]] = exhaustive_vectors(circuit)
    elif vectors is not None:
        # Materialize up front: a one-shot iterator that was already consumed
        # would otherwise surface as a confusing "no vectors were evaluated".
        candidates = list(vectors)
        preflight_vectors(circuit, candidates, lint=lint)
    else:
        candidates = list(random_vectors(circuit, count, rng))

    best_vector: dict[str, int] | None = None
    best_total = float("inf")
    if library_backed:
        from repro.service import default_session

        # Stream through the session: exhaustive sweeps never materialize
        # 2**n vectors at once, and each per-chunk run is discarded after
        # its running minimum is folded in.
        sess = session or default_session()
        for run in sess.iter_campaign(
            circuit,
            estimator.library,
            candidates,
            include_loading=estimator.include_loading,
        ):
            totals = run.component_totals()["total"]
            best = int(np.argmin(totals))
            if totals[best] < best_total:
                best_total = float(totals[best])
                best_vector = dict(run.assignments[best])
    else:
        for vector in candidates:
            total = estimator.estimate(circuit, vector).total
            if total < best_total:
                best_total = total
                best_vector = dict(vector)
    if best_vector is None:
        raise ValueError(
            "no candidate vectors to evaluate: the vector set is empty "
            "(was a one-shot iterator already consumed?)"
        )
    return best_vector, best_total
