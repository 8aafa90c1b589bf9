"""Fig. 12: circuit-level leakage estimation with loading effect.

Three sub-results, matching the paper's panels:

* **(a)** total circuit leakage estimated by the loading-aware algorithm
  versus the transistor-level reference solve (the paper's "Leakage from
  Spice" vs. "Estimated leakage");
* **(b)** average percent change of each leakage component caused by the
  loading effect over a random-vector campaign (loading-aware vs. the
  traditional no-loading accumulation);
* **(c)** the maximum percent change over the same campaign.

The circuit suite is the paper's: six ISCAS89-sized circuits (synthetic
stand-ins, see DESIGN.md), the 8x8 array multiplier and the 8-bit ALU.
The reference column of panel (a) rides the batched transistor-level path
(:func:`repro.core.reference.run_reference_campaign`), which is what makes
validating the full suite at real vector counts feasible.  Vector counts
and the synthetic-circuit scale remain parameters; the benchmark harness
records the configuration used for every reported number in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.logic import random_vectors
from repro.circuit.netlist import Circuit
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.reference import DEFAULT_REFERENCE_CHUNK_SIZE, run_reference_campaign
from repro.core.vectors import (
    LoadingImpactStatistics,
    loading_impact_statistics,
    run_vector_campaign,
)
from repro.device.params import TechnologyParams
from repro.device.presets import make_technology
from repro.gates.characterize import GateLibrary
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.tables import format_table
from repro.utils.units import watts_to_microwatts


@dataclass
class Fig12CircuitEntry:
    """Results for one circuit of the suite."""

    name: str
    gate_count: int
    vector_count: int
    estimated_power_uw: float
    impact: LoadingImpactStatistics
    reference_power_uw: float | None = None
    estimate_vs_reference_percent: dict[str, float] | None = None
    reference_vector_count: int = 0


@dataclass
class Fig12Result:
    """The full Fig. 12 sweep over the circuit suite."""

    technology_name: str
    entries: list[Fig12CircuitEntry] = field(default_factory=list)
    #: Session counter deltas this figure generated (compile-cache hits /
    #: misses, coalescer traffic, ...) — see ``EstimationSession.stats()``.
    cache_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    def entry(self, name: str) -> Fig12CircuitEntry:
        """Return one circuit's entry by name."""
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no entry for circuit {name!r}")

    def to_table_a(self) -> str:
        """Render panel (a): estimated vs. reference power."""
        rows = []
        for entry in self.entries:
            rows.append(
                [
                    entry.name,
                    entry.gate_count,
                    entry.estimated_power_uw,
                    entry.reference_power_uw
                    if entry.reference_power_uw is not None
                    else "-",
                    entry.estimate_vs_reference_percent["total"]
                    if entry.estimate_vs_reference_percent
                    else "-",
                ]
            )
        return format_table(
            ["circuit", "gates", "estimated [uW]", "reference [uW]", "error [%]"],
            rows,
            title="Fig. 12(a): estimated vs. reference leakage power",
        )

    def _impact_table(self, statistic: str, title: str) -> str:
        rows = [entry.impact.row(statistic) for entry in self.entries]
        return format_table(
            ["circuit", "sub [%]", "gate [%]", "btbt [%]", "total [%]"],
            rows,
            title=title,
        )

    def to_table_b(self) -> str:
        """Render panel (b): average loading-induced change per component."""
        return self._impact_table(
            "average", "Fig. 12(b): average % leakage change due to loading"
        )

    def to_table_c(self) -> str:
        """Render panel (c): maximum loading-induced change per component."""
        return self._impact_table(
            "maximum", "Fig. 12(c): maximum % leakage change due to loading"
        )

    def to_table(self) -> str:
        """Render all three panels."""
        return "\n\n".join([self.to_table_a(), self.to_table_b(), self.to_table_c()])


def run_fig12_circuit_estimation(
    circuits: dict[str, Circuit],
    technology: TechnologyParams | None = None,
    library: GateLibrary | None = None,
    vectors: int = 100,
    reference_vectors: int = 8,
    reference_max_gates: int | None = None,
    rng: RngLike = 0,
    reference_chunk_size: int = DEFAULT_REFERENCE_CHUNK_SIZE,
    session=None,
) -> Fig12Result:
    """Run the Fig. 12 campaign over ``circuits``.

    Parameters
    ----------
    circuits:
        Circuits keyed by display name (typically
        :func:`repro.circuit.generators.paper_benchmark_suite`).
    vectors:
        Random vectors per circuit for the loading-impact statistics (the
        paper uses 100).
    reference_vectors:
        How many of those vectors are additionally validated against the
        transistor-level reference solve (0 disables validation).
    reference_max_gates:
        When set, circuits larger than this skip reference validation —
        a wall-clock escape hatch for smoke configurations (see
        EXPERIMENTS.md).  The default of ``None`` validates the full suite:
        the batched reference path makes that feasible.
    reference_chunk_size:
        Vectors per batched reference solve (peak-memory bound; results are
        bitwise independent of it).
    session:
        Optional :class:`repro.service.EstimationSession` every campaign of
        the sweep routes through (default: the process-default session).
        A sweep sharing one session compiles each circuit once — the
        loading-aware, no-loading and validation campaigns all hit the
        session cache — and when ``library`` is omitted the session's
        registry supplies it.  The result records the cache traffic this
        figure generated in :attr:`Fig12Result.cache_stats`.
    """
    from repro.service import default_session, stats_delta
    sess = session or default_session()
    technology = technology or make_technology("d25-s")
    library = library or sess.library(technology)
    estimator = LoadingAwareEstimator(library)
    baseline = NoLoadingEstimator(library)
    generator = ensure_rng(rng)
    stats_before = sess.stats()

    result = Fig12Result(technology_name=technology.name)
    for name, circuit in circuits.items():
        vector_list = list(random_vectors(circuit, vectors, generator))
        with_loading = run_vector_campaign(
            estimator, circuit, vectors=vector_list, session=sess
        )
        without_loading = run_vector_campaign(
            baseline, circuit, vectors=vector_list, session=sess
        )
        impact = loading_impact_statistics(with_loading, without_loading)

        estimated_power = (
            with_loading.mean_total() * library.vdd
        )

        entry = Fig12CircuitEntry(
            name=name,
            gate_count=circuit.gate_count,
            vector_count=len(vector_list),
            estimated_power_uw=watts_to_microwatts(estimated_power),
            impact=impact,
        )

        if reference_vectors > 0 and (
            reference_max_gates is None or circuit.gate_count <= reference_max_gates
        ):
            ref_vectors = vector_list[:reference_vectors]
            ref_campaign = run_reference_campaign(
                circuit,
                technology,
                vectors=ref_vectors,
                chunk_size=reference_chunk_size,
            )
            est_campaign = run_vector_campaign(
                estimator, circuit, vectors=ref_vectors, session=sess
            )
            entry.reference_power_uw = watts_to_microwatts(
                ref_campaign.mean_total() * technology.vdd
            )
            # Percent error of the estimator against the reference, averaged
            # over the validated vectors.
            diffs: dict[str, list[float]] = {}
            for est_report, ref_report in zip(est_campaign.reports, ref_campaign.reports):
                for key, value in est_report.percent_difference(ref_report).items():
                    diffs.setdefault(key, []).append(value)
            entry.estimate_vs_reference_percent = {
                key: sum(values) / len(values) for key, values in diffs.items()
            }
            entry.reference_vector_count = len(ref_vectors)

        result.entries.append(entry)
    result.cache_stats = stats_delta(stats_before, sess.stats())
    return result
