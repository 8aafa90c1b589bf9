"""Tests for vector campaigns, loading-impact statistics and vector search."""

import math

import numpy as np
import pytest

from repro.circuit.generators import loaded_inverter_cluster, nand_tree, random_logic
from repro.circuit.logic import random_vectors
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.reference import ReferenceSimulator
from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.core.vectors import (
    VectorCampaignResult,
    loading_impact_statistics,
    run_vector_campaign,
)
from repro.optimize import minimize_leakage
from repro.spice.analysis import ComponentBreakdown


def _synthetic_report(sub=1e-9, gate=1e-9, btbt=1e-9, runtime=0.25):
    """Build a one-gate report with chosen component totals."""
    breakdown = ComponentBreakdown(subthreshold=sub, gate=gate, btbt=btbt)
    entry = GateLeakage(
        gate_name="g0", gate_type_name="inv", vector=(0,), breakdown=breakdown
    )
    metadata = {} if runtime is None else {"runtime_s": runtime}
    return CircuitLeakageReport(
        circuit_name="synthetic",
        method="loading-aware",
        input_assignment={"in": 0},
        per_gate={"g0": entry},
        temperature_k=300.0,
        vdd=0.9,
        metadata=metadata,
    )


def _synthetic_campaign(reports):
    return VectorCampaignResult(
        circuit_name="synthetic", method="loading-aware", reports=reports
    )


class TestVectorCampaign:
    def test_campaign_collects_reports(self, library_d25s):
        circuit = nand_tree(2)
        estimator = LoadingAwareEstimator(library_d25s)
        campaign = run_vector_campaign(estimator, circuit, count=5, rng=1)
        assert campaign.vector_count == 5
        assert campaign.method == "loading-aware"
        assert campaign.totals().shape == (5,)
        assert campaign.mean_total() > 0
        assert campaign.runtime_s() >= 0.0

    def test_explicit_vectors_shared_between_estimators(self, library_d25s):
        circuit = nand_tree(2)
        vectors = list(random_vectors(circuit, 4, rng=3))
        loaded = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit, vectors=vectors
        )
        baseline = run_vector_campaign(
            NoLoadingEstimator(library_d25s), circuit, vectors=vectors
        )
        assert loaded.vector_count == baseline.vector_count == 4
        for a, b in zip(loaded.reports, baseline.reports):
            assert a.input_assignment == b.input_assignment

    def test_only_library_backed_estimators(self, library_d25s, d25s):
        circuit = nand_tree(1)
        with pytest.raises(TypeError) as excinfo:
            run_vector_campaign(ReferenceSimulator(d25s), circuit, count=2, rng=0)
        assert "run_reference_campaign" in str(excinfo.value)
        assert "per_vector_campaign" in str(excinfo.value)
        empty = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit, vectors=[]
        )
        assert empty.vector_count == 0
        assert empty.totals().shape == (0,)


class TestLoadingImpactStatistics:
    def test_statistics_structure_and_signs(self, library_d25s):
        circuit = loaded_inverter_cluster(5, 5)
        vectors = list(random_vectors(circuit, 4, rng=0))
        loaded = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit, vectors=vectors
        )
        baseline = run_vector_campaign(
            NoLoadingEstimator(library_d25s), circuit, vectors=vectors
        )
        stats = loading_impact_statistics(loaded, baseline)
        assert stats.vector_count == 4
        # Subthreshold is the component the loading effect moves the most.
        assert stats.average_percent["subthreshold"] > 0
        assert stats.maximum_percent["subthreshold"] >= stats.average_percent["subthreshold"]
        row = stats.row("average")
        assert row[0] == circuit.name
        assert len(row) == 5

    def test_mismatched_campaigns_rejected(self, library_d25s):
        circuit_a = nand_tree(2)
        circuit_b = loaded_inverter_cluster(2, 2)
        campaign_a = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit_a, count=2, rng=0
        )
        campaign_b = run_vector_campaign(
            NoLoadingEstimator(library_d25s), circuit_b, count=2, rng=0
        )
        with pytest.raises(ValueError, match="different circuits"):
            loading_impact_statistics(campaign_a, campaign_b)

    def test_mismatched_vector_counts_rejected(self, library_d25s):
        circuit = nand_tree(2)
        a = run_vector_campaign(LoadingAwareEstimator(library_d25s), circuit, count=2, rng=0)
        b = run_vector_campaign(NoLoadingEstimator(library_d25s), circuit, count=3, rng=0)
        with pytest.raises(ValueError, match="vector counts"):
            loading_impact_statistics(a, b)


class TestMinimumLeakageVector:
    def test_exhaustive_search_on_small_circuit(self, library_d25s):
        circuit = nand_tree(1)  # two inputs, one NAND2
        estimator = LoadingAwareEstimator(library_d25s)
        result = minimize_leakage(estimator, circuit, strategy="exhaustive")
        vector, total = result.best_assignment, result.best_total
        assert set(vector) == set(circuit.primary_inputs)
        assert total > 0
        # The winner must actually achieve the minimum over all four vectors.
        totals = {
            tuple(sorted(v.items())): estimator.estimate(circuit, v).total
            for v in (
                {"in0": a, "in1": b} for a in (0, 1) for b in (0, 1)
            )
        }
        assert total == pytest.approx(min(totals.values()))

    def test_random_search_is_reproducible(self, library_d25s):
        circuit = random_logic("minv", 5, 20, rng=2)
        estimator = LoadingAwareEstimator(library_d25s)
        first, second = (
            run_vector_campaign(estimator, circuit, count=8, rng=5)
            for _ in range(2)
        )
        best = int(np.argmin(first.totals()))
        assert best == int(np.argmin(second.totals()))
        assert (
            first.reports[best].input_assignment
            == second.reports[best].input_assignment
        )
        assert first.totals()[best] == second.totals()[best]

    def test_generator_input_is_materialized(self, library_d25s):
        circuit = nand_tree(1)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = ({"in0": a, "in1": b} for a in (0, 1) for b in (0, 1))
        campaign = run_vector_campaign(estimator, circuit, vectors=vectors)
        assert campaign.vector_count == 4
        assert campaign.totals().min() > 0


class TestCampaignRuntimeMetadata:
    def test_runtime_sums_report_metadata(self):
        campaign = _synthetic_campaign(
            [_synthetic_report(runtime=0.25), _synthetic_report(runtime=0.5)]
        )
        assert campaign.runtime_s() == pytest.approx(0.75)

    def test_missing_runtime_metadata_raises(self):
        campaign = _synthetic_campaign(
            [_synthetic_report(runtime=0.25), _synthetic_report(runtime=None)]
        )
        with pytest.raises(ValueError, match="runtime_s"):
            campaign.runtime_s()

    def test_batch_runtime_wins_over_metadata(self):
        campaign = VectorCampaignResult(
            circuit_name="synthetic",
            method="loading-aware",
            reports=[_synthetic_report(runtime=None)],
            batch_runtime_s=0.125,
        )
        assert campaign.runtime_s() == pytest.approx(0.125)


class TestZeroUnloadedVectorHandling:
    def test_zero_unloaded_vectors_excluded_and_counted(self):
        loaded = _synthetic_campaign(
            [
                _synthetic_report(sub=2e-9, gate=1e-9, btbt=1e-9),
                _synthetic_report(sub=1e-9, gate=1e-9, btbt=1e-9),
            ]
        )
        unloaded = _synthetic_campaign(
            [
                _synthetic_report(sub=1e-9, gate=1e-9, btbt=1e-9),
                # Second vector has zero unloaded subthreshold: no defined
                # percent change for that component.
                _synthetic_report(sub=0.0, gate=1e-9, btbt=1e-9),
            ]
        )
        stats = loading_impact_statistics(loaded, unloaded)
        # Only the first vector contributes; the old code averaged in a
        # silent 0% for the second and reported 50% here.
        assert stats.average_percent["subthreshold"] == pytest.approx(100.0)
        assert stats.maximum_percent["subthreshold"] == pytest.approx(100.0)
        assert stats.skipped_vectors["subthreshold"] == 1
        assert stats.skipped_vectors["total"] == 0

    def test_all_vectors_skipped_yields_nan(self):
        loaded = _synthetic_campaign([_synthetic_report(btbt=1e-9)])
        unloaded = _synthetic_campaign([_synthetic_report(btbt=0.0)])
        stats = loading_impact_statistics(loaded, unloaded)
        assert math.isnan(stats.average_percent["btbt"])
        assert math.isnan(stats.maximum_percent["btbt"])
        assert stats.skipped_vectors["btbt"] == 1
