"""Tests for the variance-reduced statistical-leakage subsystem.

Covers the scrambled-Sobol QMC sampler (reproducibility, truncation), the
moment-propagation fast path against the Monte-Carlo oracle, the
percentile/yield estimators with bootstrap confidence intervals, the
session-level ``percentile_leakage`` query and its population cache, and
the statistics-layer bugfix pass: guarded percent-shift division,
per-sample convergence policies, and the empty-population guards of the
Fig. 10 / Fig. 11 drivers.
"""

import math
import warnings

import numpy as np
import pytest

from repro.experiments.fig10 import run_fig10_variation_histograms
from repro.experiments.fig11 import run_fig11_variation_statistics
from repro.service import EstimationSession
from repro.spice.solver import SolverOptions
from repro.utils.rng import ensure_rng
from repro.variation import moments
from repro.variation.moments import (
    clipped_gaussian_exp_moment,
    propagate_loaded_inverter_moments,
)
from repro.variation.montecarlo import (
    MonteCarloConvergenceWarning,
    run_loaded_inverter_monte_carlo,
)
from repro.variation.qmc import (
    INTER_DIE_AXES,
    ParameterDraws,
    SobolBalanceWarning,
    draw_qmc_parameters,
    sobol_standard_normal,
)
from repro.variation.spec import VariationSpec
from repro.variation.statistics import (
    equivalent_mc_samples,
    loading_shift_of_mean,
    loading_shift_of_std,
    lognormal_mean,
    lognormal_shift_of_mean,
    lognormal_shift_of_std,
    lognormal_std,
    percentile_leakage,
    yield_fraction,
)

#: One Newton iteration and one fallback Gauss-Seidel sweep cannot reach the
#: 5 uV tolerance from the DC seed; every sample of a study run with these
#: options comes back non-converged.
NONCONVERGING = SolverOptions(max_sweeps=1, newton_max_iterations=1)

#: Only the inter-die Vth varies: one moment axis, no cross terms.
ONE_AXIS = VariationSpec(
    sigma_length_nm=0.0, sigma_tox_nm=0.0, sigma_vth_intra_v=0.0, sigma_vdd_v=0.0
)


def _samples_bitwise_equal(result_a, result_b) -> bool:
    if result_a.sample_count != result_b.sample_count:
        return False
    for a, b in zip(result_a.samples, result_b.samples):
        if a.with_loading.as_dict() != b.with_loading.as_dict():
            return False
        if a.without_loading.as_dict() != b.without_loading.as_dict():
            return False
    return True


class TestSobolSampler:
    def test_shape_and_standardization(self):
        block = sobol_standard_normal(256, 5, rng=0)
        assert block.shape == (256, 5)
        assert np.isfinite(block).all()
        # Scrambled Sobol + inverse normal: near-perfect marginals.
        assert np.abs(block.mean(axis=0)).max() < 0.1
        assert np.abs(block.std(axis=0) - 1.0).max() < 0.1

    def test_reproducible_for_same_seed(self):
        a = sobol_standard_normal(64, 3, rng=7)
        b = sobol_standard_normal(64, 3, rng=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sobol_standard_normal(64, 3, rng=7)
        b = sobol_standard_normal(64, 3, rng=8)
        assert not np.array_equal(a, b)

    def test_non_power_of_two_warns(self):
        with pytest.warns(SobolBalanceWarning):
            sobol_standard_normal(100, 2, rng=0)

    def test_power_of_two_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sobol_standard_normal(64, 2, rng=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sobol_standard_normal(0, 2, rng=0)
        with pytest.raises(ValueError):
            sobol_standard_normal(8, 0, rng=0)


class TestParameterDraws:
    def test_shapes_and_truncation(self):
        spec = VariationSpec()
        draws = draw_qmc_parameters(spec, 64, transistor_count=12, rng=0)
        assert draws.sample_count == 64
        assert draws.transistor_count == 12
        assert draws.intra_vth_v.shape == (64, 12)
        bound = spec.truncation * spec.sigma_vth_inter_v
        assert np.abs(draws.delta_vth_v).max() <= bound + 1e-15
        bound = spec.truncation * spec.sigma_vth_intra_v
        assert np.abs(draws.intra_vth_v).max() <= bound + 1e-15

    def test_zero_sigma_axis_is_exactly_zero(self):
        spec = VariationSpec(sigma_vdd_v=0.0)
        draws = draw_qmc_parameters(spec, 32, transistor_count=4, rng=0)
        assert np.all(draws.delta_vdd_v == 0.0)
        # The other axes still vary.
        assert np.any(draws.delta_vth_v != 0.0)

    def test_slice_matches_full_block(self):
        draws = draw_qmc_parameters(VariationSpec(), 32, transistor_count=6, rng=3)
        head, tail = draws.slice(0, 20), draws.slice(20, 32)
        assert head.sample_count == 20 and tail.sample_count == 12
        assert np.array_equal(
            np.concatenate([head.delta_length_nm, tail.delta_length_nm]),
            draws.delta_length_nm,
        )
        assert np.array_equal(
            np.vstack([head.intra_vth_v, tail.intra_vth_v]), draws.intra_vth_v
        )

    def test_inter_die_accessor(self):
        draws = draw_qmc_parameters(VariationSpec(), 8, transistor_count=2, rng=1)
        sample = draws.inter_die(3)
        assert sample.delta_vth_v == draws.delta_vth_v[3]
        assert draws.intra_vth(3).shape == (2,)

    def test_axis_layout(self):
        assert INTER_DIE_AXES == ("length_nm", "tox_nm", "vth_inter_v", "vdd_v")

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError):
            ParameterDraws(
                spec=VariationSpec(),
                delta_length_nm=np.zeros(4),
                delta_tox_nm=np.zeros(4),
                delta_vth_v=np.zeros(3),
                delta_vdd_v=np.zeros(4),
                intra_vth_v=np.zeros((4, 2)),
            )


class TestLoadingShiftGuards:
    """Regression: percent shifts with a (near-)zero unloaded statistic."""

    def test_zero_over_zero_is_zero_shift(self):
        constant = np.array([2.0, 2.0, 2.0])
        assert loading_shift_of_std(constant, constant) == 0.0
        zeros = np.zeros(3)
        assert loading_shift_of_mean(zeros, zeros) == 0.0

    def test_finite_over_zero_raises_naming_the_statistic(self):
        loaded = np.array([1.0, 2.0, 3.0])
        constant = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="std"):
            loading_shift_of_std(loaded, constant)
        with pytest.raises(ValueError, match="mean"):
            loading_shift_of_mean(loaded, np.array([-1.0, 1.0]))

    def test_single_sample_population_has_zero_std(self):
        # ddof=1 on one sample is 0/0-degenerate; treated as zero spread.
        assert loading_shift_of_std(np.array([5.0]), np.array([3.0])) == 0.0

    def test_empty_population_raises(self):
        with pytest.raises(ValueError, match="empty"):
            loading_shift_of_mean(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError, match="empty"):
            loading_shift_of_std(np.array([1.0]), np.array([]))

    def test_normal_case_unchanged(self):
        loaded = np.array([1.0, 2.0, 3.0]) * 1.10
        unloaded = np.array([1.0, 2.0, 3.0])
        assert loading_shift_of_mean(loaded, unloaded) == pytest.approx(10.0)
        assert loading_shift_of_std(loaded, unloaded) == pytest.approx(10.0)


class TestLognormalEstimators:
    def test_matches_population_moments_for_lognormal_data(self):
        rng = ensure_rng(0)
        values = np.exp(rng.normal(loc=-14.0, scale=0.8, size=200_000))
        mu, sigma = -14.0, 0.8
        true_mean = math.exp(mu + sigma**2 / 2.0)
        true_std = true_mean * math.sqrt(math.expm1(sigma**2))
        assert lognormal_mean(values) == pytest.approx(true_mean, rel=0.02)
        assert lognormal_std(values) == pytest.approx(true_std, rel=0.03)

    def test_plugin_shift_tracks_empirical_shift(self):
        rng = ensure_rng(1)
        unloaded = np.exp(rng.normal(scale=0.5, size=100_000))
        loaded = unloaded * 1.08
        # A pure scale factor shifts both estimators by exactly 8 %.
        assert lognormal_shift_of_mean(loaded, unloaded) == pytest.approx(8.0)
        assert lognormal_shift_of_std(loaded, unloaded) == pytest.approx(8.0)
        assert loading_shift_of_std(loaded, unloaded) == pytest.approx(8.0)

    def test_plugin_std_has_lower_scatter(self):
        # The variance-reduction claim, on synthetic lognormal replicates:
        # the plug-in std estimate scatters far less than the empirical
        # sample std, whose error is dominated by the few extreme samples.
        rng = ensure_rng(2)
        empirical, plugin = [], []
        for _ in range(60):
            values = np.exp(rng.normal(scale=1.2, size=400))
            empirical.append(values.std(ddof=1))
            plugin.append(lognormal_std(values))
        assert np.std(plugin, ddof=1) < 0.8 * np.std(empirical, ddof=1)

    def test_rejects_non_positive_samples(self):
        with pytest.raises(ValueError, match="positive"):
            lognormal_std(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            lognormal_mean(np.array([-1.0, 2.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            lognormal_mean(np.array([]))
        with pytest.raises(ValueError, match="empty"):
            lognormal_shift_of_std(np.array([]), np.array([1.0]))


class TestPercentileAndYield:
    def test_percentile_on_known_population(self):
        values = np.arange(1000.0)
        estimate = percentile_leakage(values, 50.0, bootstrap=200, rng=0)
        assert estimate.value == pytest.approx(499.5)
        assert estimate.ci_low <= estimate.value <= estimate.ci_high
        assert estimate.sample_count == 1000

    def test_percentile_reproducible(self):
        values = ensure_rng(0).normal(size=200)
        a = percentile_leakage(values, 99.0, bootstrap=100, rng=4)
        b = percentile_leakage(values, 99.0, bootstrap=100, rng=4)
        assert a == b

    def test_percentile_validation(self):
        values = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="empty"):
            percentile_leakage(np.array([]), 50.0)
        with pytest.raises(ValueError):
            percentile_leakage(values, 101.0)
        with pytest.raises(ValueError):
            percentile_leakage(values, 50.0, confidence=1.0)
        with pytest.raises(ValueError):
            percentile_leakage(values, 50.0, bootstrap=0)

    def test_yield_fraction(self):
        values = np.arange(10.0)
        estimate = yield_fraction(values, limit=4.0, bootstrap=100, rng=0)
        assert estimate.fraction == pytest.approx(0.5)
        assert 0.0 <= estimate.ci_low <= estimate.ci_high <= 1.0
        assert estimate.limit == 4.0

    def test_equivalent_mc_samples_is_near_budget_for_iid(self):
        # Four iid replicates of plain-MC data are worth ~ their own budget.
        block = ensure_rng(1).normal(size=1024)
        replicate_stats = np.array([part.mean() for part in np.split(block, 4)])
        equivalent = equivalent_mc_samples(block, replicate_stats, rng=0)
        assert 1024 / 4 < equivalent < 1024 * 4

    def test_equivalent_mc_samples_zero_scatter_is_inf(self):
        assert math.isinf(
            equivalent_mc_samples(np.arange(16.0), np.array([1.0, 1.0]), rng=0)
        )

    def test_equivalent_mc_samples_validation(self):
        with pytest.raises(ValueError, match="empty"):
            equivalent_mc_samples(np.array([]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="replicates"):
            equivalent_mc_samples(np.arange(8.0), np.array([1.0]))


class TestClippedGaussianMoment:
    def test_matches_monte_carlo_integral(self):
        rng = ensure_rng(0)
        z = np.clip(rng.normal(size=400_000), -2.0, 2.0)
        for c1, c2 in [(0.5, 0.0), (1.0, 0.1), (-0.8, -0.2), (0.0, 0.3)]:
            closed = clipped_gaussian_exp_moment(c1, c2, truncation=2.0)
            empirical = float(np.mean(np.exp(c1 * z + c2 * z * z)))
            assert closed == pytest.approx(empirical, rel=0.02)

    def test_identity_at_zero(self):
        assert clipped_gaussian_exp_moment(0.0, 0.0, 3.0) == pytest.approx(1.0)

    def test_divergent_quadratic_rejected(self):
        with pytest.raises(ValueError, match="0.5"):
            clipped_gaussian_exp_moment(0.0, 0.5, 3.0)


@pytest.mark.slow
class TestQmcMonteCarlo:
    def test_qmc_metadata_and_reproducibility(self, d25s):
        kwargs = dict(
            samples=8, rng=3, input_loads=2, output_loads=2, sampler="qmc"
        )
        a = run_loaded_inverter_monte_carlo(d25s, **kwargs)
        b = run_loaded_inverter_monte_carlo(d25s, **kwargs)
        assert a.metadata["sampler"] == "qmc"
        assert a.sample_count == 8
        assert _samples_bitwise_equal(a, b)

    def test_unknown_sampler_rejected(self, d25s):
        with pytest.raises(ValueError, match="sampler"):
            run_loaded_inverter_monte_carlo(d25s, samples=4, rng=0, sampler="lhs")

    def test_qmc_agrees_with_mc_at_matched_budget(self, d25s):
        kwargs = dict(samples=64, input_loads=2, output_loads=2)
        mc = run_loaded_inverter_monte_carlo(d25s, rng=0, sampler="mc", **kwargs)
        qmc = run_loaded_inverter_monte_carlo(d25s, rng=0, sampler="qmc", **kwargs)
        for loaded in (True, False):
            mc_mean = float(np.mean(np.log(mc.values("total", loaded=loaded))))
            qmc_mean = float(np.mean(np.log(qmc.values("total", loaded=loaded))))
            # Same distribution, different sampler: log-means agree well
            # within the MC standard error at this budget.
            assert qmc_mean == pytest.approx(mc_mean, abs=0.35)


@pytest.mark.slow
class TestNonconvergedPolicies:
    def test_warn_policy_records_mask(self, d25s):
        with pytest.warns(MonteCarloConvergenceWarning):
            result = run_loaded_inverter_monte_carlo(
                d25s,
                samples=4,
                rng=0,
                input_loads=2,
                output_loads=2,
                solver_options=NONCONVERGING,
            )
        assert result.sample_count == 4
        assert not result.converged_mask.any()
        assert result.metadata.get("dropped_nonconverged", 0) == 0

    def test_warning_reaches_the_caller(self, d25s):
        """One warning per run, at this file's line."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_loaded_inverter_monte_carlo(
                d25s, samples=4, rng=1, solver_options=NONCONVERGING
            )
        ours = [w for w in caught if w.category is MonteCarloConvergenceWarning]
        assert not result.converged_mask.any()
        assert len(ours) == 1
        assert ours[0].filename == __file__
        assert "4 of 4 Monte-Carlo samples did not converge" in str(ours[0].message)

    def test_raise_policy(self, d25s):
        with pytest.raises(RuntimeError, match="did not converge"):
            run_loaded_inverter_monte_carlo(
                d25s,
                samples=4,
                rng=0,
                input_loads=2,
                output_loads=2,
                solver_options=NONCONVERGING,
                on_nonconverged="raise",
            )

    def test_drop_policy_counts_dropped(self, d25s):
        result = run_loaded_inverter_monte_carlo(
            d25s,
            samples=2,
            rng=0,
            input_loads=2,
            output_loads=2,
            solver_options=NONCONVERGING,
            on_nonconverged="drop",
        )
        assert result.sample_count == 0
        assert result.metadata["dropped_nonconverged"] == 2

    def test_converged_runs_have_true_mask(self, d25s):
        result = run_loaded_inverter_monte_carlo(
            d25s, samples=4, rng=0, input_loads=2, output_loads=2
        )
        assert result.converged_mask.all()
        assert result.metadata["sampler"] == "mc"

    def test_unknown_policy_rejected(self, d25s):
        with pytest.raises(ValueError, match="on_nonconverged"):
            run_loaded_inverter_monte_carlo(
                d25s, samples=4, rng=0, on_nonconverged="ignore"
            )

    def test_fig11_names_the_drained_sigma_point(self, d25s):
        with pytest.raises(ValueError, match="sigma point 30 mV"):
            run_fig11_variation_statistics(
                d25s,
                sigma_values_v=(0.030,),
                samples=2,
                rng=0,
                solver_options=NONCONVERGING,
                on_nonconverged="drop",
            )

    def test_fig11_lognormal_estimator(self, d25s):
        result = run_fig11_variation_statistics(
            d25s,
            sigma_values_v=(0.030,),
            samples=16,
            rng=0,
            sampler="qmc",
            estimator="lognormal",
        )
        assert len(result.points) == 1
        assert math.isfinite(result.points[0].std_shift_percent)

    def test_fig11_unknown_estimator_rejected(self, d25s):
        with pytest.raises(ValueError, match="estimator"):
            run_fig11_variation_statistics(
                d25s, sigma_values_v=(0.030,), samples=4, estimator="robust"
            )

    def test_fig10_names_the_drained_configuration(self, d25s):
        with pytest.raises(ValueError, match="2\\+2 loads"):
            run_fig10_variation_histograms(
                d25s,
                samples=2,
                rng=0,
                input_loads=2,
                output_loads=2,
                solver_options=NONCONVERGING,
                on_nonconverged="drop",
            )


@pytest.mark.slow
class TestMomentPropagation:
    def test_closed_form_path(self, d25s):
        """One varying axis has no pair to cross: the closed form answers."""
        result = propagate_loaded_inverter_moments(
            d25s, spec=ONE_AXIS, input_loads=2, output_loads=2
        )
        assert result.method == "closed-form"
        assert result.axis_count == 1
        assert result.interaction_pairs == 0
        for component in ("subthreshold", "gate", "btbt", "total"):
            for loaded in (True, False):
                estimate = result.estimate(component, loaded=loaded)
                assert estimate.mean > 0.0
                assert estimate.std >= 0.0
        assert math.isfinite(result.mean_shift_percent())
        assert math.isfinite(result.std_shift_percent())

    def test_quadrature_path(self, d25s, monkeypatch):
        solve = moments._solve_parameter_sets
        columns = []

        def counting(task, draws):
            columns.append(draws.sample_count)
            return solve(task, draws)

        monkeypatch.setattr(moments, "_solve_parameter_sets", counting)
        result = propagate_loaded_inverter_moments(
            d25s, input_loads=2, output_loads=2
        )
        assert result.method == "sobol-quadrature"
        assert result.interaction_pairs > 0
        assert result.estimate("total").mean > 0.0
        # Each solved column is one loaded and one unloaded structure solve;
        # the interaction probes are solved once for both tables.
        assert 2 * sum(columns) == result.solve_count

    def test_quadrature_nodes_are_built_once(self, d25s):
        """The Sobol node set is cached read-only per (dimension, points,
        truncation): a repeated request returns the same array, and two
        propagations that share it agree bitwise."""
        moments._quadrature_nodes.cache_clear()
        nodes = moments._quadrature_nodes(8, 64, 3.0)
        assert moments._quadrature_nodes(8, 64, 3.0) is nodes
        assert not nodes.flags.writeable
        with pytest.raises(ValueError):
            nodes[0, 0] = 0.0
        first = propagate_loaded_inverter_moments(d25s, input_loads=2, output_loads=2)
        hits = moments._quadrature_nodes.cache_info().hits
        second = propagate_loaded_inverter_moments(d25s, input_loads=2, output_loads=2)
        assert first.method == "sobol-quadrature"
        assert moments._quadrature_nodes.cache_info().hits == hits + 1
        assert first.loaded == second.loaded
        assert first.unloaded == second.unloaded

    def test_moments_match_monte_carlo_oracle(self, d25s):
        moments = propagate_loaded_inverter_moments(
            d25s, input_loads=2, output_loads=2
        )
        oracle = run_loaded_inverter_monte_carlo(
            d25s,
            samples=256,
            rng=0,
            input_loads=2,
            output_loads=2,
            sampler="qmc",
        )
        for loaded in (True, False):
            values = oracle.values("total", loaded=loaded)
            estimate = moments.estimate("total", loaded=loaded)
            assert estimate.mean == pytest.approx(
                float(values.mean()), rel=0.15
            )
            assert estimate.std == pytest.approx(
                float(values.std(ddof=1)), rel=0.35
            )

    def test_to_table_renders(self, d25s):
        result = propagate_loaded_inverter_moments(
            d25s, spec=ONE_AXIS, input_loads=2, output_loads=2
        )
        table = result.to_table()
        assert "total" in table and "subthreshold" in table


@pytest.mark.slow
class TestSessionStatisticalLeakage:
    def test_query_and_population_cache(self, d25s):
        session = EstimationSession()
        kwargs = dict(
            samples=16,
            replicates=2,
            rng=0,
            input_loads=2,
            output_loads=2,
            bootstrap=50,
        )
        cold = session.percentile_leakage(d25s, percentile=99.0, **kwargs)
        assert not cold.population_cached
        assert cold.sampler == "qmc"
        assert cold.sample_count == 32
        assert cold.percentile.ci_low <= cold.percentile.value <= cold.percentile.ci_high
        assert cold.equivalent_mc_samples > 0.0

        warm = session.percentile_leakage(d25s, percentile=99.0, **kwargs)
        assert warm.population_cached
        assert warm.percentile == cold.percentile

        # A different percentile against the same population: no new solves.
        median = session.percentile_leakage(d25s, percentile=50.0, **kwargs)
        assert median.population_cached
        assert median.percentile.value <= cold.percentile.value

        stats = session.stats()["statistical_leakage"]
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_generator_and_unseeded_queries_are_not_cached(self, d25s):
        kwargs = dict(
            percentile=99.0,
            samples=8,
            replicates=2,
            input_loads=2,
            output_loads=2,
            bootstrap=50,
        )
        session = EstimationSession()
        generator = np.random.default_rng(11)
        session.percentile_leakage(d25s, rng=generator, **kwargs)
        # The first query spawned its replicate streams from the generator,
        # which advances it without changing its bit-generator state.
        second = session.percentile_leakage(d25s, rng=generator, **kwargs)
        assert not second.population_cached
        advanced = np.random.default_rng(11)
        advanced.spawn(kwargs["replicates"])
        fresh = EstimationSession().percentile_leakage(d25s, rng=advanced, **kwargs)
        assert second.percentile == fresh.percentile

        unseeded = [
            session.percentile_leakage(d25s, rng=None, **kwargs) for _ in range(2)
        ]
        assert not any(estimate.population_cached for estimate in unseeded)
        stats = session.stats()["statistical_leakage"]
        assert stats["entries"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 4

    def test_yield_estimate_present_with_limit(self, d25s):
        session = EstimationSession()
        estimate = session.percentile_leakage(
            d25s,
            percentile=50.0,
            samples=16,
            replicates=2,
            rng=0,
            input_loads=2,
            output_loads=2,
            bootstrap=50,
            limit=1.0,  # amperes: every inverter corner passes
        )
        assert estimate.yield_estimate is not None
        assert estimate.yield_estimate.fraction == pytest.approx(1.0)

    def test_validation(self, d25s):
        session = EstimationSession()
        with pytest.raises(ValueError, match="replicates"):
            session.percentile_leakage(d25s, replicates=1, samples=8)
        with pytest.raises(KeyError, match="component"):
            session.percentile_leakage(
                d25s,
                samples=8,
                replicates=2,
                input_loads=2,
                output_loads=2,
                bootstrap=20,
                component="dynamic",
            )
