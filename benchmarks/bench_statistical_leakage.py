"""Statistical-leakage benchmark: variance reduction, measured honestly.

Three recorded claims about the Fig. 11 std-shift statistic (the percent
change of the total-leakage standard deviation under loading, at
sigma_Vt(inter) = 50 mV):

* **Sampler alone is not enough.**  Scrambled-Sobol QMC against plain MC
  with the *same* empirical estimator buys only a modest factor — the
  statistic is a paired ratio of tail-weighted second moments, and its
  replicate error is dominated by the few extreme corners a sample set
  happens to contain, which equidistribution cannot smooth.  The measured
  factor is recorded, not asserted.
* **Sampler + estimator clears the bar.**  The shipped variance-reduced
  path — QMC draws scored by the moment-matched lognormal plug-in
  (:func:`~repro.variation.statistics.lognormal_shift_of_std`, a smooth
  function of light-tailed log-domain averages) — must reach
  ``>= 10x`` effective sample efficiency versus the MC + empirical
  baseline at equal budget, RMSE-measured against a large-sample
  empirical reference so the plug-in's model-bias floor is charged
  against it.
* **Moments beat sampling on wall clock.**  The moment-propagation fast
  path must agree with a large QMC oracle within recorded tolerance bars
  (mean <= 10 %, std <= 25 % — never relaxed) at a fraction of the solves.

Records ``benchmarks/statistical_leakage.json`` (override with
``STATLEAK_BENCH_JSON``).  Environment knobs for smoke runs:
``STATLEAK_BENCH_SAMPLES``, ``STATLEAK_BENCH_REPLICATES``,
``STATLEAK_BENCH_REFERENCE``, ``STATLEAK_BENCH_ORACLE`` and
``STATLEAK_BENCH_MIN_EFFICIENCY`` (tiny budgets make the efficiency
measurement itself noisy; the agreement bars are never relaxed).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.utils.rng import spawn_streams
from repro.variation.moments import propagate_loaded_inverter_moments
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo
from repro.variation.spec import VariationSpec
from repro.variation.statistics import (
    equivalent_mc_samples,
    loading_shift_of_std,
    lognormal_shift_of_std,
)

SEED = 2005
REFERENCE_SEED = 31337
ORACLE_SEED = 424242
SIGMA_VTH_INTER_V = 0.050

SAMPLES = int(os.environ.get("STATLEAK_BENCH_SAMPLES", "256"))
REPLICATES = int(os.environ.get("STATLEAK_BENCH_REPLICATES", "24"))
REFERENCE_SAMPLES = int(os.environ.get("STATLEAK_BENCH_REFERENCE", "16384"))
ORACLE_SAMPLES = int(os.environ.get("STATLEAK_BENCH_ORACLE", "4096"))

#: Acceptance floor on the variance-reduced path (QMC + lognormal plug-in
#: vs MC + empirical, RMSE at equal budget).  Smoke runs may relax it —
#: at tiny replicate counts the efficiency *measurement* is noisy — but
#: the moments-agreement bars below are never relaxed.
MIN_EFFICIENCY = float(os.environ.get("STATLEAK_BENCH_MIN_EFFICIENCY", "10.0"))

#: Moments-vs-oracle agreement bars, never relaxed.
MEAN_ERROR_BAR = 0.10
STD_ERROR_BAR = 0.25


def _json_path() -> Path:
    override = os.environ.get("STATLEAK_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "statistical_leakage.json"


def _totals(run):
    return run.values("total", loaded=True), run.values("total", loaded=False)


def _rmse(estimates, truth: float) -> float:
    estimates = np.asarray(estimates, dtype=float)
    return float(np.sqrt(np.mean((estimates - truth) ** 2)))


def _log_std(block: np.ndarray, axis: int) -> np.ndarray:
    return np.std(np.log(block), axis=axis, ddof=1)


def test_statistical_leakage_variance_reduction(benchmark, d25s):
    spec = VariationSpec().with_vth_inter_sigma(SIGMA_VTH_INTER_V)

    def measure():
        timings: dict[str, float] = {}

        # -- large-sample empirical reference (the "truth" every RMSE is
        # charged against; QMC so the reference itself is as tight as the
        # budget allows).
        start = time.perf_counter()
        reference = run_loaded_inverter_monte_carlo(
            d25s,
            spec=spec,
            samples=REFERENCE_SAMPLES,
            rng=REFERENCE_SEED,
            sampler="qmc",
        )
        timings["reference"] = time.perf_counter() - start
        ref_loaded, ref_unloaded = _totals(reference)
        truth = loading_shift_of_std(ref_loaded, ref_unloaded)
        plugin_truth = lognormal_shift_of_std(ref_loaded, ref_unloaded)

        # -- equal-budget replicates, both samplers, both estimators.
        shifts: dict[tuple[str, str], list[float]] = {}
        pooled_qmc: list[np.ndarray] = []
        start = time.perf_counter()
        for sampler in ("mc", "qmc"):
            for stream in spawn_streams(SEED, REPLICATES):
                run = run_loaded_inverter_monte_carlo(
                    d25s,
                    spec=spec,
                    samples=SAMPLES,
                    rng=stream,
                    sampler=sampler,
                )
                loaded, unloaded = _totals(run)
                shifts.setdefault((sampler, "empirical"), []).append(
                    loading_shift_of_std(loaded, unloaded)
                )
                shifts.setdefault((sampler, "lognormal"), []).append(
                    lognormal_shift_of_std(loaded, unloaded)
                )
                if sampler == "qmc":
                    pooled_qmc.append(loaded)
        timings["replicates"] = time.perf_counter() - start

        # The honest side metric: how many plain-MC samples the pooled
        # QMC population is worth for the (smooth) log-domain std.
        equivalent = equivalent_mc_samples(
            np.concatenate(pooled_qmc),
            np.array([_log_std(block, axis=0) for block in pooled_qmc]),
            statistic=_log_std,
            rng=0,
        )

        # -- moment propagation vs its Monte-Carlo oracle (default spec:
        # the pairwise-interaction probes stay on positive leakage there).
        start = time.perf_counter()
        oracle = run_loaded_inverter_monte_carlo(
            d25s, samples=ORACLE_SAMPLES, rng=ORACLE_SEED, sampler="qmc"
        )
        timings["oracle"] = time.perf_counter() - start
        start = time.perf_counter()
        moments = propagate_loaded_inverter_moments(d25s)
        timings["moments"] = time.perf_counter() - start

        return truth, plugin_truth, shifts, equivalent, oracle, moments, timings

    truth, plugin_truth, shifts, equivalent, oracle, moments, timings = run_once(
        benchmark, measure
    )

    rmse = {
        f"rmse_{sampler}_{estimator}": _rmse(values, truth)
        for (sampler, estimator), values in shifts.items()
    }
    efficiency_sampler = (
        rmse["rmse_mc_empirical"] / rmse["rmse_qmc_empirical"]
    ) ** 2
    efficiency_reduced = (
        rmse["rmse_mc_empirical"] / rmse["rmse_qmc_lognormal"]
    ) ** 2

    moment_errors = {}
    for loaded in (True, False):
        key = "loaded" if loaded else "unloaded"
        values = oracle.values("total", loaded=loaded)
        estimate = moments.estimate("total", loaded=loaded)
        moment_errors[f"{key}_mean_error"] = abs(
            estimate.mean / float(values.mean()) - 1.0
        )
        moment_errors[f"{key}_std_error"] = abs(
            estimate.std / float(values.std(ddof=1)) - 1.0
        )
    moments_speedup = (
        timings["oracle"] / timings["moments"] if timings["moments"] > 0 else float("nan")
    )

    record = {
        "seed": SEED,
        "sigma_vth_inter_v": SIGMA_VTH_INTER_V,
        "samples_per_replicate": SAMPLES,
        "replicates": REPLICATES,
        "reference_samples": REFERENCE_SAMPLES,
        "min_efficiency_bar": MIN_EFFICIENCY,
        "reference": {
            "std_shift_percent": truth,
            "lognormal_std_shift_percent": plugin_truth,
            "lognormal_bias_percent": plugin_truth - truth,
            "seconds": timings["reference"],
        },
        "std_shift": {
            **rmse,
            "efficiency_qmc_empirical": efficiency_sampler,
            "efficiency_variance_reduced": efficiency_reduced,
        },
        "equivalent_mc_samples_log_std": equivalent,
        "moments": {
            "oracle_samples": ORACLE_SAMPLES,
            "method": moments.method,
            "solve_count": moments.solve_count,
            "interaction_pairs": moments.interaction_pairs,
            "seconds": timings["moments"],
            "speedup_vs_oracle": moments_speedup,
            "mean_error_bar": MEAN_ERROR_BAR,
            "std_error_bar": STD_ERROR_BAR,
            **moment_errors,
        },
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"std-shift RMSE at {SAMPLES}x{REPLICATES}: "
        f"mc+empirical {rmse['rmse_mc_empirical']:.2f} -> "
        f"qmc+empirical {rmse['rmse_qmc_empirical']:.2f} "
        f"({efficiency_sampler:.1f}x), qmc+lognormal "
        f"{rmse['rmse_qmc_lognormal']:.2f} ({efficiency_reduced:.1f}x); "
        f"moments {moments.solve_count} solves vs {ORACLE_SAMPLES}-sample "
        f"oracle: {moments_speedup:.0f}x faster, total std within "
        f"{100 * max(moment_errors['loaded_std_error'], moment_errors['unloaded_std_error']):.0f}% "
        f"({path})"
    )

    # Agreement bars — never relaxed.
    for key, error in moment_errors.items():
        bar = MEAN_ERROR_BAR if "mean" in key else STD_ERROR_BAR
        assert error <= bar, (
            f"moment propagation disagrees with the oracle: {key} "
            f"{error:.3f} > {bar}"
        )
    # The variance-reduced path must be worth the recorded factor.
    assert efficiency_reduced >= MIN_EFFICIENCY, (
        f"variance-reduced efficiency {efficiency_reduced:.1f}x below the "
        f"{MIN_EFFICIENCY}x bar"
    )
