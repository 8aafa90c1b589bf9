"""Process-variation analysis (Sec. 5.3 of the paper).

Random variation of channel length, oxide thickness, threshold voltage and
supply voltage spreads the leakage of every gate; the paper shows (Figs. 10
and 11) that considering the loading effect visibly reshapes those
distributions — most strongly for the subthreshold component — and inflates
the standard deviation of the total leakage.

* :mod:`repro.variation.spec` — the variation magnitudes (inter-die and
  intra-die) and the sampling of per-die / per-transistor parameter shifts;
* :mod:`repro.variation.montecarlo` — the Monte-Carlo driver that re-solves
  the loaded and unloaded inverter structures of Fig. 10 for every sample
  (``sampler="mc"|"qmc"``, ``on_nonconverged="warn"|"raise"|"drop"``);
* :mod:`repro.variation.qmc` — the scrambled-Sobol parameter sampler behind
  ``sampler="qmc"`` (variance-reduced, bitwise reproducible per seed);
* :mod:`repro.variation.moments` — analytic moment propagation through a
  characterized log-leakage response surface (the sampling-free fast path);
* :mod:`repro.variation.statistics` — distribution summaries, the
  loading-induced shift of the mean and standard deviation (Fig. 11), and
  the bootstrap percentile / yield / equivalent-sample-count estimators.
"""

from repro.variation.spec import InterDieSample, VariationSpec, apply_inter_die
from repro.variation.montecarlo import (
    NONCONVERGED_POLICIES,
    SAMPLERS,
    MonteCarloConvergenceWarning,
    MonteCarloResult,
    MonteCarloSample,
    run_loaded_inverter_monte_carlo,
)
from repro.variation.moments import (
    MomentEstimate,
    MomentsResult,
    propagate_loaded_inverter_moments,
)
from repro.variation.qmc import (
    ParameterDraws,
    SobolBalanceWarning,
    draw_qmc_parameters,
    sobol_standard_normal,
)
from repro.variation.statistics import (
    DistributionSummary,
    PercentileEstimate,
    YieldEstimate,
    equivalent_mc_samples,
    histogram,
    loading_shift_of_mean,
    loading_shift_of_std,
    lognormal_mean,
    lognormal_shift_of_mean,
    lognormal_shift_of_std,
    lognormal_std,
    percentile_leakage,
    summarize,
    yield_fraction,
)

__all__ = [
    "InterDieSample",
    "VariationSpec",
    "apply_inter_die",
    "NONCONVERGED_POLICIES",
    "SAMPLERS",
    "MonteCarloConvergenceWarning",
    "MonteCarloResult",
    "MonteCarloSample",
    "run_loaded_inverter_monte_carlo",
    "MomentEstimate",
    "MomentsResult",
    "propagate_loaded_inverter_moments",
    "ParameterDraws",
    "SobolBalanceWarning",
    "draw_qmc_parameters",
    "sobol_standard_normal",
    "DistributionSummary",
    "PercentileEstimate",
    "YieldEstimate",
    "equivalent_mc_samples",
    "histogram",
    "loading_shift_of_mean",
    "loading_shift_of_std",
    "lognormal_mean",
    "lognormal_shift_of_mean",
    "lognormal_shift_of_std",
    "lognormal_std",
    "percentile_leakage",
    "summarize",
    "yield_fraction",
]
