"""Fig. 10: leakage-component distributions with and without loading.

Under process variation (L, Tox, Vth, VDD), the paper runs a Monte-Carlo
study of an inverter with an input loading of 6 inverters and an output
loading of 6 inverters (input '0', output '1') and histograms each leakage
component with and without loading.  The loading visibly shifts the
subthreshold distribution upward while the gate and junction components
barely move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.params import TechnologyParams
from repro.device.presets import make_technology
from repro.spice.solver import SolverOptions
from repro.utils.rng import RngLike
from repro.utils.tables import format_table
from repro.variation.montecarlo import MonteCarloResult, run_loaded_inverter_monte_carlo
from repro.variation.spec import VariationSpec
from repro.variation.statistics import histogram, summarize

#: Components histogrammed by the figure.
FIG10_COMPONENTS = ("subthreshold", "gate", "btbt", "total")


@dataclass
class Fig10Result:
    """Monte-Carlo samples plus per-component distribution summaries."""

    monte_carlo: MonteCarloResult

    def histograms(
        self, component: str, bins: int = 20
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (counts_with_loading, counts_without, shared bin edges)."""
        loaded = self.monte_carlo.values(component, loaded=True)
        unloaded = self.monte_carlo.values(component, loaded=False)
        low = float(min(loaded.min(), unloaded.min()))
        high = float(max(loaded.max(), unloaded.max()))
        counts_loaded, edges = histogram(loaded, bins=bins, value_range=(low, high))
        counts_unloaded, _ = histogram(unloaded, bins=bins, value_range=(low, high))
        return counts_loaded, counts_unloaded, edges

    def to_table(self) -> str:
        """Render mean/std of each component with and without loading (nA)."""
        rows = []
        for component in FIG10_COMPONENTS:
            loaded = summarize(self.monte_carlo.values(component, loaded=True))
            unloaded = summarize(self.monte_carlo.values(component, loaded=False))
            rows.append(
                [
                    component,
                    unloaded.mean * 1e9,
                    loaded.mean * 1e9,
                    unloaded.std * 1e9,
                    loaded.std * 1e9,
                ]
            )
        return format_table(
            [
                "component",
                "mean no-load [nA]",
                "mean loaded [nA]",
                "std no-load [nA]",
                "std loaded [nA]",
            ],
            rows,
            title=(
                f"Fig. 10: inverter leakage distributions "
                f"({self.monte_carlo.sample_count} samples, "
                f"{self.monte_carlo.input_loads}+{self.monte_carlo.output_loads} loads)"
            ),
        )


def run_fig10_variation_histograms(
    technology: TechnologyParams | None = None,
    spec: VariationSpec | None = None,
    samples: int = 200,
    rng: RngLike = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    sampler: str = "mc",
    on_nonconverged: str = "warn",
    solver_options: SolverOptions | None = None,
) -> Fig10Result:
    """Run the Fig. 10 Monte-Carlo study (input '0', output '1').

    ``sampler`` picks the parameter sampler (``"mc"`` default, ``"qmc"``
    scrambled Sobol) and ``on_nonconverged`` the convergence policy, as in
    :func:`repro.variation.montecarlo.run_loaded_inverter_monte_carlo`.

    Raises ``ValueError`` when the recorded population is empty (every
    sample dropped as non-converged) — an empty Fig. 10 histogram is a
    configuration error, not data.
    """
    technology = technology or make_technology("d25-s")
    monte_carlo = run_loaded_inverter_monte_carlo(
        technology,
        spec=spec,
        samples=samples,
        rng=rng,
        input_value=0,
        input_loads=input_loads,
        output_loads=output_loads,
        sampler=sampler,
        on_nonconverged=on_nonconverged,
        solver_options=solver_options,
    )
    if monte_carlo.sample_count == 0:
        raise ValueError(
            f"Fig. 10 study with {input_loads}+{output_loads} loads has no "
            f"recorded samples: all {samples} Monte-Carlo samples were "
            "dropped as non-converged"
        )
    return Fig10Result(monte_carlo=monte_carlo)
