"""Fig. 7: loading effect of a 2-input NAND gate per input vector.

The paper sweeps the loading current at each NAND2 input pin and at the
output, for all four input vectors, and shows that

* input loading matters most when at least one input is '0' ('00', '01',
  '10'), because it acts on the subthreshold leakage of an off NMOS;
* with '00' the stacking effect mutes the response relative to '01'/'10';
* output loading is strongest when the output is '0' (vector '11');
* depending on the vector, loading can increase or decrease the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.loading import LoadingAnalyzer, LoadingEffect
from repro.device.params import TechnologyParams
from repro.device.presets import make_technology
from repro.gates.library import GateType, gate_spec
from repro.utils.tables import format_table

#: Default loading sweep (A), matching the paper's 0-3000 nA axis.
DEFAULT_LOADING_SWEEP_A = tuple(np.linspace(0.0, 3.0e-6, 5))


@dataclass
class NandVectorPanel:
    """Loading response of NAND2 for one input vector."""

    vector: tuple[int, int]
    loading_currents: list[float]
    input_a: list[LoadingEffect] = field(default_factory=list)
    input_b: list[LoadingEffect] = field(default_factory=list)
    output: list[LoadingEffect] = field(default_factory=list)

    @property
    def vector_label(self) -> str:
        """Return the vector as the paper prints it, e.g. ``"01"``."""
        return f"{self.vector[0]}{self.vector[1]}"

    def to_table(self) -> str:
        """Render LD of the total leakage for the three perturbed pins."""
        rows = []
        for idx, current in enumerate(self.loading_currents):
            rows.append(
                [
                    current * 1e9,
                    self.input_a[idx].total,
                    self.input_b[idx].total,
                    self.output[idx].total,
                ]
            )
        return format_table(
            ["loading [nA]", "LD input-1 [%]", "LD input-2 [%]", "LD output [%]"],
            rows,
            title=f"Fig. 7 NAND2 vector '{self.vector_label}'",
        )


@dataclass
class Fig7Result:
    """All four NAND2 vector panels."""

    panels: dict[str, NandVectorPanel]

    def panel(self, vector_label: str) -> NandVectorPanel:
        """Return the panel for a vector label such as ``"01"``."""
        return self.panels[vector_label]

    def to_table(self) -> str:
        """Render every panel."""
        return "\n\n".join(panel.to_table() for panel in self.panels.values())


def run_fig7_nand_vectors(
    technology: TechnologyParams | None = None,
    loading_currents: tuple[float, ...] = DEFAULT_LOADING_SWEEP_A,
) -> Fig7Result:
    """Sweep per-pin loading of NAND2 under all four input vectors."""
    technology = technology or make_technology("bulk-25nm")
    analyzer = LoadingAnalyzer(technology)
    currents = [float(x) for x in loading_currents]
    spec = gate_spec(GateType.NAND2)

    panels: dict[str, NandVectorPanel] = {}
    for vector in spec.all_vectors():
        panel = NandVectorPanel(vector=vector, loading_currents=currents)
        for current in currents:
            panel.input_a.append(
                analyzer.input_loading_effect(GateType.NAND2, vector, current, "a")
            )
            panel.input_b.append(
                analyzer.input_loading_effect(GateType.NAND2, vector, current, "b")
            )
            panel.output.append(
                analyzer.output_loading_effect(GateType.NAND2, vector, current)
            )
        panels[panel.vector_label] = panel
    return Fig7Result(panels=panels)
