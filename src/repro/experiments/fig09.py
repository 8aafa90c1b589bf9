"""Fig. 9: impact of temperature on the overall loading effect.

The gate tunneling that *causes* loading barely changes with temperature, but
its *effect* — the subthreshold and junction currents of the loaded gate —
grows quickly.  The paper's Fig. 9 therefore shows the subthreshold LD_ALL of
an inverter (input '0') rising steeply with temperature while the gate and
BTBT components move the other way, leaving the total only mildly affected.

The experiment reproduces that by re-running the LD_ALL evaluation of the
inverter at a sweep of temperatures with a loading configuration
representative of a fanout of a few gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.loading import LoadingAnalyzer, LoadingEffect
from repro.device.params import TechnologyParams
from repro.device.presets import make_technology
from repro.gates.library import GateType
from repro.utils.tables import format_table
from repro.utils.units import celsius_to_kelvin

#: Default temperature sweep in Celsius, matching the paper's 0-150 C axis.
DEFAULT_TEMPERATURES_C = (0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0)


@dataclass
class Fig9Result:
    """LD_ALL of each component versus temperature."""

    temperatures_c: list[float]
    input_loading: float
    output_loading: float
    effects: list[LoadingEffect] = field(default_factory=list)

    def component_series(self, name: str) -> list[float]:
        """Return one component's LD_ALL along the temperature sweep."""
        return [effect.component(name) for effect in self.effects]

    def to_table(self) -> str:
        """Render the temperature sweep."""
        rows = [
            [
                temperature,
                effect.subthreshold,
                effect.gate,
                effect.btbt,
                effect.total,
            ]
            for temperature, effect in zip(self.temperatures_c, self.effects)
        ]
        return format_table(
            ["T [C]", "LD sub [%]", "LD gate [%]", "LD btbt [%]", "LD total [%]"],
            rows,
            title=(
                f"Fig. 9: LD_ALL vs. temperature "
                f"(IL-IN={self.input_loading * 1e9:.0f} nA, "
                f"IL-OUT={self.output_loading * 1e9:.0f} nA)"
            ),
        )


def run_fig9_temperature(
    technology: TechnologyParams | None = None,
    temperatures_c: tuple[float, ...] = DEFAULT_TEMPERATURES_C,
    input_loading: float = 1.5e-6,
    output_loading: float = 1.5e-6,
    vector: tuple[int, ...] = (0,),
) -> Fig9Result:
    """Evaluate LD_ALL of an inverter across temperature."""
    technology = technology or make_technology("bulk-25nm")
    result = Fig9Result(
        temperatures_c=[float(t) for t in temperatures_c],
        input_loading=float(input_loading),
        output_loading=float(output_loading),
    )
    for temperature_c in result.temperatures_c:
        analyzer = LoadingAnalyzer(
            technology, temperature_k=celsius_to_kelvin(temperature_c)
        )
        effect = analyzer.overall_loading_effect(
            GateType.INV, vector, input_loading, output_loading
        )
        result.effects.append(effect)
    return result
