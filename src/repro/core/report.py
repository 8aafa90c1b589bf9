"""Result containers for circuit-level leakage estimation.

Every estimation path (loading-aware, no-loading baseline, transistor-level
reference) produces the same :class:`CircuitLeakageReport` so experiments can
compare them uniformly — the comparisons *are* the paper's Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.spice.analysis import ComponentBreakdown

#: Component keys reported throughout the circuit-level experiments.
REPORT_COMPONENTS = ("subthreshold", "gate", "btbt", "total")


@dataclass(frozen=True)
class GateLeakage:
    """Per-gate leakage entry of a circuit report.

    Attributes
    ----------
    gate_name:
        The circuit's gate instance name.
    gate_type_name:
        Library gate-type name.
    vector:
        The gate's input vector under the applied primary-input assignment.
    breakdown:
        Leakage components of the gate.
    input_loading / output_loading:
        The summed loading currents (A) the estimator attributed to the
        gate's input pins and output net (zero for no-loading estimates).
    """

    gate_name: str
    gate_type_name: str
    vector: tuple[int, ...]
    breakdown: ComponentBreakdown
    input_loading: float = 0.0
    output_loading: float = 0.0


@dataclass
class CircuitLeakageReport:
    """Leakage of one circuit under one primary-input assignment.

    Attributes
    ----------
    circuit_name:
        Name of the analyzed circuit.
    method:
        Which path produced the report (``loading-aware``, ``no-loading`` or
        ``reference``).
    input_assignment:
        The applied primary-input values.
    per_gate:
        Per-gate entries keyed by gate name.
    temperature_k / vdd:
        Conditions of the analysis.
    metadata:
        Free-form extras (solver statistics, runtimes, ...).
    """

    circuit_name: str
    method: str
    input_assignment: dict[str, int]
    per_gate: dict[str, GateLeakage]
    temperature_k: float
    vdd: float
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def components(self) -> ComponentBreakdown:
        """Return the circuit-level component totals."""
        total = ComponentBreakdown()
        for entry in self.per_gate.values():
            total = total + entry.breakdown
        return total

    @property
    def total(self) -> float:
        """Return the total circuit leakage current in amperes."""
        return self.components.total

    def component(self, name: str) -> float:
        """Return one circuit-level component (or the total) in amperes."""
        return self.components.component(name)

    def gate_count(self) -> int:
        """Return the number of gates covered by the report."""
        return len(self.per_gate)

    def percent_difference(self, reference: "CircuitLeakageReport") -> dict[str, float]:
        """Return per-component percent difference of this report vs ``reference``.

        Positive values mean this report's leakage is higher.  Components
        that are zero in the reference map to 0 % to keep campaign statistics
        finite (this only happens in degenerate single-gate circuits).
        """
        result: dict[str, float] = {}
        mine = self.components
        theirs = reference.components
        for name in REPORT_COMPONENTS:
            ref_value = theirs.component(name)
            if ref_value == 0.0:
                result[name] = 0.0
            else:
                result[name] = 100.0 * (mine.component(name) - ref_value) / ref_value
        return result
