"""Netlist linting entry points and the pre-flight policy.

:func:`lint_circuit` runs every circuit-scope rule of
:mod:`repro.analysis.rules` and returns a :class:`LintReport`;
:func:`lint_vectors` and :func:`lint_flattened` cover the vector-set and
flattened-transistor scopes.  :func:`preflight_circuit` is the policy knob
the numeric entry points (`engine/compile.py`, `core/reference.py`,
`core/vectors.py`, `optimize/objective.py`) call before touching a solver:

* ``lint="raise"`` (default) — error findings raise
  :class:`NetlistLintError` carrying the full report; warning findings are
  emitted as :class:`NetlistLintWarning` warnings.
* ``lint="warn"`` — every finding (errors included) becomes a warning; the
  computation proceeds.  For callers that knowingly process odd netlists.
* ``lint="off"`` — no linting at all (the pre-PR-6 behavior).

The point of the pre-flight is to move failure to the edge: a floating net
or combinational loop is reported in milliseconds with every finding named,
instead of surfacing as a ``KeyError`` deep inside logic propagation or a
non-converging 30-second DC solve.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.analysis.diagnostics import Diagnostic, LintReport, Location, Severity
from repro.analysis.rules import CIRCUIT_RULES, Rule, vector_diagnostics
from repro.circuit.netlist import Circuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.circuit.flatten import FlattenedCircuit

#: Accepted values of the ``lint=`` pre-flight knob.
LINT_POLICIES = ("raise", "warn", "off")


class NetlistLintError(ValueError):
    """Raised by the pre-flight when a circuit has error-severity findings.

    Subclasses ``ValueError`` so callers that guarded the old
    ``Circuit.validate`` failures keep working; :attr:`report` carries the
    full structured :class:`LintReport`.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        errors = report.errors
        shown = "; ".join(str(d) for d in errors[:5])
        if len(errors) > 5:
            shown += f"; ... ({len(errors) - 5} more)"
        super().__init__(
            f"netlist lint failed for {report.subject!r} with "
            f"{len(errors)} error(s): {shown}"
        )


class NetlistLintWarning(UserWarning):
    """Warning category of non-fatal (or policy-downgraded) lint findings."""


def lint_circuit(circuit: Circuit, rules: Iterable[str] | None = None) -> LintReport:
    """Run the circuit-scope lint rules over ``circuit``.

    Parameters
    ----------
    circuit:
        The gate-level circuit to check.
    rules:
        Optional iterable of rule codes to restrict the run (unknown codes
        raise ``KeyError``); default runs every circuit-scope rule.
    """
    selected = _select_rules(rules)
    report = LintReport(subject=circuit.name)
    for rule in selected:
        if rule.check is not None:
            report.extend(rule.check(circuit))
    return report


def _select_rules(rules: Iterable[str] | None) -> tuple[Rule, ...]:
    if rules is None:
        return CIRCUIT_RULES
    wanted = list(rules)
    by_code = {rule.code: rule for rule in CIRCUIT_RULES}
    unknown = [code for code in wanted if code not in by_code]
    if unknown:
        raise KeyError(
            f"unknown circuit lint rule(s) {unknown}; "
            f"available: {sorted(by_code)}"
        )
    return tuple(by_code[code] for code in wanted)


def lint_vectors(
    circuit: Circuit, assignments: Sequence[Mapping[str, object]]
) -> LintReport:
    """Check a vector set against ``circuit``'s primary inputs (NL007)."""
    report = LintReport(subject=f"{circuit.name} vectors")
    report.extend(vector_diagnostics(circuit, assignments))
    return report


def lint_flattened(flattened: "FlattenedCircuit") -> LintReport:
    """Check a flattened transistor netlist (NL009 dangling nodes).

    A free node attached to fewer than two device terminals cannot satisfy
    KCL non-trivially: with one terminal the node current has a single
    contributor and the solve is degenerate; with zero it is fully floating.
    Both indicate a miswired transistor template.
    """
    report = LintReport(subject=f"{flattened.circuit.name} (flattened)")
    netlist = flattened.netlist
    attachments: dict[str, int] = {}
    for transistor in netlist.transistors:
        for _, node in transistor.terminals():
            attachments[node] = attachments.get(node, 0) + 1
    for name in netlist.free_nodes():
        count = attachments.get(name, 0)
        if count < 2:
            report.extend(
                [
                    Diagnostic(
                        rule="NL009",
                        severity=Severity.WARNING,
                        message=(
                            f"free node {name!r} is attached to {count} "
                            "device terminal(s); its DC solve is degenerate"
                        ),
                        location=Location(net=name),
                        hint="check the transistor template that created it",
                    )
                ]
            )
    return report


def preflight_circuit(
    circuit: Circuit,
    lint: str = "raise",
    vectors: Sequence[Mapping[str, object]] | None = None,
) -> LintReport | None:
    """Apply the lint policy to ``circuit`` (and optionally a vector set).

    Returns the :class:`LintReport` (None under ``lint="off"``).  Under
    ``"raise"`` error findings raise :class:`NetlistLintError` and warning
    findings warn; under ``"warn"`` everything warns.
    """
    if lint not in LINT_POLICIES:
        raise ValueError(f"lint must be one of {LINT_POLICIES}, got {lint!r}")
    if lint == "off":
        return None
    report = lint_circuit(circuit)
    if vectors is not None:
        report.extend(lint_vectors(circuit, vectors).diagnostics)
    if lint == "raise" and not report.ok:
        raise NetlistLintError(report)
    for diagnostic in report.diagnostics:
        if lint == "warn" or diagnostic.severity is not Severity.ERROR:
            warnings.warn(str(diagnostic), NetlistLintWarning, stacklevel=3)
    return report

