"""Static netlist analysis: lint rules, diagnostics and pre-flight policy.

The paper's leakage numbers are only meaningful on well-formed netlists.
This package is the gate that enforces it:

* :mod:`repro.analysis.diagnostics` — structured :class:`Diagnostic` /
  :class:`LintReport` records with stable rule codes;
* :mod:`repro.analysis.rules` — the rule registry (``NL001 floating-net``
  ... ``NL100 bench-parse-error``);
* :mod:`repro.analysis.netlist_lint` — :func:`lint_circuit` /
  :func:`lint_vectors` / :func:`lint_flattened` and the
  :func:`preflight_circuit` policy (``lint="raise"|"warn"|"off"``) wired
  into the compile/reference/campaign entry points;
* :mod:`repro.analysis.bench_lint` — ``.bench`` file linting;
* ``python -m repro.analysis`` — the CLI (text/JSON output, CI-friendly
  exit codes, ``--self-check`` over the built-in benchmark circuits).
"""

from repro.analysis.bench_lint import lint_bench_file, lint_bench_text
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    Severity,
    merge_reports,
)
from repro.analysis.netlist_lint import (
    LINT_POLICIES,
    NetlistLintError,
    NetlistLintWarning,
    lint_circuit,
    lint_flattened,
    lint_vectors,
    preflight_circuit,
)
from repro.analysis.rules import CIRCUIT_RULES, RULES, RULES_BY_CODE, Rule

__all__ = [
    "CIRCUIT_RULES",
    "Diagnostic",
    "LINT_POLICIES",
    "LintReport",
    "Location",
    "NetlistLintError",
    "NetlistLintWarning",
    "RULES",
    "RULES_BY_CODE",
    "Rule",
    "Severity",
    "lint_bench_file",
    "lint_bench_text",
    "lint_circuit",
    "lint_flattened",
    "lint_vectors",
    "merge_reports",
    "preflight_circuit",
]
