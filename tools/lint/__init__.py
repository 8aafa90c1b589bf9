"""Custom AST checkers encoding this repository's coding contracts.

These are the machine-checked versions of rules that used to live only in
review comments and test suites: RNG discipline (all generator construction
goes through ``repro.utils.rng``), determinism discipline (no iteration over
unordered sets feeding fan-out/reduction code), device-model discipline
(every ``*_grad_v`` Jacobian twin has a same-module value function) and
numeric-precision discipline (no silent float32 downcasts in the
``device``/``spice``/``gates``/``engine`` numerics).

Run them with ``python tools/lint/check_contracts.py src`` (the CI lint job
does exactly that and fails on any violation).
"""

from lint.contracts import (
    CHECKERS,
    CheckerSpec,
    Violation,
    check_file,
    check_source,
    check_tree,
)

__all__ = [
    "CHECKERS",
    "CheckerSpec",
    "Violation",
    "check_file",
    "check_source",
    "check_tree",
]
