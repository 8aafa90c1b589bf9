"""AST contract checkers.

Each checker encodes one repository contract as a static check over Python
source (stdlib ``ast`` only — no third-party dependency, so the suite runs
in every environment the tests run in):

``RC101 rng-construction-outside-rng-module``
    ``numpy.random`` generators are constructed in exactly one place,
    :mod:`repro.utils.rng` (``ensure_rng`` / ``spawn_streams`` /
    ``keyed_rng`` are the entry points).  Constructing a generator
    anywhere else forks the seeding discipline that makes campaigns and
    Monte-Carlo runs bitwise reproducible.

``RC102 global-or-time-seeded-rng``
    No calls to the global-state ``numpy.random.*`` / stdlib ``random.*``
    distribution functions (hidden process-wide state), and no RNG seeded
    from wall-clock time — both break run-to-run reproducibility silently.

``RC103 missing-value-twin``
    Every ``*_grad_v`` analytic-Jacobian device function must have a
    same-module value twin (``foo_grad_v`` next to ``foo``), so the
    finite-difference cross-checks in the tests always have both halves.

``RC104 unordered-set-iteration``
    No iteration over ``set``/``frozenset`` expressions feeding
    order-sensitive sinks (loops, ``sum``, ``list``, ``join``, executor
    fan-out): float reductions in set order are nondeterministic across
    runs because ``PYTHONHASHSEED`` perturbs string hashing.  Wrap in
    ``sorted(...)`` to fix.  (Dict iteration is insertion-ordered and
    therefore allowed.)

``RC105 float-downcast``
    No float32/float16 dtypes in the ``device``/``spice`` numerics: leakage
    component magnitudes span ~1e-12..1e-5 A and the solver tolerances sit
    at 1e-11 V, far below float32 resolution.

``RC106 swallowed-failure``
    In the execution-critical paths (``engine/``, ``service/``,
    ``resilience/``) no broad exception handler — bare ``except``,
    ``except Exception``/``BaseException``, or any handler catching
    ``BrokenProcessPool`` — may silently discard the failure (a body of
    only ``pass``/``continue``/docstring).  A swallowed worker death or
    batch error turns a recoverable fault into silently wrong or hanging
    results; handle it (retry, release waiters, degrade) or re-raise.

``RC107 oracle-import-in-production``
    Nothing under ``src/repro/`` imports :mod:`repro.oracle`.  The
    per-item oracles there exist so tests and benchmarks can hold the
    production solve paths to them; a production import would turn an
    oracle back into a second solve path.

A violating line can be suppressed with a trailing
``# contract: allow(RC104)`` comment naming the code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: numpy.random generator/bit-generator constructors (RC101).
_RNG_CONSTRUCTORS = frozenset(
    f"numpy.random.{name}"
    for name in (
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    )
)

#: Global-state RNG entry points (RC102): process-wide hidden state.
_GLOBAL_STATE_RNG = frozenset(
    f"numpy.random.{name}"
    for name in (
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "normal",
        "standard_normal",
        "uniform",
        "choice",
        "shuffle",
        "permutation",
        "beta",
        "binomial",
        "exponential",
        "gamma",
        "lognormal",
        "poisson",
    )
) | frozenset(
    f"random.{name}"
    for name in (
        "seed",
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
    )
)

#: Wall-clock sources that must never seed an RNG (RC102).
_TIME_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

#: Order-sensitive sinks whose arguments must not be set expressions (RC104).
_ORDER_SENSITIVE_CALLS = frozenset(
    {"enumerate", "zip", "sum", "list", "tuple", "map", "reversed"}
)

#: Order-sensitive *method* names (``", ".join(...)``, ``executor.map``).
_ORDER_SENSITIVE_METHODS = frozenset({"join", "map"})

#: Banned reduced-precision float dtypes (RC105).
_DOWNCAST_DTYPES = frozenset(
    {"numpy.float32", "numpy.float16", "numpy.half", "numpy.single"}
)
_DOWNCAST_STRINGS = frozenset({"float32", "float16", "f4", "f2", "half", "single"})

_ALLOW_RE = re.compile(r"#\s*contract:\s*allow\(([A-Z0-9, ]+)\)")


@dataclass(frozen=True)
class Violation:
    """One contract violation: code, message and source location."""

    code: str
    message: str
    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
        }


@dataclass(frozen=True)
class CheckerSpec:
    """Registry entry of one contract checker."""

    code: str
    slug: str
    description: str
    applies: Callable[[str], bool]
    run: Callable[[ast.Module, dict[str, str], str], list[Violation]]


# --------------------------------------------------------------------- #
# name resolution through import aliases
# --------------------------------------------------------------------- #
def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module path they alias.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from numpy.random
    import default_rng as mk`` -> ``{"mk": "numpy.random.default_rng"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _dotted(node: ast.AST) -> str | None:
    """Return the dotted source text of a Name/Attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve(aliases: dict[str, str], node: ast.AST) -> str | None:
    """Resolve a Name/Attribute chain through the module's import aliases."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    full = aliases.get(head, head)
    return f"{full}.{rest}" if rest else full


def _calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# --------------------------------------------------------------------- #
# RC101 — RNG construction outside utils/rng.py
# --------------------------------------------------------------------- #
def _is_rng_module(path: str) -> bool:
    return Path(path).as_posix().endswith("utils/rng.py")


def check_rng_construction(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []
    for call in _calls(tree):
        resolved = _resolve(aliases, call.func)
        if resolved in _RNG_CONSTRUCTORS:
            violations.append(
                Violation(
                    code="RC101",
                    message=(
                        f"{resolved} constructed outside repro/utils/rng.py; "
                        "route through ensure_rng()/spawn_streams()"
                    ),
                    path=path,
                    line=call.lineno,
                )
            )
    return violations


# --------------------------------------------------------------------- #
# RC102 — global-state or time-seeded RNG
# --------------------------------------------------------------------- #
def check_global_or_time_seeded_rng(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []
    for call in _calls(tree):
        resolved = _resolve(aliases, call.func)
        if resolved in _GLOBAL_STATE_RNG:
            violations.append(
                Violation(
                    code="RC102",
                    message=(
                        f"{resolved} uses hidden process-global RNG state; "
                        "take an explicit numpy Generator instead"
                    ),
                    path=path,
                    line=call.lineno,
                )
            )
            continue
        if resolved in _RNG_CONSTRUCTORS or resolved in (
            "repro.utils.rng.ensure_rng",
            "ensure_rng",
        ):
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and _resolve(aliases, sub.func) in _TIME_SOURCES
                    ):
                        violations.append(
                            Violation(
                                code="RC102",
                                message=(
                                    "RNG seeded from wall-clock time; runs "
                                    "become unreproducible — pass an "
                                    "explicit seed"
                                ),
                                path=path,
                                line=call.lineno,
                            )
                        )
    return violations


# --------------------------------------------------------------------- #
# RC103 — *_grad_v without a same-module value twin
# --------------------------------------------------------------------- #
def check_grad_value_twins(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    functions: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node.lineno)
    violations = []
    for name, lineno in sorted(functions.items(), key=lambda item: item[1]):
        if name.endswith("_grad_v"):
            twin = name[: -len("_grad_v")]
            if twin not in functions:
                violations.append(
                    Violation(
                        code="RC103",
                        message=(
                            f"gradient function {name!r} has no same-module "
                            f"value twin {twin!r} (needed by the "
                            "finite-difference cross-checks)"
                        ),
                        path=path,
                        line=lineno,
                    )
                )
    return violations


# --------------------------------------------------------------------- #
# RC104 — set iteration feeding order-sensitive code
# --------------------------------------------------------------------- #
def _is_set_expression(aliases: dict[str, str], node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        resolved = _resolve(aliases, node.func)
        return resolved in ("set", "frozenset")
    return False


def check_unordered_set_iteration(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []

    def flag(node: ast.AST, context: str) -> None:
        violations.append(
            Violation(
                code="RC104",
                message=(
                    f"set expression {context}: iteration order is "
                    "hash-seed dependent; wrap in sorted(...) for a "
                    "deterministic order"
                ),
                path=path,
                line=getattr(node, "lineno", 0),
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expression(aliases, node.iter):
                flag(node.iter, "iterated by a for loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expression(aliases, generator.iter):
                    flag(generator.iter, "iterated by a comprehension")
        elif isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            method = (
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            )
            if name in _ORDER_SENSITIVE_CALLS or method in _ORDER_SENSITIVE_METHODS:
                sink = name or f".{method}"
                for arg in node.args:
                    if _is_set_expression(aliases, arg):
                        flag(arg, f"fed to order-sensitive {sink}(...)")
    return violations


# --------------------------------------------------------------------- #
# RC105 — float32/float16 downcasts in the numerics
# --------------------------------------------------------------------- #
def _is_numerics_path(path: str) -> bool:
    posix = Path(path).as_posix()
    return "/device/" in posix or "/spice/" in posix


def check_float_downcasts(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []

    def flag(node: ast.AST, what: str) -> None:
        violations.append(
            Violation(
                code="RC105",
                message=(
                    f"{what} in device/spice numerics; leakage magnitudes "
                    "and solver tolerances need float64"
                ),
                path=path,
                line=getattr(node, "lineno", 0),
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolved = _resolve(aliases, node)
            if resolved in _DOWNCAST_DTYPES:
                flag(node, f"{resolved} dtype")
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in _DOWNCAST_STRINGS
            ):
                flag(node, f"astype({node.args[0].value!r}) downcast")
            for keyword in node.keywords:
                if (
                    keyword.arg == "dtype"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value in _DOWNCAST_STRINGS
                ):
                    flag(keyword.value, f"dtype={keyword.value.value!r} downcast")
    return violations


# --------------------------------------------------------------------- #
# RC106 — silently swallowed failures in execution-critical paths
# --------------------------------------------------------------------- #

#: Exception names a handler must never both catch broadly and discard.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})
_POOL_EXCEPTIONS = frozenset(
    {
        "BrokenProcessPool",
        "concurrent.futures.process.BrokenProcessPool",
        "concurrent.futures.BrokenExecutor",
        "BrokenExecutor",
    }
)


def _is_resilient_path(path: str) -> bool:
    posix = Path(path).as_posix()
    return any(
        part in posix for part in ("/engine/", "/service/", "/resilience/")
    )


def _handler_exception_names(
    aliases: dict[str, str], handler: ast.ExceptHandler
) -> list[str]:
    """Return the resolved dotted names a handler catches ('' for bare)."""
    if handler.type is None:
        return [""]
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for node in types:
        resolved = _resolve(aliases, node)
        if resolved is not None:
            names.append(resolved)
    return names


def _is_trivial_body(body: list[ast.stmt]) -> bool:
    """True when a handler body discards the failure without acting on it."""
    return all(
        isinstance(stmt, (ast.Pass, ast.Continue))
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


def check_swallowed_failures(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _handler_exception_names(aliases, node)
        broad = any(
            name == "" or name in _BROAD_EXCEPTIONS or name in _POOL_EXCEPTIONS
            for name in names
        )
        if broad and _is_trivial_body(node.body):
            caught = ", ".join(name or "<bare>" for name in names)
            violations.append(
                Violation(
                    code="RC106",
                    message=(
                        f"broad exception handler ({caught}) silently "
                        "discards the failure in an execution-critical "
                        "path; handle it (retry, release waiters, degrade) "
                        "or re-raise"
                    ),
                    path=path,
                    line=node.lineno,
                )
            )
    return violations


# --------------------------------------------------------------------- #
# RC107 — repro.oracle imported by production code
# --------------------------------------------------------------------- #
_ORACLE_MODULE = "repro.oracle"


def _is_production_path(path: str) -> bool:
    posix = Path(path).as_posix()
    return posix.startswith("src/repro/") or "/src/repro/" in posix


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Return the modules (and ``from`` members) an absolute import names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def check_oracle_imports(
    tree: ast.Module, aliases: dict[str, str], path: str
) -> list[Violation]:
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(
            module == _ORACLE_MODULE or module.startswith(_ORACLE_MODULE + ".")
            for module in _imported_modules(node)
        ):
            violations.append(
                Violation(
                    code="RC107",
                    message=(
                        "repro.oracle imported by production code; the "
                        "per-item oracles are for tests and benchmarks only"
                    ),
                    path=path,
                    line=node.lineno,
                )
            )
    return violations


#: The checker registry.  Codes are stable; tooling and tests key on them.
CHECKERS: tuple[CheckerSpec, ...] = (
    CheckerSpec(
        code="RC101",
        slug="rng-construction-outside-rng-module",
        description="numpy.random generators are built only in utils/rng.py.",
        applies=lambda path: not _is_rng_module(path),
        run=check_rng_construction,
    ),
    CheckerSpec(
        code="RC102",
        slug="global-or-time-seeded-rng",
        description="No global-state numpy.random/random calls; no time seeds.",
        applies=lambda path: True,
        run=check_global_or_time_seeded_rng,
    ),
    CheckerSpec(
        code="RC103",
        slug="missing-value-twin",
        description="Every *_grad_v function has a same-module value twin.",
        applies=lambda path: True,
        run=check_grad_value_twins,
    ),
    CheckerSpec(
        code="RC104",
        slug="unordered-set-iteration",
        description="No set iteration feeding order-sensitive reductions.",
        applies=lambda path: True,
        run=check_unordered_set_iteration,
    ),
    CheckerSpec(
        code="RC105",
        slug="float-downcast",
        description="No float32/float16 dtypes in device/spice numerics.",
        applies=_is_numerics_path,
        run=check_float_downcasts,
    ),
    CheckerSpec(
        code="RC106",
        slug="swallowed-failure",
        description=(
            "No silently swallowed broad/BrokenProcessPool exception "
            "handlers in engine/, service/, resilience/."
        ),
        applies=_is_resilient_path,
        run=check_swallowed_failures,
    ),
    CheckerSpec(
        code="RC107",
        slug="oracle-import-in-production",
        description="Nothing under src/repro/ imports repro.oracle.",
        applies=_is_production_path,
        run=check_oracle_imports,
    ),
)


def _allowed_codes(source_lines: list[str], line: int) -> frozenset[str]:
    """Return the codes suppressed by a ``# contract: allow(...)`` comment."""
    if not 1 <= line <= len(source_lines):
        return frozenset()
    match = _ALLOW_RE.search(source_lines[line - 1])
    if not match:
        return frozenset()
    return frozenset(code.strip() for code in match.group(1).split(","))


def check_source(source: str, path: str = "<string>") -> list[Violation]:
    """Run every applicable checker over one source string."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                code="RC000",
                message=f"cannot parse: {exc.msg}",
                path=path,
                line=exc.lineno or 0,
            )
        ]
    aliases = _collect_aliases(tree)
    lines = source.splitlines()
    violations: list[Violation] = []
    for spec in CHECKERS:
        if not spec.applies(path):
            continue
        for violation in spec.run(tree, aliases, path):
            if violation.code in _allowed_codes(lines, violation.line):
                continue
            violations.append(violation)
    return sorted(violations, key=lambda v: (v.path, v.line, v.code))


def check_file(path: str | Path) -> list[Violation]:
    """Run every applicable checker over one file."""
    path = Path(path)
    return check_source(path.read_text(), str(path))


def check_tree(roots: Iterable[str | Path]) -> list[Violation]:
    """Run the checkers over every ``*.py`` file under ``roots``."""
    violations: list[Violation] = []
    for root in roots:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            violations.extend(check_file(file))
    return violations
