"""Tests for the top-level package surface."""

import ast
import re
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent


def _requirement_names(requirements) -> set[str]:
    """Distribution names of PEP 508 requirement strings, normalized."""
    names = set()
    for requirement in requirements:
        match = re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", requirement.strip())
        assert match, f"unparseable requirement {requirement!r}"
        names.add(match.group(0).lower().replace("-", "_"))
    return names


def _third_party_imports() -> dict[str, str]:
    """Top-level modules ``src/repro`` imports from outside the stdlib.

    Maps each module to one file that imports it, for the failure message.
    """
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_direct_exports(self):
        technology = repro.make_technology("bulk-25nm")
        assert isinstance(technology, repro.TechnologyParams)
        assert repro.DeviceVariant.BULK25.value == "bulk-25nm"

    def test_lazy_exports(self):
        assert repro.GateLibrary.__name__ == "GateLibrary"
        assert repro.LoadingAwareEstimator.__name__ == "LoadingAwareEstimator"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist  # noqa: B018


class TestDeclaredDependencies:
    def test_every_third_party_import_is_declared(self):
        """A clean install gets every module ``src/repro`` imports: each
        third-party import is a dependency in pyproject.toml (setup.py
        declares nothing of its own)."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        declared = _requirement_names(pyproject["project"]["dependencies"])
        imports = _third_party_imports()
        assert "numpy" in imports  # the walk sees the package's imports
        missing = {
            module: where
            for module, where in imports.items()
            if module.lower() not in declared
        }
        assert not missing, f"imported but not declared in pyproject.toml: {missing}"
