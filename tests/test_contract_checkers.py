"""Tests for the AST contract checkers in ``tools/lint``.

Each RC1xx checker must fire on a minimal violating snippet (proving it can
catch the contract breach it encodes) and the real source tree must be
clean (proving the contracts actually hold).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint.contracts import (  # noqa: E402
    CHECKERS,
    Violation,
    check_source,
    check_tree,
)

NUMERICS_PATH = "src/repro/device/snippet.py"
GENERIC_PATH = "src/repro/core/snippet.py"


def codes(source: str, path: str = GENERIC_PATH) -> list[str]:
    return [violation.code for violation in check_source(source, path)]


class TestRC101RngConstruction:
    def test_fires_on_default_rng_outside_rng_module(self):
        snippet = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes(snippet) == ["RC101"]

    def test_fires_through_import_aliases(self):
        snippet = (
            "from numpy.random import default_rng as make\nrng = make(0)\n"
        )
        assert codes(snippet) == ["RC101"]

    def test_fires_on_legacy_randomstate(self):
        snippet = "import numpy as np\nrng = np.random.RandomState(0)\n"
        assert codes(snippet) == ["RC101"]

    def test_allowed_inside_rng_module(self):
        snippet = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes(snippet, "src/repro/utils/rng.py") == []

    def test_generator_type_annotation_is_not_a_construction(self):
        snippet = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> np.random.Generator:\n"
            "    return rng\n"
        )
        assert codes(snippet) == []


class TestRC102GlobalOrTimeSeededRng:
    def test_fires_on_global_numpy_seed(self):
        assert codes("import numpy as np\nnp.random.seed(3)\n") == ["RC102"]

    def test_fires_on_global_distribution_call(self):
        snippet = "import numpy as np\nx = np.random.normal(0.0, 1.0)\n"
        assert codes(snippet) == ["RC102"]

    def test_fires_on_stdlib_random(self):
        assert codes("import random\nrandom.shuffle(items)\n") == ["RC102"]

    def test_fires_on_time_seeded_generator(self):
        snippet = (
            "import time\nimport numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))\n"
        )
        found = codes(snippet)
        assert "RC102" in found  # the construction itself also trips RC101
        assert "RC101" in found

    def test_explicitly_seeded_generator_in_rng_module_is_clean(self):
        snippet = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert codes(snippet, "src/repro/utils/rng.py") == []


class TestRC103MissingValueTwin:
    def test_fires_on_orphan_gradient_function(self):
        snippet = "def leak_grad_v(v):\n    return v\n"
        assert codes(snippet) == ["RC103"]

    def test_clean_when_value_twin_present(self):
        snippet = (
            "def leak(v):\n    return v\n"
            "def leak_grad_v(v):\n    return 1.0\n"
        )
        assert codes(snippet) == []

    def test_twin_must_be_in_the_same_module(self):
        snippet = (
            "from other import leak\n"
            "def leak_grad_v(v):\n    return 1.0\n"
        )
        assert codes(snippet) == ["RC103"]


class TestRC104UnorderedSetIteration:
    def test_fires_on_for_loop_over_set_call(self):
        assert codes("for x in set(items):\n    go(x)\n") == ["RC104"]

    def test_fires_on_sum_of_set_literal(self):
        assert codes("total = sum({1.0, 2.0})\n") == ["RC104"]

    def test_fires_on_comprehension_over_set_literal(self):
        assert codes("out = [f(x) for x in {1, 2}]\n") == ["RC104"]

    def test_fires_on_join_of_set(self):
        assert codes("s = ', '.join({'a', 'b'})\n") == ["RC104"]

    def test_sorted_wrapping_is_clean(self):
        assert codes("total = sum(sorted({1.0, 2.0}))\n") == []
        assert codes("for x in sorted(set(items)):\n    go(x)\n") == []

    def test_membership_test_is_clean(self):
        assert codes("ok = x in {1, 2, 3}\n") == []

    def test_suppression_comment(self):
        snippet = "total = sum({1.0, 2.0})  # contract: allow(RC104)\n"
        assert codes(snippet) == []


class TestRC105FloatDowncast:
    def test_fires_on_np_float32_in_device(self):
        snippet = "import numpy as np\nx = np.float32(1.0)\n"
        assert codes(snippet, NUMERICS_PATH) == ["RC105"]

    def test_fires_on_astype_string(self):
        assert codes("y = x.astype('float32')\n", NUMERICS_PATH) == ["RC105"]

    def test_fires_on_dtype_keyword(self):
        snippet = "import numpy as np\ny = np.zeros(4, dtype='float16')\n"
        assert codes(snippet, NUMERICS_PATH) == ["RC105"]

    def test_float64_is_clean(self):
        snippet = (
            "import numpy as np\n"
            "y = np.zeros(4, dtype=np.float64)\nz = x.astype('float64')\n"
        )
        assert codes(snippet, NUMERICS_PATH) == []

    def test_scoped_to_numerics_modules_only(self):
        snippet = "import numpy as np\nx = np.float32(1.0)\n"
        assert codes(snippet, GENERIC_PATH) == []


RESILIENT_PATH = "src/repro/engine/snippet.py"


class TestRC106SwallowedFailure:
    def test_fires_on_bare_except_pass(self):
        snippet = "try:\n    go()\nexcept:\n    pass\n"
        assert codes(snippet, RESILIENT_PATH) == ["RC106"]

    def test_fires_on_except_exception_pass(self):
        snippet = "try:\n    go()\nexcept Exception:\n    pass\n"
        assert codes(snippet, RESILIENT_PATH) == ["RC106"]

    def test_fires_on_swallowed_broken_process_pool(self):
        snippet = (
            "from concurrent.futures.process import BrokenProcessPool\n"
            "try:\n    go()\nexcept BrokenProcessPool:\n    continue\n"
        )
        assert codes(snippet, RESILIENT_PATH) == ["RC106"]

    def test_fires_on_broad_member_of_tuple(self):
        snippet = "try:\n    go()\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(snippet, RESILIENT_PATH) == ["RC106"]

    def test_docstring_only_body_is_still_swallowed(self):
        snippet = (
            "try:\n    go()\nexcept Exception:\n"
            "    'a comment does not handle a failure'\n"
        )
        assert codes(snippet, RESILIENT_PATH) == ["RC106"]

    def test_handled_broad_exception_is_clean(self):
        snippet = (
            "try:\n    go()\nexcept Exception as exc:\n"
            "    release(exc)\n    raise\n"
        )
        assert codes(snippet, RESILIENT_PATH) == []

    def test_narrow_swallow_is_clean(self):
        snippet = "try:\n    go()\nexcept KeyError:\n    pass\n"
        assert codes(snippet, RESILIENT_PATH) == []

    def test_scoped_to_execution_critical_paths_only(self):
        snippet = "try:\n    go()\nexcept Exception:\n    pass\n"
        assert codes(snippet, GENERIC_PATH) == []
        assert codes(snippet, "src/repro/service/snippet.py") == ["RC106"]
        assert codes(snippet, "src/repro/resilience/snippet.py") == ["RC106"]


#: Every import form that binds repro.oracle or one of its names (RC107).
ORACLE_IMPORTS = [
    "import repro.oracle\n",
    "import repro.oracle as oracle\n",
    "from repro.oracle import per_vector_campaign\n",
    "from repro import oracle\n",
]


class TestRC107OracleImportInProduction:
    @pytest.mark.parametrize("snippet", ORACLE_IMPORTS)
    def test_fires_under_src_repro(self, snippet):
        assert codes(snippet) == ["RC107"]
        assert codes(snippet, "/checkout/src/repro/engine/snippet.py") == ["RC107"]

    @pytest.mark.parametrize(
        "path", ["tests/test_snippet.py", "benchmarks/bench_snippet.py"]
    )
    def test_tests_and_benchmarks_may_import_it(self, path):
        for snippet in ORACLE_IMPORTS:
            assert codes(snippet, path) == []

    def test_other_repro_imports_are_clean(self):
        snippet = "import repro.optimize\nfrom repro import core, engine\n"
        assert codes(snippet) == []

    def test_suppression_comment(self):
        snippet = "from repro import oracle  # contract: allow(RC107)\n"
        assert codes(snippet) == []


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        found = check_source("def broken(:\n", GENERIC_PATH)
        assert [v.code for v in found] == ["RC000"]

    def test_violation_rendering(self):
        violation = Violation(
            code="RC101", message="msg", path="a.py", line=3
        )
        assert str(violation) == "a.py:3: RC101 msg"
        assert violation.to_dict()["line"] == 3

    def test_checker_registry_codes_are_unique_and_stable(self):
        registry = [spec.code for spec in CHECKERS]
        assert registry == sorted(registry)
        assert len(set(registry)) == len(registry)
        assert registry == [
            "RC101", "RC102", "RC103", "RC104", "RC105", "RC106", "RC107",
        ]

    def test_source_tree_is_contract_clean(self):
        violations = check_tree([REPO_ROOT / "src", REPO_ROOT / "tools"])
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_cli_exit_codes(self, tmp_path):
        script = REPO_ROOT / "tools" / "lint" / "check_contracts.py"
        clean = subprocess.run(
            [sys.executable, str(script), str(REPO_ROOT / "src" / "repro" / "utils")],
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr

        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        report = tmp_path / "report.json"
        dirty = subprocess.run(
            [sys.executable, str(script), str(bad), "--json", str(report)],
            capture_output=True,
            text=True,
        )
        assert dirty.returncode == 1
        assert "RC102" in dirty.stdout
        import json

        payload = json.loads(report.read_text())
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "RC102"
