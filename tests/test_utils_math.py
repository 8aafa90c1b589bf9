"""Tests for the numeric helpers, table formatting and RNG plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.mathtools import (
    log1p_exp,
    percent_difference,
    relative_difference,
    safe_exp,
    smooth_step,
)
from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table


class TestSafeExp:
    def test_matches_exp_in_normal_range(self):
        assert safe_exp(1.0) == pytest.approx(math.exp(1.0))
        assert safe_exp(-3.0) == pytest.approx(math.exp(-3.0))

    def test_clips_large_arguments(self):
        assert math.isfinite(safe_exp(1e6))
        assert safe_exp(1e6) == safe_exp(60.0)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_always_finite_and_positive(self, x):
        value = safe_exp(x)
        assert math.isfinite(value)
        assert value > 0.0


class TestLog1pExp:
    def test_softplus_limits(self):
        assert log1p_exp(-100.0) == pytest.approx(math.exp(-100.0), rel=1e-6, abs=1e-60)
        assert log1p_exp(100.0) == pytest.approx(100.0)

    @given(st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_monotonic_and_nonnegative(self, x):
        assert log1p_exp(x) >= 0.0
        assert log1p_exp(x + 1.0) > log1p_exp(x)


class TestClampAndSmoothStep:
    def test_smooth_step_limits(self):
        assert smooth_step(-100.0) == pytest.approx(0.0, abs=1e-12)
        assert smooth_step(100.0) == pytest.approx(1.0, abs=1e-12)
        assert smooth_step(0.0) == pytest.approx(0.5)

    def test_smooth_step_rejects_bad_width(self):
        with pytest.raises(ValueError):
            smooth_step(0.0, width=0.0)


class TestRelativeDifference:
    def test_basic(self):
        assert relative_difference(110.0, 100.0) == pytest.approx(0.10)
        assert percent_difference(90.0, 100.0) == pytest.approx(-10.0)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroDivisionError):
            relative_difference(1.0, 0.0)


class TestRng:
    def test_seed_reproducibility(self):
        a = ensure_rng(123).integers(0, 1000, size=5)
        b = ensure_rng(123).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(7)
        assert ensure_rng(generator) is generator

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestTables:
    def test_format_table_alignment_and_title(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_scientific_rendering_for_extreme_values(self):
        text = format_table(["v"], [[1.23e-9]])
        assert "e-09" in text
