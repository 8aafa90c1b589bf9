"""Tests for gate leakage characterization and the characterized library."""

import warnings

import numpy as np
import pytest

from repro.gates.cache import (
    load_library,
    record_from_dict,
    record_to_dict,
    save_library,
    settings_fingerprint,
)
from repro.gates.characterize import (
    CharacterizationOptions,
    GateCharacterizer,
    GateLibrary,
)
from repro.gates.library import GateType
from repro.gates.lut import ResponseCurve
from repro.spice.analysis import ComponentBreakdown
from repro.spice.batched import BatchedDcSolver
from repro.utils.mathtools import percent_difference


class TestCharacterizationOptions:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            CharacterizationOptions(injection_grid=(1e-6, 0.0))
        with pytest.raises(ValueError):
            CharacterizationOptions(injection_grid=(0.0,))


class TestSolveCell:
    def test_nominal_inverter_components(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        cell = characterizer.solve_cell(GateType.INV, (0,))
        assert cell.converged
        breakdown = cell.dut_breakdown
        assert breakdown.subthreshold > 0
        assert breakdown.gate > 0
        assert breakdown.btbt > 0
        # Input '0' -> output '1'.
        assert cell.output_voltage > 0.9 * bulk25.vdd

    def test_cell_is_one_batched_column(self, bulk25, monkeypatch):
        """A single cell solves as one one-column ``BatchedDcSolver.solve``
        call and never constructs the scalar oracle solver."""
        from repro import oracle

        columns, scalar = [], []
        real_solve = BatchedDcSolver.solve

        def counting_solve(self, *args, **kwargs):
            columns.append(self.batch)
            return real_solve(self, *args, **kwargs)

        def forbidden_scalar(self, *args, **kwargs):
            scalar.append(args)
            raise AssertionError("scalar DcSolver on the production path")

        monkeypatch.setattr(BatchedDcSolver, "solve", counting_solve)
        monkeypatch.setattr(oracle.DcSolver, "__init__", forbidden_scalar)
        characterizer = GateCharacterizer(bulk25)
        cell = characterizer.solve_cell(GateType.NAND2, (0, 1), {"a": 1e-6, "y": -1e-6})
        assert columns == [1]
        assert scalar == []
        assert cell.converged
        assert characterizer.solve_stats["solves"] == 1

    def test_unknown_pin_rejected(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        with pytest.raises(ValueError, match="unknown pins"):
            characterizer.solve_cell(GateType.INV, (0,), {"q": 1e-6})

    def test_wrong_vector_width_rejected(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        with pytest.raises(ValueError):
            characterizer.solve_cell(GateType.NAND2, (0,))

    def test_input_loading_raises_subthreshold(self, bulk25):
        """Paper Sec. 4: input loading increases subthreshold, trims gate."""
        characterizer = GateCharacterizer(bulk25)
        nominal = characterizer.solve_cell(GateType.INV, (0,)).dut_breakdown
        loaded = characterizer.solve_cell(GateType.INV, (0,), {"a": 2e-6}).dut_breakdown
        assert loaded.subthreshold > nominal.subthreshold
        assert loaded.gate < nominal.gate

    def test_output_loading_reduces_all_components(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        nominal = characterizer.solve_cell(GateType.INV, (0,)).dut_breakdown
        loaded = characterizer.solve_cell(GateType.INV, (0,), {"y": -2e-6}).dut_breakdown
        assert loaded.subthreshold < nominal.subthreshold
        assert loaded.gate < nominal.gate
        assert loaded.btbt < nominal.btbt


class TestCharacterizationRecords:
    def test_pin_injection_sign_follows_input_level(self, library25):
        record = library25.characterization(GateType.NAND2, (0, 1))
        # Pin 'a' sits at '0': the gate injects current into its net.
        assert record.pin_injection["a"] < 0 or record.pin_injection["a"] > 0
        # Signs: net at 0 -> receiver injects (negative of our ig convention
        # is handled inside gate_injection_at_node, so here: a at 0 -> +, b at 1 -> -).
        assert record.pin_injection["a"] > 0
        assert record.pin_injection["b"] < 0

    def test_responses_cover_all_pins(self, library25):
        record = library25.characterization(GateType.NAND2, (0, 1))
        assert set(record.responses) == {"a", "b", "y"}
        assert record.vector_label == "01"

    def test_leakage_with_loading_moves_in_right_direction(self, library25):
        record = library25.characterization(GateType.INV, (0,))
        nominal = record.nominal
        loaded = record.leakage_with_loading({"a": 2.0e-6})
        assert loaded.subthreshold > nominal.subthreshold
        unloaded = record.leakage_with_loading({})
        assert unloaded.total == pytest.approx(nominal.total)

    def test_unknown_response_pin_raises(self, library25):
        record = library25.characterization(GateType.INV, (0,))
        with pytest.raises(KeyError):
            record.leakage_with_loading({"b": 1e-6})

    def test_loading_effect_percent(self, library25):
        record = library25.characterization(GateType.INV, (0,))
        loaded = record.leakage_with_loading({"a": 2.0e-6}).subthreshold
        assert percent_difference(loaded, record.nominal.subthreshold) > 0

    def test_library_caches_records(self, library25):
        first = library25.characterization(GateType.INV, (1,))
        second = library25.characterization(GateType.INV, (1,))
        assert first is second

    def test_nominal_and_pin_injection_accessors(self, library25):
        record = library25.characterization(GateType.INV, (1,))
        assert record.nominal.total > 0
        assert record.pin_injection["a"] < 0  # input at '1' draws from the net
        assert set(record.pin_injection) == {"a"}


def _example_curve():
    return ResponseCurve(
        pin="a",
        injections=np.array([-1.0e-6, 0.0, 1.0e-6]),
        subthreshold=np.array([1.0e-9, 2.0e-9, 4.0e-9]),
        gate=np.array([3.0e-9, 3.0e-9, 3.0e-9]),
        btbt=np.array([1.0e-9, 1.0e-9, 1.0e-9]),
    )


class TestResponseCurve:
    def test_interpolation_and_extrapolation(self):
        curve = _example_curve()
        mid = curve.breakdown_at(0.5e-6)
        assert mid.subthreshold == pytest.approx(3.0e-9)
        clamped = curve.breakdown_at(10e-6, policy="clamp")
        assert clamped.subthreshold == pytest.approx(4.0e-9)
        delta = curve.delta_at(1.0e-6, ComponentBreakdown(2.0e-9, 3.0e-9, 1.0e-9))
        assert delta.subthreshold == pytest.approx(2.0e-9)

    def test_out_of_range_warns_once_and_still_clamps(self):
        from repro.gates.lut import (
            ResponseCurveRangeWarning,
            set_extrapolation_policy,
        )

        previous = set_extrapolation_policy("warn")
        try:
            curve = _example_curve()
            with pytest.warns(ResponseCurveRangeWarning, match="outside"):
                clamped = curve.breakdown_at(10e-6)
            assert clamped.subthreshold == pytest.approx(4.0e-9)
            # Warn-once: the same (pin, direction) stays quiet afterwards.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                curve.breakdown_at(11e-6)
            # The other direction warns independently.
            with pytest.warns(ResponseCurveRangeWarning):
                curve.breakdown_at(-10e-6)
        finally:
            set_extrapolation_policy(previous)

    def test_out_of_range_raise_policy(self):
        curve = _example_curve()
        with pytest.raises(ValueError, match="outside"):
            curve.breakdown_at(10e-6, policy="raise")
        with pytest.raises(ValueError, match="policy"):
            curve.breakdown_at(0.0, policy="bogus")

    def test_set_extrapolation_policy_validates(self):
        from repro.gates.lut import set_extrapolation_policy

        with pytest.raises(ValueError, match="policy"):
            set_extrapolation_policy("bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseCurve(
                pin="a",
                injections=np.array([0.0, 0.0]),
                subthreshold=np.zeros(2),
                gate=np.zeros(2),
                btbt=np.zeros(2),
            )
        with pytest.raises(ValueError):
            ResponseCurve(
                pin="a",
                injections=np.array([0.0, 1.0]),
                subthreshold=np.zeros(3),
                gate=np.zeros(2),
                btbt=np.zeros(2),
            )


class TestPersistence:
    def test_fingerprint_is_order_invariant_and_content_sensitive(self):
        a = settings_fingerprint({"x": 1, "y": 2})
        b = settings_fingerprint({"y": 2, "x": 1})
        c = settings_fingerprint({"x": 1, "y": 3})
        assert a == b
        assert a != c

    def test_record_roundtrip(self, library25):
        record = library25.characterization(GateType.INV, (0,))
        clone = record_from_dict(record_to_dict(record))
        assert clone.gate_type_name == record.gate_type_name
        assert clone.nominal.total == pytest.approx(record.nominal.total)
        assert set(clone.responses) == set(record.responses)

    def test_save_and_load_library(self, bulk25, library25, tmp_path):
        library25.characterization(GateType.INV, (0,))
        path = tmp_path / "cache.json"
        written = save_library(library25, path)
        assert written >= 1

        # A strict load requires identical characterization settings.
        fresh = GateLibrary(bulk25, options=library25.characterizer.options)
        loaded = load_library(fresh, path)
        assert loaded == written
        assert fresh.characterization(GateType.INV, (0,)).nominal.total == pytest.approx(
            library25.characterization(GateType.INV, (0,)).nominal.total
        )

    def test_strict_mismatch_rejected(self, library25, d25s, tmp_path):
        library25.characterization(GateType.INV, (0,))
        path = tmp_path / "cache.json"
        save_library(library25, path)
        other = GateLibrary(d25s)
        with pytest.raises(ValueError, match="does not match"):
            load_library(other, path)
        assert load_library(other, path, strict=False) >= 1

    def test_mismatched_options_rejected(self, bulk25, library25, tmp_path):
        """Same technology but different characterization options must be
        refused: the records were characterized under different settings."""
        library25.characterization(GateType.INV, (0,))
        path = tmp_path / "cache.json"
        save_library(library25, path)
        other_grid = GateLibrary(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=(-1.0e-6, 0.0, 1.0e-6)
            ),
        )
        with pytest.raises(ValueError, match="options"):
            load_library(other_grid, path)

    def test_mismatched_solver_tolerances_rejected(self, bulk25, library25, tmp_path):
        from repro.spice.solver import SolverOptions

        library25.characterization(GateType.INV, (0,))
        path = tmp_path / "cache.json"
        save_library(library25, path)
        options = CharacterizationOptions(
            injection_grid=library25.characterizer.options.injection_grid,
            solver=SolverOptions(voltage_tol=1.0e-7),
        )
        with pytest.raises(ValueError, match="options"):
            load_library(GateLibrary(bulk25, options=options), path)

    def test_old_format_version_rejected(self, bulk25, library25, tmp_path):
        import json

        library25.characterization(GateType.INV, (0,))
        path = tmp_path / "cache.json"
        save_library(library25, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_library(
                GateLibrary(bulk25, options=library25.characterizer.options), path
            )
