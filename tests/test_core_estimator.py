"""Tests for the loading-aware estimator, the baseline and the reference path."""

import pytest

from repro.circuit.generators import (
    fanout_star,
    inverter_chain,
    loaded_inverter_cluster,
    random_logic,
)
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.reference import ReferenceSimulator
from repro.core.report import CircuitLeakageReport
from repro.core.vectors import run_vector_campaign
from repro.engine import campaign as campaign_module
from repro.gates.lut import GateVectorCharacterization, ResponseCurve


class TestEstimatorBasics:
    def test_report_structure(self, library_d25s):
        circuit = inverter_chain(4)
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 0})
        assert isinstance(report, CircuitLeakageReport)
        assert report.method == "loading-aware"
        assert report.gate_count() == 4
        assert set(report.per_gate) == set(circuit.gates)
        assert report.total > 0

    def test_vector_changes_result(self, library_d25s):
        circuit = inverter_chain(4)
        estimator = LoadingAwareEstimator(library_d25s)
        low = estimator.estimate(circuit, {"in": 0})
        high = estimator.estimate(circuit, {"in": 1})
        assert low.total != pytest.approx(high.total, rel=1e-6)

    def test_primary_input_nets_carry_no_loading(self, library_d25s):
        """A gate fed only by primary inputs sees zero input loading."""
        circuit = fanout_star(4)
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 0})
        driver_entry = report.per_gate["driver"]
        assert driver_entry.input_loading == 0.0
        assert driver_entry.output_loading != 0.0

    def test_loads_see_sibling_injection(self, library_d25s):
        circuit = fanout_star(4)
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 0})
        load_entry = report.per_gate["load0"]
        # Each load shares its input net with three siblings.
        assert load_entry.input_loading != 0.0
        assert load_entry.output_loading == 0.0

    @pytest.mark.parametrize("estimator_type", [LoadingAwareEstimator, NoLoadingEstimator])
    def test_estimate_is_one_engine_pass(self, library_d25s, monkeypatch, estimator_type):
        """One vector is a one-vector engine pass: exactly one chunk of one
        vector, no per-record LUT lookup, and the report of a multi-vector
        campaign bitwise."""
        circuit = fanout_star(4)
        estimator = estimator_type(library_d25s)
        together = run_vector_campaign(estimator, circuit, vectors=[{"in": 1}, {"in": 0}])
        chunks, lookups = [], []
        real_chunk = campaign_module._run_chunk

        def counting_chunk(compiled, bits, *args, **kwargs):
            chunks.append(bits.shape[1])
            return real_chunk(compiled, bits, *args, **kwargs)

        def forbidden_lookup(*args, **kwargs):
            lookups.append(args)
            raise AssertionError("per-record LUT lookup on the production path")

        monkeypatch.setattr(campaign_module, "_run_chunk", counting_chunk)
        monkeypatch.setattr(
            GateVectorCharacterization, "leakage_with_loading", forbidden_lookup
        )
        monkeypatch.setattr(ResponseCurve, "breakdown_at", forbidden_lookup)
        report = estimator.estimate(circuit, {"in": 0})
        assert chunks == [1]
        assert lookups == []
        expected = together.reports[1]
        assert report.method == expected.method
        for name, entry in expected.per_gate.items():
            got = report.per_gate[name]
            assert got.breakdown.as_dict() == entry.breakdown.as_dict()
            assert got.input_loading == entry.input_loading
            assert got.output_loading == entry.output_loading

    def test_baseline_reports_no_loading(self, library_d25s):
        circuit = fanout_star(4)
        report = NoLoadingEstimator(library_d25s).estimate(circuit, {"in": 0})
        assert report.method == "no-loading"
        for entry in report.per_gate.values():
            assert entry.input_loading == 0.0
            assert entry.output_loading == 0.0

    def test_loading_increases_subthreshold_total(self, library_d25s):
        """Circuit-level claim of Sec. 6: loading raises the subthreshold sum."""
        circuit = loaded_inverter_cluster(6, 6)
        loaded = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 1})
        baseline = NoLoadingEstimator(library_d25s).estimate(circuit, {"in": 1})
        assert loaded.components.subthreshold > baseline.components.subthreshold
        assert loaded.components.gate < baseline.components.gate


class TestTiedInputSelfLoading:
    """A gate with two pins tied to one net must not load itself (bugfix)."""

    @staticmethod
    def _tied_nand_circuit():
        from repro.circuit.netlist import Circuit
        from repro.gates.library import GateType

        circuit = Circuit(name="tied_nand")
        circuit.add_input("in")
        circuit.add_gate("drv", GateType.INV, ["in"], "x")
        circuit.add_gate("g", GateType.NAND2, ["x", "x"], "y")
        circuit.add_gate("load", GateType.INV, ["x"], "z")
        circuit.add_output("y")
        circuit.add_output("z")
        return circuit

    def test_tied_pins_see_only_other_receivers(self, library_d25s):
        circuit = self._tied_nand_circuit()
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 1})
        # x is 0, so the tied NAND sees vector (0, 0) and the load sees (0,).
        load_injection = library_d25s.characterization("inv", (0,)).pin_injection["a"]
        entry = report.per_gate["g"]
        # Each of the two tied pins sees exactly the load inverter's
        # injection — not the gate's own other pin fed back as loading.
        assert entry.input_loading == pytest.approx(2.0 * load_injection, rel=1e-12)

    def test_driver_output_loading_still_sums_all_receivers(self, library_d25s):
        circuit = self._tied_nand_circuit()
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 1})
        nand = library_d25s.characterization("nand2", (0, 0)).pin_injection
        inv = library_d25s.characterization("inv", (0,)).pin_injection
        expected = nand["a"] + nand["b"] + inv["a"]
        assert report.per_gate["drv"].output_loading == pytest.approx(
            expected, rel=1e-12
        )


class TestAgainstReference:
    """The estimator must track the full transistor-level solve (Fig. 12a)."""

    @pytest.mark.parametrize("input_value", [0, 1])
    def test_loaded_cluster_total_within_one_percent(self, d25s, library_d25s, input_value):
        circuit = loaded_inverter_cluster(6, 6)
        estimate = LoadingAwareEstimator(library_d25s).estimate(
            circuit, {"in": input_value}
        )
        reference = ReferenceSimulator(d25s).estimate(circuit, {"in": input_value})
        assert reference.metadata["solver_converged"]
        difference = estimate.percent_difference(reference)
        assert abs(difference["total"]) < 1.0
        assert abs(difference["subthreshold"]) < 2.0

    @pytest.mark.slow
    def test_random_circuit_total_within_one_percent(self, d25s, library_d25s):
        circuit = random_logic("val", 6, 30, rng=9)
        vector = {f"pi{i}": i % 2 for i in range(6)}
        estimate = LoadingAwareEstimator(library_d25s).estimate(circuit, vector)
        reference = ReferenceSimulator(d25s).estimate(circuit, vector)
        difference = estimate.percent_difference(reference)
        assert abs(difference["total"]) < 1.0

    @pytest.mark.slow
    def test_estimator_closer_to_reference_than_baseline(self, d25s, library_d25s):
        """Accounting for loading must reduce the error against the reference."""
        circuit = loaded_inverter_cluster(8, 8)
        vector = {"in": 1}
        reference = ReferenceSimulator(d25s).estimate(circuit, vector)
        loaded = LoadingAwareEstimator(library_d25s).estimate(circuit, vector)
        baseline = NoLoadingEstimator(library_d25s).estimate(circuit, vector)
        loaded_error = abs(loaded.percent_difference(reference)["subthreshold"])
        baseline_error = abs(baseline.percent_difference(reference)["subthreshold"])
        assert loaded_error < baseline_error

    def test_reference_metadata(self, d25s):
        circuit = inverter_chain(3)
        report = ReferenceSimulator(d25s).estimate(circuit, {"in": 0})
        assert report.method == "reference"
        assert report.metadata["transistors"] == 6
        assert report.metadata["solver_converged"]


class TestReport:
    def test_percent_difference(self, library_d25s):
        circuit = inverter_chain(4)
        estimator = LoadingAwareEstimator(library_d25s)
        report = estimator.estimate(circuit, {"in": 0})
        same = report.percent_difference(report)
        assert all(value == pytest.approx(0.0) for value in same.values())

    def test_component_accessor(self, library_d25s):
        circuit = inverter_chain(2)
        report = LoadingAwareEstimator(library_d25s).estimate(circuit, {"in": 0})
        assert report.component("gate") > 0
        with pytest.raises(KeyError):
            report.component("bogus")
