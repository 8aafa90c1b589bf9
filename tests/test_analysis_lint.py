"""Tests for the netlist lint layer (:mod:`repro.analysis`).

Covers, per the diagnostics contract:

* one crafted violating circuit per rule, each firing *exactly once*;
* clean passes over the benchmark generators and ISCAS-like circuits;
* fault injection — corrupted ``.bench`` text and tampered circuits are
  detected with the expected stable codes;
* the pre-flight policy knob at the numeric entry points (compile,
  reference simulation, vector campaigns);
* the ``python -m repro.analysis`` CLI exit codes and JSON report.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    NetlistLintError,
    NetlistLintWarning,
    RULES,
    RULES_BY_CODE,
    Severity,
    lint_bench_text,
    lint_circuit,
    lint_flattened,
    lint_vectors,
    merge_reports,
    preflight_circuit,
)
from repro.analysis.__main__ import main as lint_main
from repro.circuit.bench_io import write_bench
from repro.circuit.generators import (
    alu,
    array_multiplier,
    fanout_star,
    inverter_chain,
    iscas_like,
    nand_tree,
    random_logic,
)
from repro.circuit.netlist import Circuit, Gate
from repro.gates.library import GateType


def _inject(circuit: Circuit, gate: Gate) -> None:
    """Place a gate into the netlist bypassing ``add_gate`` validation.

    The crafted rule-violation circuits need wirings that ``add_gate``
    correctly refuses (double drivers, bad arity, unknown types) — exactly
    the states a linter must diagnose when they arrive from a file or a
    buggy generator.
    """
    circuit.gates[gate.name] = gate
    circuit._invalidate()


# --------------------------------------------------------------------- #
# one crafted circuit per rule, each firing exactly once
# --------------------------------------------------------------------- #
class TestEachRuleFiresExactlyOnce:
    def test_nl001_floating_net(self):
        c = Circuit("nl001")
        c.add_input("a")
        _inject(c, Gate("g1", GateType.NAND2, ("a", "ghost"), "y"))
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL001": 1}
        (d,) = report.diagnostics
        assert d.location.net == "ghost"
        assert d.severity is Severity.ERROR

    def test_nl001_undriven_primary_output(self):
        c = Circuit("nl001po")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "y")
        c.add_output("y")
        c.add_output("phantom")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL001": 1}
        assert report.diagnostics[0].location.net == "phantom"

    def test_nl002_two_gate_drivers(self):
        c = Circuit("nl002")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g1", GateType.INV, ["a"], "y")
        _inject(c, Gate("g2", GateType.INV, ("b",), "y"))
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL002": 1}
        assert "2 gates" in report.diagnostics[0].message

    def test_nl002_gate_drives_primary_input(self):
        c = Circuit("nl002pi")
        c.add_input("a")
        c.add_input("b")
        _inject(c, Gate("g1", GateType.INV, ("a",), "b"))
        c.add_gate("g2", GateType.INV, ["b"], "y")
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL002": 1}
        assert "primary input" in report.diagnostics[0].message

    def test_nl003_combinational_loop(self):
        c = Circuit("nl003")
        c.add_gate("g1", GateType.INV, ["w"], "y")
        c.add_gate("g2", GateType.INV, ["y"], "w")
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL003": 1}
        message = report.diagnostics[0].message
        assert "'g1'" in message and "'g2'" in message

    def test_nl003_two_independent_loops_two_findings(self):
        c = Circuit("nl003x2")
        c.add_gate("g1", GateType.INV, ["w"], "y")
        c.add_gate("g2", GateType.INV, ["y"], "w")
        c.add_gate("h1", GateType.INV, ["p"], "q")
        c.add_gate("h2", GateType.INV, ["q"], "p")
        c.add_output("y")
        c.add_output("q")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL003": 2}

    def test_nl004_zero_fanout_gate(self):
        c = Circuit("nl004")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL004": 1}
        assert report.diagnostics[0].severity is Severity.WARNING
        assert report.ok  # warnings do not fail the pre-flight

    def test_nl005_unknown_gate_template(self):
        c = Circuit("nl005")
        c.add_input("a")
        c.add_input("b")
        _inject(c, Gate("g1", "maj3", ("a", "b"), "y"))
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL005": 1}
        assert "maj3" in report.diagnostics[0].message

    def test_nl006_pin_arity_mismatch(self):
        c = Circuit("nl006")
        c.add_input("a")
        _inject(c, Gate("g1", GateType.NAND2, ("a",), "y"))
        c.add_output("y")
        report = lint_circuit(c)
        assert report.rule_histogram() == {"NL006": 1}
        assert "expects 2" in report.diagnostics[0].message

    def test_nl008_unreachable_collateral(self):
        c = Circuit("nl008")
        _inject(c, Gate("g1", GateType.INV, ("ghost",), "m"))
        c.add_gate("g2", GateType.INV, ["m"], "y")
        c.add_output("y")
        report = lint_circuit(c)
        # g1 is the root cause (NL001 on its undriven input); g2 is wired
        # correctly but sits behind the defect — the collateral NL008.
        assert report.rule_histogram() == {"NL001": 1, "NL008": 1}
        nl008 = report.by_rule("NL008")[0]
        assert nl008.location.gate == "g2"
        assert nl008.severity is Severity.WARNING

    def test_rule_registry_is_stable(self):
        codes = [rule.code for rule in RULES]
        assert codes == sorted(codes)
        assert set(codes) == {
            "NL001", "NL002", "NL003", "NL004", "NL005",
            "NL006", "NL007", "NL008", "NL009", "NL100",
        }
        assert RULES_BY_CODE["NL001"].slug == "floating-net"
        for rule in RULES:
            assert (rule.check is not None) == (rule.scope == "circuit")


# --------------------------------------------------------------------- #
# vector scope (NL007)
# --------------------------------------------------------------------- #
class TestVectorRule:
    @pytest.fixture()
    def chain(self):
        return inverter_chain(3)

    def test_clean_vectors_pass(self, chain):
        report = lint_vectors(chain, [{"in": 0}, {"in": 1}])
        assert report.clean

    def test_missing_input_flagged(self, chain):
        report = lint_vectors(chain, [{}])
        assert report.rule_histogram() == {"NL007": 1}
        assert "missing inputs" in report.diagnostics[0].message

    def test_extra_net_flagged(self, chain):
        report = lint_vectors(chain, [{"in": 0, "bogus": 1}])
        assert report.rule_histogram() == {"NL007": 1}
        assert "non-primary-input" in report.diagnostics[0].message

    def test_non_binary_value_flagged(self, chain):
        report = lint_vectors(chain, [{"in": 2}])
        assert report.rule_histogram() == {"NL007": 1}
        assert "non-binary" in report.diagnostics[0].message

    def test_one_diagnostic_per_offending_vector(self, chain):
        report = lint_vectors(chain, [{"in": 0}, {}, {"in": 3}])
        assert report.rule_histogram() == {"NL007": 2}
        assert "vector #1" in report.diagnostics[0].message
        assert "vector #2" in report.diagnostics[1].message


# --------------------------------------------------------------------- #
# flattened scope (NL009)
# --------------------------------------------------------------------- #
class TestFlattenedRule:
    def test_real_flatten_is_clean_and_orphan_is_caught(self, bulk50):
        from repro.circuit.flatten import flatten

        flattened = flatten(inverter_chain(2), bulk50, {"in": 0})
        assert lint_flattened(flattened).clean
        flattened.netlist.free_node("orphan")
        report = lint_flattened(flattened)
        assert report.rule_histogram() == {"NL009": 1}
        assert report.diagnostics[0].location.net == "orphan"
        assert report.ok  # NL009 is a warning


# --------------------------------------------------------------------- #
# clean passes over everything the generators produce
# --------------------------------------------------------------------- #
class TestCleanCircuits:
    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: inverter_chain(8),
            lambda: fanout_star(6),
            lambda: nand_tree(4),
            lambda: array_multiplier(4),
            lambda: alu(4),
            lambda: random_logic("clean_random", n_inputs=8, n_gates=60, rng=7),
        ],
        ids=["inverter_chain", "fanout_star", "nand_tree",
             "array_multiplier", "alu", "random_logic"],
    )
    def test_generator_circuits_lint_clean(self, circuit_factory):
        report = lint_circuit(circuit_factory())
        assert report.clean, report.render_text()

    @pytest.mark.parametrize("name", ["s1423", "s838"])
    def test_iscas_like_lints_clean(self, name):
        report = lint_circuit(iscas_like(name, scale=0.25, rng=11))
        assert report.clean, report.render_text()

    def test_bench_round_trip_lints_clean(self):
        circuit = iscas_like("s1423", scale=0.25, rng=11)
        report = lint_bench_text(write_bench(circuit), name="s1423.bench")
        assert report.clean, report.render_text()


# --------------------------------------------------------------------- #
# fault injection: corrupted .bench text and tampered circuits
# --------------------------------------------------------------------- #
class TestFaultInjection:
    @pytest.fixture(scope="class")
    def bench_text(self):
        return write_bench(iscas_like("s838", scale=0.25, rng=3))

    def _gate_lines(self, text):
        return [
            (i, line)
            for i, line in enumerate(text.splitlines(), start=1)
            if "=" in line
        ]

    def test_duplicate_definition_detected(self, bench_text):
        lines = bench_text.splitlines()
        line_no, gate_line = self._gate_lines(bench_text)[0]
        corrupted = "\n".join(lines + [gate_line])
        report = lint_bench_text(corrupted, name="dup.bench")
        assert report.rule_histogram() == {"NL100": 1}
        d = report.diagnostics[0]
        assert "duplicate definition" in d.message
        assert d.location.line == len(lines) + 1

    def test_undefined_signal_detected(self, bench_text):
        lines = bench_text.splitlines()
        line_no, gate_line = self._gate_lines(bench_text)[-1]
        lhs, rhs = gate_line.split("=", 1)
        head, _, tail = rhs.partition("(")
        first_arg = tail.split(",")[0].rstrip(") ")
        lines[line_no - 1] = gate_line.replace(first_arg, "never_defined", 1)
        report = lint_bench_text("\n".join(lines), name="undef.bench")
        assert report.rule_histogram() == {"NL100": 1}
        d = report.diagnostics[0]
        assert "undefined signal" in d.message
        assert d.location.line == line_no

    def test_unknown_primitive_detected(self, bench_text):
        lines = bench_text.splitlines()
        line_no, gate_line = self._gate_lines(bench_text)[0]
        lhs, rhs = gate_line.split("=", 1)
        args = rhs[rhs.index("(") :]
        lines[line_no - 1] = f"{lhs}= MAJ{args}"
        report = lint_bench_text("\n".join(lines), name="maj.bench")
        assert report.rule_histogram() == {"NL100": 1}
        assert "unsupported" in report.diagnostics[0].message
        assert report.diagnostics[0].location.line == line_no

    def test_garbage_line_detected(self, bench_text):
        lines = bench_text.splitlines()
        lines.insert(2, "this is not bench syntax")
        report = lint_bench_text("\n".join(lines), name="garbage.bench")
        assert report.rule_histogram() == {"NL100": 1}
        assert report.diagnostics[0].location.line == 3

    def test_deleted_driver_detected_structurally(self):
        circuit = iscas_like("s838", scale=0.25, rng=3)
        victim = next(
            name
            for name, gate in circuit.gates.items()
            if gate.output not in circuit.primary_outputs
        )
        del circuit.gates[victim]
        circuit._invalidate()
        histogram = lint_circuit(circuit).rule_histogram()
        assert histogram.get("NL001", 0) >= 1

    def test_retyped_gate_detected_structurally(self):
        circuit = iscas_like("s838", scale=0.25, rng=3)
        name, gate = next(iter(circuit.gates.items()))
        _inject(circuit, Gate(name, "mystery9", gate.inputs, gate.output))
        histogram = lint_circuit(circuit).rule_histogram()
        assert histogram.get("NL005", 0) == 1

    def test_rewired_arity_detected_structurally(self):
        circuit = iscas_like("s838", scale=0.25, rng=3)
        name, gate = next(iter(circuit.gates.items()))
        widened = gate.inputs + (circuit.primary_inputs[0],)
        _inject(circuit, Gate(name, gate.gate_type, widened, gate.output))
        histogram = lint_circuit(circuit).rule_histogram()
        assert histogram.get("NL006", 0) == 1


# --------------------------------------------------------------------- #
# pre-flight policy and entry-point wiring
# --------------------------------------------------------------------- #
def _bad_circuit() -> Circuit:
    c = Circuit("bad")
    c.add_input("a")
    _inject(c, Gate("g1", GateType.NAND2, ("a", "ghost"), "y"))
    c.add_output("y")
    return c


class TestPreflightPolicy:
    def test_raise_policy_raises_with_report(self):
        with pytest.raises(NetlistLintError) as excinfo:
            preflight_circuit(_bad_circuit(), lint="raise")
        assert "NL001" in str(excinfo.value)
        assert excinfo.value.report.rule_histogram() == {"NL001": 1}

    def test_raise_policy_is_the_default(self):
        with pytest.raises(NetlistLintError):
            preflight_circuit(_bad_circuit())

    def test_warn_policy_downgrades_errors(self):
        with pytest.warns(NetlistLintWarning, match="NL001"):
            report = preflight_circuit(_bad_circuit(), lint="warn")
        assert report is not None and not report.ok

    def test_off_policy_skips_linting(self):
        assert preflight_circuit(_bad_circuit(), lint="off") is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="lint must be one of"):
            preflight_circuit(_bad_circuit(), lint="loudly")

    def test_warning_findings_warn_under_raise(self):
        c = Circuit("deadgate")
        c.add_input("a")
        c.add_gate("g1", GateType.INV, ["a"], "y")  # zero fanout, no PO
        with pytest.warns(NetlistLintWarning, match="NL004"):
            report = preflight_circuit(c, lint="raise")
        assert report is not None and report.ok

    def test_lint_error_is_a_value_error(self):
        # Callers guarding the pre-lint Circuit.validate() failures with
        # ``except ValueError`` must keep working.
        with pytest.raises(ValueError):
            preflight_circuit(_bad_circuit())

    def test_preflight_circuit_raises_on_vector_mismatch(self):
        chain = inverter_chain(3)
        with pytest.raises(NetlistLintError, match="NL007"):
            preflight_circuit(chain, vectors=[{"wrong_net": 0}])

    def test_rule_subset_selection(self):
        report = lint_circuit(_bad_circuit(), rules=["NL004"])
        assert report.clean  # NL001 excluded by the subset
        with pytest.raises(KeyError, match="NL999"):
            lint_circuit(_bad_circuit(), rules=["NL999"])


class TestEntryPointWiring:
    def test_compile_rejects_malformed_circuit_before_solving(self, library25):
        from repro.engine.compile import compile_circuit

        with pytest.raises(NetlistLintError, match="NL001"):
            compile_circuit(_bad_circuit(), library25)

    def test_compile_lint_off_falls_back_to_validate(self, library25):
        from repro.engine.compile import compile_circuit

        with pytest.raises(ValueError) as excinfo:
            compile_circuit(_bad_circuit(), library25, lint="off")
        assert not isinstance(excinfo.value, NetlistLintError)

    def test_reference_simulator_rejects_malformed_circuit(self, bulk50):
        from repro.core.reference import ReferenceSimulator

        simulator = ReferenceSimulator(bulk50)
        with pytest.raises(NetlistLintError, match="NL001"):
            simulator.estimate(_bad_circuit(), {"a": 0})

    def test_vector_campaign_rejects_mismatched_vectors(self, library25):
        from repro.core import LoadingAwareEstimator
        from repro.core.vectors import run_vector_campaign

        estimator = LoadingAwareEstimator(library25)
        with pytest.raises(NetlistLintError, match="NL007"):
            run_vector_campaign(
                estimator, inverter_chain(3), vectors=[{"bogus": 1}]
            )

    def test_minimize_leakage_rejects_malformed_circuit(self, library25):
        from repro.core import LoadingAwareEstimator
        from repro.optimize import minimize_leakage

        estimator = LoadingAwareEstimator(library25)
        with pytest.raises(NetlistLintError, match="NL001"):
            minimize_leakage(estimator, _bad_circuit())


# --------------------------------------------------------------------- #
# report plumbing
# --------------------------------------------------------------------- #
class TestReportApi:
    def test_json_round_trip(self):
        report = lint_circuit(_bad_circuit())
        payload = json.loads(report.to_json())
        assert payload["subject"] == "bad"
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["rule"] == "NL001"

    def test_merge_reports(self):
        merged = merge_reports(
            "both",
            [lint_circuit(_bad_circuit()), lint_circuit(inverter_chain(2))],
        )
        assert merged.subject == "both"
        assert merged.rule_histogram() == {"NL001": 1}

    def test_diagnostic_rendering_names_code_and_severity(self):
        report = lint_circuit(_bad_circuit())
        text = str(report.diagnostics[0])
        assert "NL001" in text and "error" in text
        assert "NL001" in report.render_text()


# --------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------- #
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.bench"
        path.write_text(write_bench(nand_tree(3)))
        assert lint_main([str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_corrupted_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n")
        assert lint_main([str(path)]) == 1
        assert "NL100" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope.bench")]) == 1
        assert "cannot read file" in capsys.readouterr().out

    def test_warning_only_file_gated_by_werror(self, tmp_path, capsys):
        path = tmp_path / "deadgate.bench"
        # d never reaches an output: zero-fanout warning, not an error.
        path.write_text(
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nd = NOT(a)\n"
        )
        assert lint_main([str(path)]) == 0
        assert lint_main([str(path), "--werror"]) == 1
        assert "NL004" in capsys.readouterr().out

    def test_json_report_written(self, tmp_path, capsys):
        bench = tmp_path / "clean.bench"
        bench.write_text(write_bench(nand_tree(3)))
        out = tmp_path / "report.json"
        assert lint_main([str(bench), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert len(payload["subjects"]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.code in out

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([])
        assert excinfo.value.code == 2

    def test_self_check_passes(self, capsys):
        assert lint_main(["--self-check", "--scale", "0.25", "--quiet"]) == 0
        assert "0 error(s)" in capsys.readouterr().out
