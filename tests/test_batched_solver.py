"""Equivalence tests: batched DC solver vs the scalar oracle.

The batched subsystem (vectorized device models, ``BatchedDcSolver``, the
batched characterization and Monte-Carlo paths) must reproduce the scalar
reference path: node voltages to solver tolerance, leakage breakdowns to a
tight relative tolerance, and — for the batch plumbing itself — results that
are bitwise independent of how instances are grouped into batches.
"""

from dataclasses import astuple

import numpy as np
import pytest

from repro.circuit.flatten import flatten
from repro.circuit.generators import loaded_inverter_cluster
from repro.device.batched import _ARRAY_FIELDS, PackedMosfets
from repro.device.mosfet import Mosfet
from repro.gates.characterize import CharacterizationOptions, GateCharacterizer
from repro.gates.library import GateType, gate_spec
from repro.gates.templates import build_gate_transistors
from repro.oracle import (
    DcSolver,
    characterize_per_cell,
    leakage_by_owner,
    monte_carlo_per_sample,
    scalar_cell_solve,
)
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import TransistorNetlist
from repro.spice.solver import SolverOptions
from repro.utils.rng import spawn_streams
from repro.utils.rootfind import chandrupatla
from repro.variation import moments
from repro.variation.montecarlo import (
    MonteCarloSample,
    _stream_draws,
    build_sample_task,
    loaded_transistor_count,
    simulate_batch_from_draws,
)
from repro.variation.qmc import ParameterDraws, draw_qmc_parameters
from repro.variation.spec import (
    InterDieSample,
    VariationSpec,
    _shift_device,
    apply_inter_die,
    sample_inter_die,
    sample_intra_die_vth,
)

#: Tolerances tight enough that solver-termination noise sits far below the
#: leakage agreement bar used by the equivalence assertions.
TIGHT = SolverOptions(voltage_tol=1e-10, xtol=1e-13, max_sweeps=200)

#: Reduced grid keeps the characterization comparisons quick.
SMALL_GRID = (-2.0e-6, -0.5e-6, 0.5e-6, 2.0e-6)


class TestVectorizedDeviceModels:
    def test_packed_matches_scalar_mosfet(self, bulk25):
        rng = np.random.default_rng(42)
        grid = []
        for slot in range(4):
            row = []
            for b in range(6):
                device = bulk25.nmos if slot % 2 == 0 else bulk25.pmos
                device = device.replace(
                    tox_nm=device.tox_nm + 0.01 * b,
                    length_nm=device.length_nm + 0.2 * b,
                )
                device = device.replace_subthreshold(
                    vth0=device.subthreshold.vth0 + 0.002 * b
                )
                row.append(Mosfet(device, vth_shift=0.001 * b))
            grid.append(row)
        packed = PackedMosfets(grid, 320.0)
        vg, vd, vs, vb = rng.uniform(-0.1, 1.0, size=(4, 4, 6))
        ig, idr, isr, ib = packed.kcl_currents(vg, vd, vs, vb)
        components = packed.component_currents(vg, vd, vs, vb)
        for t in range(4):
            for b in range(6):
                want = grid[t][b].terminal_currents(
                    vg[t, b], vd[t, b], vs[t, b], vb[t, b], 320.0
                )
                for got, expected in (
                    (ig[t, b], want.ig),
                    (idr[t, b], want.id),
                    (isr[t, b], want.is_),
                    (ib[t, b], want.ib),
                    (components.i_subthreshold[t, b], want.i_subthreshold),
                    (components.i_gate[t, b], want.i_gate),
                    (components.i_btbt[t, b], want.i_btbt),
                ):
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-28)

    def test_polarity_must_stay_constant_per_slot(self, bulk25):
        grid = [[Mosfet(bulk25.nmos), Mosfet(bulk25.pmos)]]
        with pytest.raises(ValueError, match="polarity"):
            PackedMosfets(grid, 300.0)

    @pytest.mark.parametrize("columns", [1, 5])
    def test_from_kinds_equals_mosfet_grid(self, bulk25, columns):
        kinds = [
            [
                flavour.replace(length_nm=flavour.length_nm + 0.3 * b)
                for b in range(columns)
            ]
            for flavour in (bulk25.nmos, bulk25.pmos, bulk25.nmos.scaled_width(2.0))
        ]
        slot_kinds = [0, 1, 2, 0, 1]
        vth_shift = np.random.default_rng(3).normal(0.0, 0.03, size=(5, columns))
        got = PackedMosfets.from_kinds(kinds, slot_kinds, vth_shift, 310.0)
        want = PackedMosfets(
            [
                [Mosfet(kinds[k][b], vth_shift=vth_shift[t, b]) for b in range(columns)]
                for t, k in enumerate(slot_kinds)
            ],
            310.0,
        )
        assert (got.slots, got.batch) == (want.slots, want.batch)
        for name in _ARRAY_FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).shape == getattr(want, name).shape


class TestChandrupatla:
    def test_finds_roots_of_mixed_functions(self):
        def f(x):
            out = np.empty_like(x)
            out[0] = x[0] ** 3 - 2.0
            out[1] = np.exp(x[1]) - 5.0
            out[2] = x[2] - 0.25
            return out

        roots = chandrupatla(
            f, np.array([0.0, 0.0, -1.0]), np.array([2.0, 3.0, 1.0]), xtol=1e-13
        )
        assert roots == pytest.approx(
            [2.0 ** (1 / 3), np.log(5.0), 0.25], abs=1e-12
        )

    def test_batch_composition_does_not_change_roots(self):
        def f(x):
            return np.exp(x) - 3.0

        alone = chandrupatla(f, np.array([0.0]), np.array([2.0]), xtol=1e-13)
        batch = chandrupatla(
            f, np.zeros(5), np.full(5, 2.0), xtol=1e-13
        )
        assert np.all(batch == alone[0])

    def test_frozen_columns_keep_their_values(self):
        def f(x):
            return x - 1.0

        frozen = np.array([False, True])
        values = np.array([0.0, 7.5])
        roots = chandrupatla(
            f,
            np.zeros(2),
            np.full(2, 2.0),
            xtol=1e-13,
            frozen=frozen,
            frozen_values=values,
        )
        assert roots[1] == 7.5
        assert roots[0] == pytest.approx(1.0, abs=1e-12)

    def test_missing_sign_change_rejected(self):
        def f(x):
            return x + 10.0

        with pytest.raises(ValueError, match="sign change"):
            chandrupatla(f, np.zeros(1), np.ones(1), xtol=1e-13)


def _nand2_cell(technology, vector, injection=None):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    if injection:
        netlist.add_current_source("out", injection)
    return netlist


@pytest.mark.slow
class TestBatchedSolverEquivalence:
    def test_voltages_and_leakage_match_scalar_oracle(self, bulk25):
        injections = [None, 5e-7, -5e-7, 2e-6, -2e-6]
        netlists = [_nand2_cell(bulk25, (1, 0), inj) for inj in injections]
        batched = BatchedDcSolver(netlists, 300.0, TIGHT)
        op = batched.solve()
        assert op.all_converged
        owner_leakage = batched.leakage_by_owner(op)["g"]
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, TIGHT).solve()
            assert scalar_op.converged
            for name, voltage in scalar_op.voltages.items():
                batched_v = op.voltages[op.node_index[name], index]
                assert batched_v == pytest.approx(voltage, abs=TIGHT.voltage_tol)
            scalar_leakage = leakage_by_owner(netlist, scalar_op)["g"]
            got = owner_leakage.at(index)
            assert got.subthreshold == pytest.approx(
                scalar_leakage.subthreshold, rel=1e-9, abs=0
            )
            assert got.gate == pytest.approx(scalar_leakage.gate, rel=1e-9, abs=0)
            assert got.btbt == pytest.approx(scalar_leakage.btbt, rel=1e-9, abs=0)

    def test_default_tolerances_agree_to_voltage_tol(self, bulk25):
        netlists = [_nand2_cell(bulk25, (0, 0)), _nand2_cell(bulk25, (1, 1))]
        options = SolverOptions()
        op = BatchedDcSolver(netlists, 300.0, options).solve()
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, options).solve()
            for name, voltage in scalar_op.voltages.items():
                batched_v = op.voltages[op.node_index[name], index]
                assert batched_v == pytest.approx(
                    voltage, abs=2.0 * options.voltage_tol
                )

    def test_pathological_no_sign_change_node_pins_like_scalar(self, bulk25):
        """A node attached only to a gate terminal, with a huge forced
        injection the tunneling current cannot absorb: both solvers must pin
        it to the same admissible-range endpoint."""

        def build():
            netlist = TransistorNetlist(vdd=bulk25.vdd)
            netlist.add_node("float_gate")
            netlist.add_transistor(
                name="m1",
                mosfet=Mosfet(bulk25.nmos),
                gate="float_gate",
                drain="vdd",
                source="gnd",
                bulk="gnd",
                owner="g",
            )
            netlist.add_current_source("float_gate", 1.0e-3)
            return netlist

        scalar_op = DcSolver(build(), 300.0, TIGHT).solve()
        batched_op = BatchedDcSolver([build()], 300.0, TIGHT).solve()
        assert batched_op.voltage("float_gate")[0] == pytest.approx(
            scalar_op.voltage("float_gate"), abs=1e-12
        )
        # The pin really is at the upper bracket limit.
        assert scalar_op.voltage("float_gate") == pytest.approx(
            bulk25.vdd + TIGHT.bracket_margin
        )

    def test_instances_converge_at_different_sweep_counts(self, bulk25):
        netlists = [
            _nand2_cell(bulk25, (0, 0)),
            _nand2_cell(bulk25, (1, 1), injection=3e-6),
        ]
        # Deliberately poor initial guess for the second instance only.
        op = BatchedDcSolver(netlists, 300.0, TIGHT).solve(
            initial_voltages=[{"out": bulk25.vdd}, {"out": 0.0}]
        )
        assert op.all_converged
        assert op.sweeps[0] != op.sweeps[1]
        # Each instance must match its own single-instance solve bitwise:
        # converged columns freeze, so batch composition cannot leak in.
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT).solve(
                initial_voltages=[
                    {"out": bulk25.vdd} if index == 0 else {"out": 0.0}
                ]
            )
            assert np.array_equal(alone.voltages[:, 0], op.voltages[:, index])
            assert alone.sweeps[0] == op.sweeps[index]

    def test_prebuilt_pack_needs_views_sharing_one_transistor_list(self, bulk25):
        netlists = [_nand2_cell(bulk25, (1, 0)), _nand2_cell(bulk25, (0, 1))]
        packed = BatchedDcSolver(netlists, 300.0).packed
        with pytest.raises(ValueError, match="pre-built device pack"):
            BatchedDcSolver(netlists, 300.0, packed=packed)

    def test_topology_mismatch_rejected(self, bulk25):
        good = _nand2_cell(bulk25, (0, 0))
        renamed = TransistorNetlist(vdd=bulk25.vdd)
        renamed.add_node("a", fixed_voltage=0.0)
        renamed.add_node("b", fixed_voltage=0.0)
        build_gate_transistors(
            renamed, bulk25, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out2"}
        )
        with pytest.raises(ValueError, match="node names"):
            BatchedDcSolver([good, renamed], 300.0)

    def test_mixed_supply_voltages_in_one_batch(self, bulk25):
        """Instances may run at different VDD (the Monte-Carlo case)."""

        def cell(vdd_scale):
            scaled = bulk25.replace(vdd=bulk25.vdd * vdd_scale)
            netlist = TransistorNetlist(vdd=scaled.vdd)
            netlist.add_node("in", fixed_voltage=0.0)
            build_gate_transistors(
                netlist, scaled, GateType.INV, "g", {"a": "in", "y": "out"}
            )
            return netlist

        netlists = [cell(1.0), cell(0.9), cell(1.1)]
        op = BatchedDcSolver(netlists, 300.0, TIGHT).solve()
        assert op.all_converged
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, TIGHT).solve()
            assert op.voltage("out")[index] == pytest.approx(
                scalar_op.voltage("out"), abs=1e-9
            )


def _count_batched_solves(monkeypatch) -> list[int]:
    """Record the column count of every ``BatchedDcSolver.solve`` call."""
    batches: list[int] = []
    real = BatchedDcSolver.solve

    def counting(self, *args, **kwargs):
        op = real(self, *args, **kwargs)
        batches.append(int(op.batch))
        return op

    monkeypatch.setattr(BatchedDcSolver, "solve", counting)
    return batches


@pytest.mark.slow
class TestBatchedCharacterizationEquivalence:
    def test_records_match_scalar_engine(self, bulk25):
        """Batched Newton records hold to the scalar Gauss–Seidel oracle at
        1e-9 relative, with every cell converged and no column handed to the
        fallback, for a three-high stack and a gate with internal inverters:
        every vector's nominal components, and one vector's full record with
        every curve point.  The oracle relaxes at ~0.1 s a cell, so the
        curves of the other vectors are left out."""
        options = CharacterizationOptions(
            injection_grid=SMALL_GRID, solver=TIGHT, on_nonconverged="raise"
        )
        scalar = GateCharacterizer(bulk25, options=options)
        batched = GateCharacterizer(bulk25, options=options)
        for gate_type, curve_vector in (
            (GateType.NAND3, (1, 0, 1)),
            (GateType.XOR2, (1, 1)),
        ):
            records = batched.characterize_type(gate_type)
            assert set(records) == set(gate_spec(gate_type).all_vectors())
            for vector, got in records.items():
                cell = scalar_cell_solve(scalar, gate_type, vector)
                assert got.output_voltage == pytest.approx(
                    cell.op.voltage(cell.output_net), abs=1e-9
                )
                for component in ("subthreshold", "gate", "btbt"):
                    assert got.nominal.component(component) == pytest.approx(
                        cell.dut_breakdown.component(component), rel=1e-9, abs=0.0
                    )
            want = characterize_per_cell(scalar, gate_type, curve_vector)
            got = records[curve_vector]
            for pin, expected in want.pin_injection.items():
                assert got.pin_injection[pin] == pytest.approx(
                    expected, rel=1e-9, abs=1e-24
                )
            assert set(got.responses) == set(want.responses)
            for pin, curve in want.responses.items():
                batched_curve = got.responses[pin]
                np.testing.assert_array_equal(
                    batched_curve.injections, curve.injections
                )
                for component in ("subthreshold", "gate", "btbt"):
                    np.testing.assert_allclose(
                        getattr(batched_curve, component),
                        getattr(curve, component),
                        rtol=1e-9,
                    )
        assert batched.solve_stats["fallbacks"] == 0
        assert batched.solve_stats["methods"] == {"newton": batched.solve_stats["solves"]}

    def test_characterize_type_matches_per_vector_calls(self, bulk25, monkeypatch):
        """The whole type characterizes in two solves, whatever its vector
        count: the nominal cells, then every (vector, pin, injection) cell."""
        options = CharacterizationOptions(injection_grid=SMALL_GRID)
        characterizer = GateCharacterizer(bulk25, options=options)
        batches = _count_batched_solves(monkeypatch)
        whole = characterizer.characterize_type(GateType.NAND2)
        spec = gate_spec(GateType.NAND2)
        assert set(whole) == set(spec.all_vectors())
        nonzero = len(options.curve_grid()) - 1
        pins = len(spec.inputs) + 1
        assert batches == [len(whole), len(whole) * pins * nonzero]
        assert characterizer.solve_stats["solves"] == sum(batches)
        single = characterizer.characterize(GateType.NAND2, (0, 1))
        record = whole[(0, 1)]
        assert record.nominal.total == pytest.approx(
            single.nominal.total, rel=1e-9, abs=0
        )

    def test_duplicate_vectors_rejected(self, bulk25):
        characterizer = GateCharacterizer(bulk25)
        with pytest.raises(ValueError, match="duplicate"):
            characterizer.characterize_type(GateType.INV, [(0,), (0,)])


@pytest.mark.slow
class TestBatchedMonteCarloEquivalence:
    def test_samples_match_scalar_engine(self, d25s):
        task = build_sample_task(
            d25s, input_loads=2, output_loads=2, solver_options=TIGHT
        )
        draws = _stream_draws(task, spawn_streams(31, 6))
        batched = simulate_batch_from_draws(task, draws)
        for index, scalar in enumerate(monte_carlo_per_sample(task, draws)):
            for loaded in (True, False):
                want = scalar.with_loading if loaded else scalar.without_loading
                got = (
                    batched[index].with_loading
                    if loaded
                    else batched[index].without_loading
                )
                for component in ("subthreshold", "gate", "btbt"):
                    assert got.component(component) == pytest.approx(
                        want.component(component), rel=1e-9, abs=0.0
                    )

    def test_chunking_is_bitwise_invariant(self, d25s, monkeypatch):
        """Chunks of a block reproduce it bitwise; each block, whatever its
        size, solves as one loaded and one unloaded batch."""
        task = build_sample_task(d25s, input_loads=1, output_loads=1)
        draws = _stream_draws(task, spawn_streams(5, 4))
        batches = _count_batched_solves(monkeypatch)
        whole = simulate_batch_from_draws(task, draws)
        chunked = simulate_batch_from_draws(task, draws.slice(0, 2))
        chunked += simulate_batch_from_draws(task, draws.slice(2, 4))
        assert batches == [4, 4, 2, 2, 2, 2]
        for a, b in zip(whole, chunked):
            assert a.with_loading.total == b.with_loading.total
            assert a.without_loading.total == b.without_loading.total


def _per_sample_flatten_oracle(task, draws):
    """The batch construction the array binding replaced, kept as its oracle.

    Every column flattens both study structures under its own shifted
    technology and writes the intra-die shifts onto the transistors' Mosfets
    (the unloaded twin by name); each structure's columns then solve as one
    batch, exactly as the engine's do.
    """
    loaded = loaded_inverter_cluster(task.input_loads, task.output_loads)
    unloaded = loaded_inverter_cluster(0, 0, name="unloaded_inverter")
    assignment = {"in": 1 - task.input_value}
    names = [f"{gate}.{suffix}" for gate in loaded.gates for suffix in ("mn1", "mp2")]
    solved = []
    for circuit in (loaded, unloaded):
        flats = []
        for index in range(draws.sample_count):
            shifted = apply_inter_die(task.technology, draws.inter_die(index))
            flat = flatten(circuit, shifted, assignment)
            shifts = dict(zip(names, draws.intra_vth(index)))
            for transistor in flat.netlist.transistors:
                transistor.mosfet.vth_shift = shifts[transistor.name]
            flats.append(flat)
        solver = BatchedDcSolver(
            [f.netlist for f in flats], task.temperature_k, task.solver_options
        )
        op = solver.solve(initial_voltages=[f.initial_voltages() for f in flats])
        solved.append((solver.leakage_by_owner(op)["g"], op.converged))
    (with_loading, loaded_ok), (without_loading, unloaded_ok) = solved
    return [
        MonteCarloSample(
            with_loading.at(b), without_loading.at(b), bool(loaded_ok[b] and unloaded_ok[b])
        )
        for b in range(draws.sample_count)
    ]


def _redraw_streams(task, seed, count):
    """Re-draw what ``_stream_draws`` draws from ``spawn_streams(seed, count)``."""
    transistors = loaded_transistor_count(task.input_loads, task.output_loads)
    inter, intra = [], []
    for rng in spawn_streams(seed, count):
        inter.append(astuple(sample_inter_die(task.spec, rng)))
        intra.append(sample_intra_die_vth(task.spec, rng, transistors))
    return ParameterDraws(task.spec, *np.array(inter).T, intra_vth_v=np.array(intra))


def _as_dicts(samples):
    return [
        (s.with_loading.as_dict(), s.without_loading.as_dict(), s.converged)
        for s in samples
    ]


#: Specs of the binding cases: the default, one whose VDD sigma puts some
#: columns on the 0.5 VDD clamp, and one without intra-die variation.
BINDING_SPECS = {
    "default": VariationSpec(),
    "clamp": VariationSpec(sigma_vdd_v=0.3, truncation=2.0),
    "no-intra": VariationSpec(sigma_vth_intra_v=0.0),
    # Fewer than two varying axes: moments propagate in closed form.
    "one-axis": VariationSpec(
        sigma_length_nm=0.0, sigma_tox_nm=0.0, sigma_vth_intra_v=0.0, sigma_vdd_v=0.0
    ),
    "zero": VariationSpec(
        sigma_length_nm=0.0,
        sigma_tox_nm=0.0,
        sigma_vth_inter_v=0.0,
        sigma_vth_intra_v=0.0,
        sigma_vdd_v=0.0,
    ),
}

#: (spec, input value, input loads, output loads) of the binding cases.
BINDING_CASES = [
    ("default", 0, 6, 6),
    ("default", 1, 2, 0),
    ("clamp", 0, 2, 0),
    ("clamp", 1, 6, 6),
    ("no-intra", 1, 6, 6),
    ("no-intra", 0, 2, 0),
]


def _binding_task(technology, case):
    spec, input_value, input_loads, output_loads = case
    return build_sample_task(
        technology,
        spec=BINDING_SPECS[spec],
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
    )


def _assert_case_covered(task, draws):
    """The clamp cases must put columns on the clamp; check the clamp itself."""
    vdd = task.technology.vdd
    clamped = np.flatnonzero(draws.delta_vdd_v < -0.5 * vdd)
    if task.spec is BINDING_SPECS["clamp"]:
        assert clamped.size > 0
        for b in clamped:
            assert apply_inter_die(task.technology, draws.inter_die(b)).vdd == 0.5 * vdd
    if task.spec is BINDING_SPECS["no-intra"]:
        assert not draws.intra_vth_v.any()


@pytest.mark.slow
class TestMonteCarloBinding:
    """The array binding is bitwise the per-sample-flatten construction."""

    @pytest.mark.parametrize("case", BINDING_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_stream_batch_matches_oracle(self, d25s, case):
        task = _binding_task(d25s, case)
        draws = _redraw_streams(task, 17, 16)
        _assert_case_covered(task, draws)
        got = simulate_batch_from_draws(task, _stream_draws(task, spawn_streams(17, 16)))
        assert _as_dicts(got) == _as_dicts(_per_sample_flatten_oracle(task, draws))

    @pytest.mark.parametrize("case", BINDING_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_draws_batch_matches_oracle(self, d25s, case):
        task = _binding_task(d25s, case)
        draws = draw_qmc_parameters(
            task.spec, 16, loaded_transistor_count(task.input_loads, task.output_loads), 3
        )
        _assert_case_covered(task, draws)
        got = simulate_batch_from_draws(task, draws)
        assert _as_dicts(got) == _as_dicts(_per_sample_flatten_oracle(task, draws))

    @pytest.mark.parametrize(
        "case",
        [
            ("default", 0, 2, 0, "sobol-quadrature"),
            ("clamp", 1, 6, 6, "sobol-quadrature"),
            ("one-axis", 0, 2, 0, "closed-form"),
            ("zero", 1, 6, 6, "closed-form"),
        ],
        ids=lambda c: f"{c[0]}-{c[4]}",
    )
    def test_moments_match_oracle(self, d25s, monkeypatch, case):
        spec, input_value, input_loads, output_loads, method = case
        kwargs = dict(
            spec=BINDING_SPECS[spec],
            input_value=input_value,
            input_loads=input_loads,
            output_loads=output_loads,
        )
        got = moments.propagate_loaded_inverter_moments(d25s, **kwargs)
        monkeypatch.setattr(moments, "_solve_parameter_sets", _per_sample_flatten_oracle)
        want = moments.propagate_loaded_inverter_moments(d25s, **kwargs)
        assert got.method == want.method == method
        assert got.loaded == want.loaded
        assert got.unloaded == want.unloaded

    @pytest.mark.parametrize("flavour", ["nmos", "pmos"])
    def test_inter_die_shift_commutes_with_width_scaling(self, d25s, flavour):
        device = getattr(d25s, flavour)
        samples = [
            InterDieSample(0.0, 0.0, 0.0, 0.0),
            InterDieSample(-1.7, 0.05, -0.02, 0.01),
            InterDieSample(6.0, -0.2, 0.09, -0.1),
            InterDieSample(-60.0, -5.0, 0.03, 0.0),  # hits the L and Tox floors
        ]
        for sample in samples:
            for width in (1, 2, 3):
                assert _shift_device(device.scaled_width(width), sample) == (
                    _shift_device(device, sample).scaled_width(width)
                )
