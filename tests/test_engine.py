"""Regression tests for the batched campaign engine.

The contract of :mod:`repro.engine` is equivalence: the per-vector
gate-by-gate walk :class:`repro.oracle.PerGateEstimator` (run through
:func:`repro.oracle.per_vector_campaign`) is the oracle, and the batched engine must reproduce its totals (and
per-gate breakdowns) to rounding error.  A second oracle, the engine's earlier full-grid gather kept
below, pins every engine output array bitwise.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.circuit.generators import (
    inverter_chain,
    iscas_like,
    loaded_inverter_cluster,
    nand_tree,
    random_logic,
)
from repro.circuit.graph import levelize
from repro.circuit.logic import random_vectors
from repro.circuit import netlist as netlist_module
from repro.circuit.netlist import Circuit, Gate
from repro.core.baseline import NoLoadingEstimator
from repro.core.estimator import LoadingAwareEstimator
from repro.core.report import REPORT_COMPONENTS
from repro.core.vectors import run_vector_campaign
from repro.engine import (
    CompiledCircuit,
    clear_compile_cache,
    compile_circuit,
    run_compiled,
    run_totals,
)
from repro.engine import campaign as campaign_module
from repro.engine.campaign import DEFAULT_CHUNK_SIZE, LOOKUP_TILE_ELEMENTS
from repro.engine.compile import CompileCache, build_lookup_plan
from repro.gates import lut
from repro.gates.characterize import GateCharacterizer, GateLibrary
from repro.gates.library import GateType, gate_spec
from repro.oracle import PerGateEstimator, per_vector_campaign
from repro.service import EstimationSession


def _assert_campaigns_match(batched, scalar, rtol=1e-12):
    assert batched.vector_count == scalar.vector_count
    assert batched.method == scalar.method
    for component in REPORT_COMPONENTS:
        expected = scalar.totals(component)
        observed = batched.totals(component)
        np.testing.assert_allclose(observed, expected, rtol=rtol, atol=0.0)


# --------------------------------------------------------------------------- #
# Full-grid oracle: the engine's earlier gather, kept as a test-only copy.
# It builds every lookup's whole (G, 3) response curve and keeps two points
# with take_along_axis, propagates logic per (level, gate type) group and
# sums pin injections per net with np.add.at.  The production engine must
# reproduce it bitwise.
# --------------------------------------------------------------------------- #
def _oracle_interp(grid, curves, queries):
    left = np.searchsorted(grid, queries, side="right") - 1
    left = np.clip(left, 0, grid.size - 2)
    x0 = grid[left]
    x1 = grid[left + 1]
    t = np.clip((queries - x0) / (x1 - x0), 0.0, 1.0)
    v0 = np.take_along_axis(curves, left[..., None, None], axis=-2)[..., 0, :]
    v1 = np.take_along_axis(curves, (left + 1)[..., None, None], axis=-2)[..., 0, :]
    return v0 + t[..., None] * (v1 - v0)


def _oracle_components(table, packed, loading, enforce=lut.enforce_injection_range):
    """Clamped ``(n, V, 3)`` components; ``loading`` is ``(n, V, k+1)``."""
    active = loading != 0.0
    has_response = table.has_response[packed]
    if np.any(active & ~has_response):
        g_bad, v_bad, p_bad = np.argwhere(active & ~has_response)[0]
        raise KeyError(
            f"pin index {int(p_bad)} of {table.name} has no characterized "
            f"response but sees a nonzero loading current"
        )
    low, high = float(table.grid[0]), float(table.grid[-1])
    out_low = active & (loading < low)
    out_high = active & (loading > high)
    if np.any(out_low):
        enforce(
            f"gate type {table.name!r}", float(loading[out_low].min()),
            low, high, dedup_key=("engine", table.name),
        )
    if np.any(out_high):
        enforce(
            f"gate type {table.name!r}", float(loading[out_high].max()),
            low, high, dedup_key=("engine", table.name),
        )
    nominal = table.nominal[packed]
    curves = table.response[packed]
    interpolated = _oracle_interp(table.grid, curves, loading)
    delta = np.where(active[..., None], interpolated - nominal[:, :, None, :], 0.0)
    return np.maximum(nominal + delta.sum(axis=2), 0.0)


def _oracle_run(compiled, pi_bits, include_loading):
    """Return the oracle's ``(per_gate, vec_index, input_loading, output_loading)``."""
    circuit = compiled.circuit
    n_vectors = pi_bits.shape[1]
    per_gate = np.zeros((compiled.n_gates, n_vectors, 3))
    vec_index = np.zeros((compiled.n_gates, n_vectors), dtype=np.int64)
    input_loading = np.zeros((compiled.n_gates, n_vectors))
    output_loading = np.zeros((compiled.n_gates, n_vectors))

    levels = levelize(circuit)
    by_level_type: dict[tuple[int, int], list[int]] = {}
    for g, name in enumerate(compiled.gate_names):
        key = (levels[name], int(compiled.gate_type_index[g]))
        by_level_type.setdefault(key, []).append(g)
    net_values = np.zeros((compiled.n_nets, n_vectors), dtype=np.uint8)
    net_values[compiled.pi_indices] = pi_bits
    for (_, t), gates in sorted(by_level_type.items()):
        table = compiled.tables[t]
        k = table.num_inputs
        inputs = np.array(
            [
                [compiled.net_index[net] for net in circuit.gates[compiled.gate_names[g]].inputs]
                for g in gates
            ],
            dtype=np.intp,
        ).reshape(len(gates), k)
        weights = (1 << np.arange(k - 1, -1, -1, dtype=np.int64))[None, :, None]
        packed = (net_values[inputs].astype(np.int64) * weights).sum(axis=1)
        vec_index[gates] = packed
        net_values[compiled.gate_output_net[gates]] = table.truth[packed]

    if not include_loading:
        for group in compiled.type_groups:
            table = compiled.tables[group.type_index]
            per_gate[group.gate_indices] = np.maximum(
                table.nominal[vec_index[group.gate_indices]], 0.0
            )
        return per_gate, vec_index, input_loading, output_loading

    pin_injection = np.zeros((compiled.n_pins, n_vectors))
    for group in compiled.type_groups:
        table = compiled.tables[group.type_index]
        inj = table.pin_injection[vec_index[group.gate_indices]]
        pin_injection[group.pin_slice] = np.swapaxes(inj, 1, 2).reshape(-1, n_vectors)
    net_injection = np.zeros((compiled.n_nets, n_vectors))
    np.add.at(net_injection, compiled.pin_net, pin_injection)
    if compiled.has_tied_inputs:
        own_injection = np.zeros((compiled.n_pin_groups, n_vectors))
        np.add.at(own_injection, compiled.pin_group, pin_injection)
        pin_loading = net_injection[compiled.pin_net] - own_injection[compiled.pin_group]
    else:
        pin_loading = net_injection[compiled.pin_net] - pin_injection
    pin_loading[compiled.pin_on_pi] = 0.0

    for group in compiled.type_groups:
        table = compiled.tables[group.type_index]
        n = group.gate_indices.size
        k = table.num_inputs
        loading_in = pin_loading[group.pin_slice].reshape(n, k, n_vectors)
        loading_out = net_injection[group.output_nets][:, None, :]
        loading = np.swapaxes(np.concatenate([loading_in, loading_out], axis=1), 1, 2)
        packed = vec_index[group.gate_indices]
        per_gate[group.gate_indices] = _oracle_components(table, packed, loading)
        input_loading[group.gate_indices] = loading[..., :k].sum(axis=2)
        output_loading[group.gate_indices] = loading[..., k]
    return per_gate, vec_index, input_loading, output_loading


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tied_circuit():
    circuit = Circuit(name="tied_oracle")
    circuit.add_input("in")
    circuit.add_input("en")
    circuit.add_gate("drv", GateType.INV, ["in"], "x")
    circuit.add_gate("tied", GateType.NAND2, ["x", "x"], "y")
    circuit.add_gate("tied3", GateType.NAND3, ["x", "y", "x"], "w")
    circuit.add_gate("mix", GateType.NOR2, ["en", "x"], "v")
    circuit.add_gate("load", GateType.INV, ["x"], "z")
    for net in ("w", "v", "z"):
        circuit.add_output(net)
    return circuit


#: Builders of the oracle circuits; "mixed_arity" uses every gate type.
_ORACLE_CIRCUITS = {
    "random": lambda: random_logic("oracle_random", 10, 120, rng=11),
    "s838": lambda: iscas_like("s838", scale=0.1),
    "s1196": lambda: iscas_like("s1196", scale=0.08),
    "tied": _tied_circuit,
    "mixed_arity": lambda: random_logic(
        "oracle_mixed", 8, 90, rng=5, gate_mix=dict.fromkeys(GateType, 1.0), locality=12
    ),
}


@pytest.fixture
def clamp_policy():
    previous = lut.set_extrapolation_policy("clamp")
    yield
    lut.set_extrapolation_policy(previous)


class TestEngineMatchesFullGridOracle:
    @pytest.mark.parametrize("include_loading", [True, False])
    @pytest.mark.parametrize("name", sorted(_ORACLE_CIRCUITS))
    def test_bitwise_equal_under_two_chunkings(
        self, library_d25s, clamp_policy, monkeypatch, name, include_loading
    ):
        """At 1, 2 and 37 vectors, in default tiles, one-gate tiles and
        tiles that split a chunk three ways."""
        circuit = _ORACLE_CIRCUITS[name]()
        compiled = compile_circuit(circuit, library_d25s)
        if name == "tied":
            assert compiled.has_tied_inputs
        if name == "mixed_arity":
            assert len(compiled.tables) == len(GateType)
            assert {t.num_inputs for t in compiled.tables} == {1, 2, 3, 4}
        positions = len(compiled.plan.counts)
        for count in (1, 2, 37):
            vectors = list(random_vectors(circuit, count, rng=3))
            pi_bits = compiled.validate_assignments(vectors)
            expected = _oracle_run(compiled, pi_bits, include_loading)
            expected_totals = expected[0].sum(axis=0).sum(axis=1)
            for chunk_size in (DEFAULT_CHUNK_SIZE, 5):
                width = min(count, chunk_size)
                third = -(-compiled.n_gates // 3)
                for budget in (LOOKUP_TILE_ELEMENTS, 1, third * width * positions):
                    monkeypatch.setattr(campaign_module, "LOOKUP_TILE_ELEMENTS", budget)
                    where = (count, chunk_size, budget)
                    run = run_compiled(
                        compiled, vectors, include_loading=include_loading,
                        chunk_size=chunk_size,
                    )
                    observed = (
                        run.per_gate, run.vec_index, run.input_loading, run.output_loading
                    )
                    for label, got, want in zip(
                        ("per_gate", "vec_index", "input_loading", "output_loading"),
                        observed,
                        expected,
                    ):
                        assert _same_bits(got, want), (label, *where)
                    totals = run_totals(
                        compiled, pi_bits, include_loading=include_loading,
                        chunk_size=chunk_size,
                    )
                    assert _same_bits(totals, expected_totals), where


def _edge_loadings(grid):
    """Loadings at and between grid points, on and past both edges, and 0.0."""
    span = grid[-1] - grid[0]
    return np.concatenate(
        [
            grid,
            (grid[:-1] + grid[1:]) / 2,
            [grid[0], grid[-1], grid[0] - 0.5 * span, grid[-1] + 0.5 * span],
            [np.nextafter(grid[0], -np.inf), np.nextafter(grid[-1], np.inf)],
            [0.0, 0.0],
        ]
    )


def _hand_built(table, values):
    """Return ``(packed, loading)``: every vector x every pin x every value.

    Pin ``p`` of column ``v`` sees ``values[(v + p) % len]`` and the last
    columns are all-zero, so single- and multi-pin lookups both occur.
    """
    k = table.num_inputs
    n = 2**k
    columns = values.size + 2
    packed = np.repeat(np.arange(n, dtype=np.int64)[:, None], columns, axis=1)
    loading = np.zeros((k + 1, n, columns))
    for p in range(k + 1):
        loading[p, :, : values.size] = np.roll(values, -p)[None, :]
    return packed, loading


@pytest.fixture(scope="module")
def mixed_tables(library_d25s):
    return compile_circuit(_ORACLE_CIRCUITS["mixed_arity"](), library_d25s).tables


def _plan_lookup(tables, gate_type, packed, loading):
    """Return the engine's ``(n, V, 3)`` components over a plan of ``tables``.

    ``gate_type`` types the ``n`` gates, ``packed`` is ``(n, V)`` in plan
    order and ``loading`` is ``(slots, V)`` in the plan's slot order.
    """
    plan = build_lookup_plan(tables, np.asarray(gate_type, dtype=np.intp))
    per_gate = np.full(packed.shape + (3,), np.nan)
    campaign_module._lookup(plan, packed, plan.slot_rows(packed), loading, per_gate)
    return per_gate


def _one_type_lookup(table, packed, loading):
    """The fused lookup over a one-type plan; ``loading`` is ``(k+1, n, V)``.

    A one-type plan keeps its gates in order, and its slots are pin-major.
    """
    n, n_vectors = packed.shape
    return _plan_lookup(
        [table], np.zeros(n, dtype=np.intp), packed, loading.reshape(-1, n_vectors)
    )


class TestLookupEdges:
    def test_hand_built_loadings_match_oracle_bitwise(self, mixed_tables, clamp_policy):
        for table in mixed_tables:
            packed, loading = _hand_built(table, _edge_loadings(table.grid))
            observed = _one_type_lookup(table, packed, loading)
            expected = _oracle_components(table, packed, loading.transpose(1, 2, 0))
            assert _same_bits(observed, expected)

    def test_random_curves_match_oracle_bitwise(self, mixed_tables, clamp_policy):
        """Curves of comparable magnitude at every pin, so any change in the
        order the pin deltas are summed in shows up in the last bits."""
        rng = np.random.default_rng(7)
        for table in mixed_tables:
            nominal = rng.uniform(1e-9, 2e-9, size=table.nominal.shape)
            response = nominal[:, None, None, :] * rng.uniform(
                0.5, 1.5, size=table.response.shape
            )
            synthetic = dataclasses.replace(table, nominal=nominal, response=response)
            packed, loading = _hand_built(synthetic, _edge_loadings(table.grid))
            # 64 more columns: random vectors, loadings up to 20% past each edge.
            n = packed.shape[0]
            packed = np.concatenate([packed, rng.integers(0, n, size=(n, 64))], axis=1)
            random = rng.uniform(
                1.2 * table.grid[0], 1.2 * table.grid[-1], size=loading.shape[:2] + (64,)
            )
            loading = np.concatenate([loading, random], axis=2)
            observed = _one_type_lookup(synthetic, packed, loading)
            expected = _oracle_components(synthetic, packed, loading.transpose(1, 2, 0))
            assert _same_bits(observed, expected)

    def test_single_pin_lookups_hit_samples_and_extrapolate_flat(
        self, mixed_tables, clamp_policy
    ):
        for table in mixed_tables:
            grid = table.grid
            k = table.num_inputs
            span = grid[-1] - grid[0]
            values = np.concatenate(
                [grid, [grid[0] - 0.5 * span, grid[-1] + 0.5 * span, 0.0]]
            )
            n = 2**k
            packed = np.repeat(np.arange(n, dtype=np.int64)[:, None], values.size, axis=1)
            nominal = table.nominal[:, None, :]  # (n, 1, 3)
            for p in range(k + 1):
                loading = np.zeros((k + 1, n, values.size))
                loading[p] = values[None, :]
                got = _one_type_lookup(table, packed, loading)
                # every grid point returns that exact sample ...
                sample = table.response[:, p][:, None, :, :]  # (n, 1, G, 3)
                for g in range(grid.size):
                    if grid[g] == 0.0:
                        continue
                    want = np.maximum(
                        nominal[:, 0] + (sample[:, 0, g] - nominal[:, 0]), 0.0
                    )
                    assert _same_bits(np.ascontiguousarray(got[:, g]), want)
                # ... past either edge the edge sample (flat extrapolation) ...
                assert _same_bits(
                    np.ascontiguousarray(got[:, grid.size]), np.ascontiguousarray(got[:, 0])
                )
                assert _same_bits(
                    np.ascontiguousarray(got[:, grid.size + 1]),
                    np.ascontiguousarray(got[:, grid.size - 1]),
                )
                # ... and a zero loading contributes exactly nothing.
                assert _same_bits(
                    np.ascontiguousarray(got[:, -1]), np.maximum(table.nominal, 0.0)
                )

    def test_missing_response_raises_like_oracle(self, mixed_tables):
        table = max(mixed_tables, key=lambda t: t.num_inputs)
        k = table.num_inputs
        has_response = table.has_response.copy()
        has_response[1, k] = False  # output pin of vector 1
        has_response[0, 0] = False  # first input pin of vector 0
        incomplete = dataclasses.replace(table, has_response=has_response)
        packed = np.array([[0, 1], [1, 0]], dtype=np.int64)  # (n=2, V=2)
        loading = np.zeros((k + 1, 2, 2))
        loading[k, 0, 1] = 1e-9  # gate 0, vector 1 -> packed 1, output pin
        loading[0, 1, 1] = 1e-9  # gate 1, vector 1 -> packed 0, pin 0
        with pytest.raises(KeyError) as engine_error:
            _one_type_lookup(incomplete, packed, loading)
        with pytest.raises(KeyError) as oracle_error:
            _oracle_components(incomplete, packed, loading.transpose(1, 2, 0))
        assert str(engine_error.value) == str(oracle_error.value)
        assert f"pin index {k} of {table.name}" in str(engine_error.value)

        # Zero loadings on the missing responses are no lookups: no error,
        # and the answer stays bitwise the oracle's.
        loading[k, 0, 1] = loading[0, 1, 1] = 0.0
        loading[1] = 2e-9
        observed = _one_type_lookup(incomplete, packed, loading)
        expected = _oracle_components(incomplete, packed, loading.transpose(1, 2, 0))
        assert _same_bits(observed, expected)

    def test_grid_that_misses_zero_is_refused_at_compile(self, d25s, library_d25s):
        """The range check treats zero loadings as in range, so a grid that
        does not bracket zero never reaches the campaign."""
        records = []
        for vector in ((0,), (1,)):
            record = library_d25s.characterization(GateType.INV, vector)
            responses = {
                pin: lut.ResponseCurve(
                    pin=pin,
                    injections=curve.injections - curve.injections[0] + 1e-7,
                    subthreshold=curve.subthreshold,
                    gate=curve.gate,
                    btbt=curve.btbt,
                )
                for pin, curve in record.responses.items()
            }
            records.append(dataclasses.replace(record, responses=responses))
        shifted = GateLibrary(d25s)
        shifted.load_records(records)
        with pytest.raises(ValueError, match="brackets zero"):
            CompiledCircuit(inverter_chain(2), shifted)

    @pytest.mark.parametrize("excursion", ["far", "next_float"])
    @pytest.mark.parametrize("policy", ["warn", "raise", "clamp"])
    def test_range_policies_match_oracle(self, mixed_tables, monkeypatch, policy, excursion):
        table = mixed_tables[0]
        grid = table.grid
        if excursion == "far":
            # Far past the low edge, so the worst values differ per side.
            packed, loading = _hand_built(table, _edge_loadings(grid))
            loading[0, 0, 0] = 3.0 * grid[0]
            worst_low = 3.0 * grid[0]
        else:
            # One float past each edge, between zero loadings.
            inside = np.concatenate([grid, [0.0, 0.0]])
            packed, loading = _hand_built(table, inside)
            loading[0, 0, 0] = worst_low = np.nextafter(grid[0], -np.inf)
            loading[-1, -1, 1] = np.nextafter(grid[-1], np.inf)

        calls = {"engine": [], "oracle": []}

        def recorder(who):
            def enforce(*args, **kwargs):
                calls[who].append((args, kwargs))
                return lut.enforce_injection_range(*args, **kwargs)

            return enforce

        def outcome(run):
            lut.set_extrapolation_policy(policy)  # also clears warn-once memory
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    run()
                except ValueError as error:
                    return "raised", str(error), [str(w.message) for w in caught]
            return "returned", None, [str(w.message) for w in caught]

        previous = lut.set_extrapolation_policy(policy)
        try:
            monkeypatch.setattr(campaign_module, "enforce_injection_range", recorder("engine"))
            engine = outcome(lambda: _one_type_lookup(table, packed, loading))
            oracle = outcome(
                lambda: _oracle_components(
                    table, packed, loading.transpose(1, 2, 0), enforce=recorder("oracle")
                )
            )
        finally:
            lut.set_extrapolation_policy(previous)
        assert engine == oracle
        assert calls["engine"] == calls["oracle"]
        worst = calls["engine"][0][0][1]
        assert worst == worst_low
        if policy != "raise":
            assert calls["engine"][1][0][1] == float(loading.max())
        if policy == "warn":
            assert len(engine[2]) == 2 and f"{worst:.3e}" in engine[2][0]
        elif policy == "raise":
            assert engine[0] == "raised" and f"{worst:.3e}" in engine[1]
        else:
            assert engine == ("returned", None, [])


    @pytest.mark.parametrize("policy", ["warn", "raise", "clamp"])
    def test_two_types_check_in_type_order(self, mixed_tables, monkeypatch, policy):
        """The plan puts the wider type's gates first, but the checks run
        per type in type order, low before high, so the raise policy names
        the first type."""
        narrow = min(mixed_tables, key=lambda t: t.num_inputs)
        wide = max(mixed_tables, key=lambda t: t.num_inputs)
        gate_type = np.array([0, 1, 0, 1])
        plan = build_lookup_plan([narrow, wide], gate_type)
        assert gate_type[plan.gates].tolist() == [1, 1, 0, 0]
        slot_type = gate_type[plan.gates[plan.slot_gate]]
        grid = narrow.grid
        worst = {0: (2.0 * grid[0], 1.5 * grid[-1]), 1: (3.0 * grid[0], 2.5 * grid[-1])}
        loading = np.zeros((slot_type.size, 3))
        for t, (lowest, highest) in worst.items():
            slots = np.flatnonzero(slot_type == t)
            loading[slots[0], 0] = lowest
            loading[slots[-1], 2] = highest
        packed = np.zeros((4, 3), dtype=np.int64)
        calls = []

        def enforce(*args, **kwargs):
            calls.append(args[:2])
            return lut.enforce_injection_range(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "enforce_injection_range", enforce)
        previous = lut.set_extrapolation_policy(policy)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if policy == "raise":
                    with pytest.raises(ValueError, match=f"gate type '{narrow.name}'"):
                        _plan_lookup([narrow, wide], gate_type, packed, loading)
                else:
                    _plan_lookup([narrow, wide], gate_type, packed, loading)
        finally:
            lut.set_extrapolation_policy(previous)
        expected = [
            (f"gate type {table.name!r}", value)
            for t, table in enumerate((narrow, wide))
            for value in worst[t]
        ]
        assert calls == (expected[:1] if policy == "raise" else expected)
        assert len(caught) == (4 if policy == "warn" else 0)

    def test_mixed_grids_are_refused_at_compile(self, d25s, library_d25s):
        """One lookup needs one grid: a type characterized on another grid
        is refused, and the message names two of the types."""
        records = [
            library_d25s.characterization(GateType.INV, vector) for vector in ((0,), (1,))
        ]
        for vector in gate_spec(GateType.NAND2).all_vectors():
            record = library_d25s.characterization(GateType.NAND2, vector)
            responses = {
                pin: dataclasses.replace(curve, injections=2.0 * curve.injections)
                for pin, curve in record.responses.items()
            }
            records.append(dataclasses.replace(record, responses=responses))
        mixed = GateLibrary(d25s, options=library_d25s.characterizer.options)
        mixed.load_records(records)
        circuit = Circuit(name="mixed_grids")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("inv", GateType.INV, ["a"], "x")
        circuit.add_gate("nand", GateType.NAND2, ["x", "b"], "y")
        circuit.add_output("y")
        with pytest.raises(ValueError, match="one injection grid.*inv and nand2"):
            CompiledCircuit(circuit, mixed)


class TestCompileCharacterization:
    def test_one_characterization_batch_per_type(self, d25s, library_d25s, monkeypatch):
        """A fresh library characterizes each type of the circuit in one
        batch, and the records equal the one-vector-at-a-time ones."""
        options = library_d25s.characterizer.options
        circuit = _tied_circuit()
        batches = []
        real_batch = GateCharacterizer.characterize_type

        def counting_batch(self, gate_type, vectors=None):
            batches.append(gate_spec(gate_type).name)
            return real_batch(self, gate_type, vectors)

        def no_single(self, gate_type, vector):
            raise AssertionError("compile characterized a single vector")

        monkeypatch.setattr(GateCharacterizer, "characterize_type", counting_batch)
        monkeypatch.setattr(GateCharacterizer, "characterize", no_single)
        fresh = GateLibrary(d25s, options=options)
        compiled = CompiledCircuit(circuit, fresh)
        assert sorted(batches) == [table.name for table in compiled.tables]
        monkeypatch.undo()

        single = GateCharacterizer(d25s, options=options)
        records = fresh.cached_records()
        assert len(records) == sum(2**t.num_inputs for t in compiled.tables)
        for record in records:
            alone = single.characterize(record.gate_type_name, record.vector)
            assert _same_record(record, alone), (record.gate_type_name, record.vector)


def _same_record(a, b):
    """Whether two characterization records hold bitwise the same numbers."""
    curves_a, curves_b = a.responses, b.responses
    return (
        (a.gate_type_name, a.vector, a.nominal, a.output_voltage)
        == (b.gate_type_name, b.vector, b.nominal, b.output_voltage)
        and a.input_voltages == b.input_voltages
        and a.pin_injection == b.pin_injection
        and list(curves_a) == list(curves_b)
        and all(
            _same_bits(getattr(curves_a[pin], field), getattr(curves_b[pin], field))
            for pin in curves_a
            for field in ("injections", "subthreshold", "gate", "btbt")
        )
    )


class TestEngineOutOfRangePolicy:
    def test_deduplicated_warnings_are_not_formatted(self, library25, monkeypatch):
        """Repeated passes over clamping lookups format one range message
        per gate type and direction: the first warning's, and no more."""
        circuit = loaded_inverter_cluster(0, 14)
        compiled = compile_circuit(circuit, library25)
        assignments = [{"in": 0}, {"in": 1}]
        messages = []
        real_message = lut._range_message

        def counting_message(source, injection, low, high):
            messages.append((source, "low" if injection < low else "high"))
            return real_message(source, injection, low, high)

        monkeypatch.setattr(lut, "_range_message", counting_message)
        previous = lut.set_extrapolation_policy("warn")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(3):
                    run_compiled(compiled, assignments)
        finally:
            lut.set_extrapolation_policy(previous)
        assert messages
        assert len(messages) == len(set(messages))
        assert len(caught) == len(messages)
        assert all(w.category is lut.ResponseCurveRangeWarning for w in caught)

    def test_engine_applies_extrapolation_policy(self, library25):
        """The batched LUT path must honour the same out-of-range policy as
        ResponseCurve.breakdown_at: a fanout large enough to push a net's
        loading outside the characterized grid warns (or raises)."""
        from repro.gates.lut import (
            ResponseCurveRangeWarning,
            set_extrapolation_policy,
        )

        circuit = loaded_inverter_cluster(0, 14)
        compiled = compile_circuit(circuit, library25)
        assignments = [{"in": 0}, {"in": 1}]
        previous = set_extrapolation_policy("warn")
        try:
            with pytest.warns(ResponseCurveRangeWarning, match="gate type"):
                run_compiled(compiled, assignments)
            set_extrapolation_policy("raise")
            with pytest.raises(ValueError, match="outside"):
                run_compiled(compiled, assignments)
            set_extrapolation_policy("clamp")
            run_compiled(compiled, assignments)  # silent again
        finally:
            set_extrapolation_policy(previous)


class TestBatchedCampaignMatchesScalar:
    @pytest.mark.parametrize("name,scale", [("s838", 0.1), ("s1196", 0.08)])
    def test_iscas_like_totals_pin_to_scalar(self, library_d25s, name, scale):
        circuit = iscas_like(name, scale=scale)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 12, rng=9))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = per_vector_campaign(PerGateEstimator(library_d25s), circuit, vectors)
        _assert_campaigns_match(batched, scalar)

    def test_tied_inputs_pin_to_scalar(self, library_d25s):
        """Tied-input self-loading regression: a gate with two pins on one
        net must subtract *both* of its own pins from the net total, in the
        per-gate walk and in the engine's np.add.at accumulation alike."""
        from repro.circuit.netlist import Circuit
        from repro.gates.library import GateType

        circuit = Circuit(name="tied_mix")
        circuit.add_input("in")
        circuit.add_gate("drv", GateType.INV, ["in"], "x")
        circuit.add_gate("tied", GateType.NAND2, ["x", "x"], "y")
        circuit.add_gate("tied3", GateType.NAND3, ["x", "y", "x"], "w")
        circuit.add_gate("load", GateType.INV, ["x"], "z")
        circuit.add_output("w")
        circuit.add_output("z")

        estimator = LoadingAwareEstimator(library_d25s)
        vectors = [{"in": 0}, {"in": 1}]
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = per_vector_campaign(PerGateEstimator(library_d25s), circuit, vectors)
        _assert_campaigns_match(batched, scalar)
        for v in range(len(vectors)):
            report_b, report_s = batched.reports[v], scalar.reports[v]
            for name in circuit.gates:
                assert report_b.per_gate[name].input_loading == pytest.approx(
                    report_s.per_gate[name].input_loading, rel=1e-12, abs=1e-24
                )

    def test_no_loading_totals_pin_to_scalar(self, library_d25s):
        circuit = iscas_like("s838", scale=0.1)
        estimator = NoLoadingEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 6, rng=2))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = per_vector_campaign(
            PerGateEstimator(library_d25s, include_loading=False), circuit, vectors
        )
        _assert_campaigns_match(batched, scalar)

    def test_materialized_reports_match_scalar_per_gate(self, library_d25s):
        circuit = loaded_inverter_cluster(4, 4)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 3, rng=5))
        batched = run_vector_campaign(estimator, circuit, vectors=vectors)
        scalar = per_vector_campaign(PerGateEstimator(library_d25s), circuit, vectors)
        for v in range(3):
            report_b = batched.reports[v]
            report_s = scalar.reports[v]
            assert report_b.input_assignment == report_s.input_assignment
            assert set(report_b.per_gate) == set(report_s.per_gate)
            for gate_name, entry_s in report_s.per_gate.items():
                entry_b = report_b.per_gate[gate_name]
                assert entry_b.vector == entry_s.vector
                assert entry_b.gate_type_name == entry_s.gate_type_name
                for component in ("subthreshold", "gate", "btbt"):
                    assert entry_b.breakdown.component(component) == pytest.approx(
                        entry_s.breakdown.component(component), rel=1e-12, abs=0
                    )
                assert entry_b.input_loading == pytest.approx(
                    entry_s.input_loading, rel=1e-9, abs=1e-24
                )
                assert entry_b.output_loading == pytest.approx(
                    entry_s.output_loading, rel=1e-9, abs=1e-24
                )

    def test_campaign_result_api_over_batched_run(self, library_d25s, monkeypatch):
        circuit = nand_tree(2)
        chunks = []
        real_chunk = campaign_module._run_chunk

        def counting_chunk(compiled, bits, *args, **kwargs):
            chunks.append(bits.shape[1])
            return real_chunk(compiled, bits, *args, **kwargs)

        monkeypatch.setattr(campaign_module, "_run_chunk", counting_chunk)
        campaign = run_vector_campaign(
            LoadingAwareEstimator(library_d25s), circuit, count=5, rng=1
        )
        # One engine pass answers the chunk, and materializing a report
        # below runs no further pass.
        assert chunks == [5]
        # Engine-backed by default: totals precomputed, runtime from the batch.
        assert campaign.precomputed_totals is not None
        assert campaign.vector_count == 5
        assert campaign.totals().shape == (5,)
        assert campaign.mean_total() > 0
        assert campaign.runtime_s() > 0.0
        assert len(campaign.reports) == 5
        assert campaign.reports[0].metadata["engine"] == "batched"
        assert chunks == [5]

    def test_campaign_argmin_matches_scalar(self, library_d25s):
        """A best-of-N over a vector set: argmin of the campaign totals."""
        circuit = random_logic("minv_engine", 5, 18, rng=3)
        estimator = LoadingAwareEstimator(library_d25s)
        vectors = list(random_vectors(circuit, 10, rng=7))
        totals = run_vector_campaign(estimator, circuit, vectors=vectors).totals()
        oracle = per_vector_campaign(
            PerGateEstimator(library_d25s), circuit, vectors
        ).totals()
        best = int(np.argmin(oracle))
        assert int(np.argmin(totals)) == best
        assert totals[best] == pytest.approx(oracle[best], rel=1e-12, abs=0)

    def test_bad_assignment_rejected_like_propagate(self, library_d25s):
        circuit = nand_tree(1)
        compiled = compile_circuit(circuit, library_d25s)
        with pytest.raises(KeyError, match="unassigned"):
            run_compiled(compiled, [{"in0": 1}])
        with pytest.raises(KeyError, match="non-primary-input"):
            run_compiled(compiled, [{"in0": 1, "in1": 0, "bogus": 1}])

    def test_malformed_bit_matrix_rejected_before_the_cast(self, library_d25s):
        """A 0.5 would cast to 0 and a 2 to a bit pattern; both are refused,
        as is a matrix of the wrong shape."""
        circuit = nand_tree(1)
        compiled = compile_circuit(circuit, library_d25s)
        session = EstimationSession()
        n_pi = len(circuit.primary_inputs)
        for bad in (np.full((n_pi, 3), 0.5), np.full((n_pi, 1), 2)):
            with pytest.raises(ValueError, match="pi_bits entries must be 0 or 1"):
                run_totals(compiled, bad)
            with pytest.raises(ValueError, match="pi_bits entries must be 0 or 1"):
                session.totals(circuit, library_d25s, bad, coalesce=False)
        for shape in ((n_pi,), (n_pi + 1, 2)):
            with pytest.raises(ValueError, match="must have shape"):
                run_totals(compiled, np.zeros(shape))
        floats = np.ones((n_pi, 2))
        assert _same_bits(
            run_totals(compiled, floats), run_totals(compiled, floats.astype(np.uint8))
        )

    def test_chunked_run_equals_single_pass(self, library_d25s):
        circuit = loaded_inverter_cluster(3, 3)
        compiled = compile_circuit(circuit, library_d25s)
        vectors = list(random_vectors(circuit, 9, rng=4))
        whole = run_compiled(compiled, vectors)
        chunked = run_compiled(compiled, vectors, chunk_size=2)
        for component, values in whole.component_totals().items():
            np.testing.assert_array_equal(values, chunked.component_totals()[component])


class TestCompileCache:
    def test_cache_hits_for_structural_copies(self, library_d25s):
        clear_compile_cache()
        circuit = nand_tree(2)
        first = compile_circuit(circuit, library_d25s)
        assert compile_circuit(circuit, library_d25s) is first
        # A structural copy (different object, same netlist) reuses the compile.
        assert compile_circuit(circuit.copy(), library_d25s) is first

    def test_different_structure_recompiles(self, library_d25s):
        clear_compile_cache()
        first = compile_circuit(nand_tree(2), library_d25s)
        second = compile_circuit(nand_tree(3), library_d25s)
        assert first is not second

    def test_edits_miss_and_hits_reuse_the_key(self, library_d25s, monkeypatch):
        """add_input, add_gate and _invalidate() after a direct ``gates``
        edit each force a recompile; a hit reads the cached key."""
        cache = CompileCache()
        circuit = nand_tree(2)
        builds: list[Circuit] = []
        real_digest = netlist_module._structure_digest

        def counting_digest(c: Circuit) -> str:
            builds.append(c)
            return real_digest(c)

        monkeypatch.setattr(netlist_module, "_structure_digest", counting_digest)
        compiled = cache.get_or_compile(circuit, library_d25s, lint="off")
        assert len(builds) == 1

        def edit_misses() -> None:
            nonlocal compiled
            misses = cache.cache_info().misses
            recompiled = cache.get_or_compile(circuit, library_d25s, lint="off")
            assert recompiled is not compiled
            assert cache.cache_info().misses == misses + 1
            compiled = recompiled

        circuit.add_input("in4")
        edit_misses()
        circuit.add_gate("inv_x", GateType.INV, ["in4"], "x")
        edit_misses()
        old = circuit.gates["nand_l2_0"]
        circuit.gates[old.name] = Gate(old.name, GateType.NOR2, old.inputs, old.output)
        circuit._invalidate()
        edit_misses()
        assert len(builds) == 4

        hits = cache.cache_info().hits
        for _ in range(3):
            assert cache.get_or_compile(circuit, library_d25s) is compiled
        assert cache.cache_info().hits == hits + 3
        assert len(builds) == 4  # no hit rebuilt the key
