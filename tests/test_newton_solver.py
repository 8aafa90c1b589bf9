"""Tests for the batched damped-Newton DC solver and its analytic Jacobians.

Three layers are covered:

* device layer — analytic model derivatives
  (``*_grad_v`` twins and :meth:`PackedMosfets.kcl_jacobian`) against
  central finite differences of the value twins, across the bias regions
  with non-trivial branch structure (deep subthreshold, the
  mobility-degradation clamp corner near threshold, the smooth Vds~0
  source/drain blend);
* circuit layer — the assembled dense ``(B, N, N)`` free-node Jacobian
  against finite differences of the assembled residual, on mixed batches;
* solver layer — Newton against the scalar Gauss–Seidel oracle
  :class:`repro.oracle.DcSolver` at tight tolerances, bitwise
  batch-composition invariance, nodes pinned on the admissible-band edge
  and the continuation retry (each checked against the oracle and against
  its single-column solve), the characterization convergence policy for
  non-converged and pinned cells, and the cache fingerprint's
  reporting-policy exemption.
"""

import warnings

import numpy as np
import pytest

from repro.device.batched import PackedMosfets
from repro.device.btbt import btbt_current_density_grad_v, btbt_current_density_v
from repro.device.gate_tunneling import (
    gate_tunneling_components_grad_v,
    gate_tunneling_components_v,
    tunneling_current_density_grad_v,
    tunneling_current_density_v,
)
from repro.device.mosfet import Mosfet
from repro.device.subthreshold import (
    channel_current_grad_v,
    channel_current_v,
    effective_threshold,
    effective_threshold_grad_v,
    effective_threshold_v,
)
from repro.device.presets import make_technology
from repro.gates.cache import characterization_fingerprint
from repro.gates.characterize import (
    CharacterizationConvergenceWarning,
    CharacterizationOptions,
    GateCharacterizer,
)
from repro.gates.library import GateType, gate_spec
from repro.gates.templates import build_gate_transistors
from repro.oracle import DcSolver, leakage_by_owner, scalar_cell_solve
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import TransistorNetlist
from repro.spice.newton import _NewtonAssembler
from repro.spice.solver import SolverOptions

#: Tight tolerances put both engines at the root, far below the 1e-9
#: leakage-agreement bar the Newton path is held to.  The batched solver
#: runs Newton; the scalar oracle ``DcSolver`` relaxes by Gauss–Seidel
#: sweeps.
TIGHT = SolverOptions(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)
TIGHT_SPARSE = SolverOptions(
    voltage_tol=1e-11, xtol=1e-14, max_sweeps=250, newton_sparse_threshold=1
)

#: A loading current beyond what some d25-g drivers carry: it pins the
#: driven pin net on the admissible-band edge.
WIDE = 32e-6


def assert_grad_close(analytic, fd, rtol=1e-3, floor=1e-18):
    """Masked relative comparison: entries whose magnitude (on either side)
    stays below ``floor`` are dominated by finite-difference roundoff and
    carry no Jacobian information."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    mask = scale > floor
    if not mask.any():
        return
    error = np.abs(analytic - fd)[mask] / scale[mask]
    assert float(error.max()) <= rtol, (
        f"worst gradient mismatch {float(error.max()):.3e} "
        f"(analytic {analytic[mask][np.argmax(error)]:.6e}, "
        f"fd {fd[mask][np.argmax(error)]:.6e})"
    )


def packed_single(device, temperature_k=300.0, vth_shift=0.0) -> PackedMosfets:
    """A 1x1 packed grid: the parameter arrays the grad twins consume."""
    return PackedMosfets([[Mosfet(device, vth_shift=vth_shift)]], temperature_k)


class TestSubthresholdGradients:
    H = 1e-6

    def _threshold_kwargs(self, packed):
        return dict(
            vth_base=packed.vth_base,
            body_gamma=packed.body_gamma,
            phi_s=packed.phi_s,
            sqrt_phi_s=packed.sqrt_phi_s,
            dibl=packed.dibl,
        )

    def _channel_kwargs(self, packed):
        return dict(
            n_swing=packed.n_swing,
            i_spec=packed.i_spec,
            theta_mobility=packed.theta_mobility,
            isub_scale=packed.isub_scale,
        )

    def _bias_points(self, device):
        """(vgs, vds, vbs) spanning subthreshold, the clamp corner, on."""
        vth = effective_threshold(device, 0.5, 0.0, 300.0)
        return np.array(
            [
                (0.05, 1.0, 0.0),  # deep subthreshold
                (0.0, 0.6, -0.3),  # off with body bias
                (vth - 0.002, 0.5, 0.0),  # just below the clamp corner
                (vth + 0.002, 0.5, 0.0),  # just above the clamp corner
                (vth + 0.3, 1.0, 0.0),  # strong inversion
                (0.4, 0.004, 0.0),  # small Vds
            ]
        ).T

    def test_threshold_and_channel_match_finite_differences(self, bulk25):
        for device in (bulk25.nmos, bulk25.pmos):
            packed = packed_single(device)
            vgs, vds, vbs = self._bias_points(device)
            kwargs = self._threshold_kwargs(packed)

            def current(vgs, vds, vbs):
                vth = effective_threshold_v(vds, vbs, **kwargs)
                return channel_current_v(
                    vgs, vds, 300.0, vth_eff=vth, **self._channel_kwargs(packed)
                )

            vth, dvds, dvbs = effective_threshold_grad_v(vds, vbs, **kwargs)
            np.testing.assert_array_equal(
                vth, effective_threshold_v(vds, vbs, **kwargs)
            )
            value, d_vgs, d_vds, d_vbs = channel_current_grad_v(
                vgs,
                vds,
                300.0,
                vth_eff=vth,
                dvth_dvds=dvds,
                dvth_dvbs=dvbs,
                **self._channel_kwargs(packed),
            )
            np.testing.assert_array_equal(value, current(vgs, vds, vbs))

            h = self.H
            assert_grad_close(
                d_vgs, (current(vgs + h, vds, vbs) - current(vgs - h, vds, vbs)) / (2 * h)
            )
            assert_grad_close(
                d_vds, (current(vgs, vds + h, vbs) - current(vgs, vds - h, vbs)) / (2 * h)
            )
            assert_grad_close(
                d_vbs, (current(vgs, vds, vbs + h) - current(vgs, vds, vbs - h)) / (2 * h)
            )


class TestGateTunnelingGradients:
    def test_density_gradient_across_branches(self, bulk25):
        packed = packed_single(bulk25.nmos)
        phi = float(packed.barrier_ev[0, 0])
        kwargs = dict(
            barrier_ev=packed.barrier_ev,
            b_tox_per_nm=packed.b_tox_per_nm,
            density_scale=packed.gt_density_scale,
            temp_factor=packed.gt_temp_factor,
        )
        # Points on both sides of every branch boundary, none straddling one.
        vox = np.array([5e-7, 1e-4, 0.05, 0.4, 0.9 * phi, 1.1 * phi, 1.8])
        h = np.minimum(1e-7, 0.1 * vox)
        value, grad = tunneling_current_density_grad_v(
            vox, packed.tox_nm, **kwargs
        )
        np.testing.assert_array_equal(
            value, tunneling_current_density_v(vox, packed.tox_nm, **kwargs)
        )
        fd = (
            tunneling_current_density_v(vox + h, packed.tox_nm, **kwargs)
            - tunneling_current_density_v(vox - h, packed.tox_nm, **kwargs)
        ) / (2 * h)
        assert_grad_close(grad, fd, rtol=2e-3)

    def test_components_match_finite_differences(self, bulk25):
        """Including the smooth Vds~0 source/drain blend region."""
        packed = packed_single(bulk25.nmos)
        threshold_kwargs = dict(
            vth_base=packed.vth_base,
            body_gamma=packed.body_gamma,
            phi_s=packed.phi_s,
            sqrt_phi_s=packed.sqrt_phi_s,
            dibl=packed.dibl,
        )
        model_kwargs = dict(
            tox_nm=packed.tox_nm,
            overlap_area_um2=packed.overlap_area,
            gate_area_um2=packed.gate_area,
            accumulation_factor=packed.accumulation_factor,
            gb_fraction=packed.gb_fraction,
            barrier_ev=packed.barrier_ev,
            b_tox_per_nm=packed.b_tox_per_nm,
            density_scale=packed.gt_density_scale,
            temp_factor=packed.gt_temp_factor,
            igate_scale=packed.igate_scale,
        )

        def components(g, d, s, b):
            vth = effective_threshold_v(d - s, b - s, **threshold_kwargs)
            return np.stack(
                gate_tunneling_components_v(g, d, s, b, vth_eff=vth, **model_kwargs)
            )

        # Ordered-frame points (d >= s); the last three probe the Vds~0
        # blend at offsets well inside the 0.05 V smoothing width.  The
        # leading axis of one matches the packed (slots, batch) grid shape.
        g = np.array([[1.0, 1.0, 0.0, 0.2, 0.9, 0.9, 0.9]])
        d = np.array([[1.0, 0.5, 1.0, 0.8, 0.41, 0.402, 0.4006]])
        s = np.array([[0.0, 0.0, 0.0, 0.1, 0.4, 0.4, 0.4]])
        b = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])

        vth, dvds, dvbs = effective_threshold_grad_v(
            d - s, b - s, **threshold_kwargs
        )
        value, jacobian = gate_tunneling_components_grad_v(
            g,
            d,
            s,
            b,
            vth_eff=vth,
            dvth_dd=dvds,
            dvth_ds=-(dvds + dvbs),
            dvth_db=dvbs,
            **model_kwargs,
        )
        np.testing.assert_array_equal(value, components(g, d, s, b))

        h = 1e-7
        volts = [g, d, s, b]
        for x in range(4):
            plus = [v.copy() for v in volts]
            minus = [v.copy() for v in volts]
            plus[x] = plus[x] + h
            minus[x] = minus[x] - h
            fd = (components(*plus) - components(*minus)) / (2 * h)
            # Floor above the finite-difference roundoff noise (~1e-14 A/V
            # at these current magnitudes): structurally-zero partials are
            # checked against noisy-zero differences.
            assert_grad_close(jacobian[:, x], fd, rtol=2e-3, floor=1e-12)


class TestBtbtGradients:
    def test_density_gradient(self, bulk25):
        for device in (bulk25.nmos, bulk25.pmos):
            packed = packed_single(device)
            kwargs = dict(
                jbtbt_ref=packed.jbtbt_ref,
                vref=packed.btbt_vref,
                psi_bi=packed.psi_bi,
                field_exponent=packed.field_exponent,
                field_scale=packed.field_scale,
                b_eff=packed.b_eff,
                reference=packed.btbt_reference,
            )
            vrev = np.array([1e-4, 0.01, 0.2, 0.7, 1.0, 1.4])
            h = np.minimum(1e-7, 0.1 * vrev)
            value, grad = btbt_current_density_grad_v(vrev, **kwargs)
            np.testing.assert_array_equal(
                value, btbt_current_density_v(vrev, **kwargs)
            )
            fd = (
                btbt_current_density_v(vrev + h, **kwargs)
                - btbt_current_density_v(vrev - h, **kwargs)
            ) / (2 * h)
            assert_grad_close(grad, fd, rtol=2e-3)
            # The non-reverse branch is exactly zero in value and slope.
            value0, grad0 = btbt_current_density_grad_v(
                np.array([-0.3, 0.0]), **kwargs
            )
            assert np.all(value0 == 0.0) and np.all(grad0 == 0.0)


def _mixed_grid(technology, batch=5):
    """A mixed NMOS/PMOS grid with per-column parameter variation."""
    grid = []
    for slot in range(4):
        row = []
        for column in range(batch):
            device = technology.nmos if slot % 2 == 0 else technology.pmos
            device = device.replace(
                tox_nm=device.tox_nm + 0.01 * column,
                length_nm=device.length_nm + 0.2 * column,
            )
            row.append(Mosfet(device, vth_shift=0.001 * column))
        grid.append(row)
    return grid


class TestPackedJacobian:
    def test_currents_bitwise_equal_kcl_currents(self, bulk25):
        packed = PackedMosfets(_mixed_grid(bulk25), 320.0)
        rng = np.random.default_rng(11)
        vg, vd, vs, vb = rng.uniform(-0.05, 1.05, size=(4, 4, 5))
        currents, _ = packed.kcl_jacobian(vg, vd, vs, vb)
        expected = packed.kcl_currents(vg, vd, vs, vb)
        for got, want in zip(currents, expected):
            np.testing.assert_array_equal(
                np.broadcast_to(got, want.shape), want
            )

    def test_jacobian_matches_finite_differences(self, bulk25):
        """Random biases cover both source/drain orderings and polarities."""
        packed = PackedMosfets(_mixed_grid(bulk25), 320.0)
        rng = np.random.default_rng(11)
        vg, vd, vs, vb = rng.uniform(-0.05, 1.05, size=(4, 4, 5))
        _, jacobian = packed.kcl_jacobian(vg, vd, vs, vb)
        h = 1e-6
        volts = [vg, vd, vs, vb]
        for x in range(4):
            plus = [v.copy() for v in volts]
            minus = [v.copy() for v in volts]
            plus[x] = plus[x] + h
            minus[x] = minus[x] - h
            up = packed.kcl_currents(*plus)
            down = packed.kcl_currents(*minus)
            for i in range(4):
                fd = (up[i] - down[i]) / (2 * h)
                assert_grad_close(jacobian[i, x], fd, rtol=2e-3, floor=1e-16)


def _nand2_cell(technology, vector):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    return netlist


def _nand2_batch(technology, vectors, injections=None, vth_shifts=None):
    """NAND2 columns bound to one topology: per column a vector, an output
    injection and (through a per-column device pack) a Vth shift."""
    netlist = _nand2_cell(technology, vectors[0])
    rails = technology.vdd * np.array(vectors, dtype=float)
    packed = None
    if vth_shifts is not None:
        packed = PackedMosfets(
            [
                [Mosfet(t.mosfet.device, vth_shift=shift) for shift in vth_shifts]
                for t in netlist.transistors
            ],
            300.0,
        )
    return BatchedDcSolver(
        netlist,
        300.0,
        TIGHT,
        fixed={"a": rails[:, 0], "b": rails[:, 1]},
        injection={"out": np.zeros(len(vectors)) if injections is None else injections},
        packed=packed,
    )


class TestCircuitJacobian:
    def test_assembled_jacobian_matches_finite_differences(self, bulk25):
        """Mixed batch: different vectors, injections and Vth shifts."""
        solver = _nand2_batch(
            bulk25, [(1, 0), (0, 0), (1, 1)], [0.0, 5e-7, -2e-7], [0.0, 0.0, 0.004]
        )
        assembler = _NewtonAssembler(solver)
        voltages = solver._initial_matrix(None)
        # Move off the all-rails start so every device sees generic biases.
        rng = np.random.default_rng(3)
        voltages[assembler.free_rows] += rng.uniform(
            0.05, 0.3, size=(assembler.n_free, solver.batch)
        )
        injection = assembler.injection
        residual, matrices = assembler.jacobian(
            solver.packed, voltages, injection
        )
        np.testing.assert_array_equal(
            residual, assembler.residual(solver.packed, voltages, injection)
        )
        assert matrices.shape == (3, assembler.n_free, assembler.n_free)

        h = 1e-6
        for j, row in enumerate(assembler.free_rows):
            plus = voltages.copy()
            minus = voltages.copy()
            plus[row] += h
            minus[row] -= h
            fd = (
                assembler.residual(solver.packed, plus, injection)
                - assembler.residual(solver.packed, minus, injection)
            ) / (2 * h)
            # fd[:, column] is column j of batch instance `column`'s matrix.
            assert_grad_close(
                matrices[:, :, j].T, fd, rtol=2e-3, floor=1e-16
            )


@pytest.mark.slow
class TestNewtonEquivalence:
    def test_voltages_and_leakage_match_scalar_oracle(self, bulk25):
        vectors = [(1, 0)] * 5 + [(0, 1), (1, 1)]
        injections = [0.0, 5e-7, -5e-7, 2e-6, -2e-6, 0.0, 1e-6]
        op = _nand2_batch(bulk25, vectors, injections).solve()
        assert op.all_converged
        assert op.method == "newton"
        assert not op.fallback.any() and not op.pinned.any()
        solver = _nand2_batch(bulk25, vectors, injections)
        owner_leakage = solver.leakage_by_owner(op)["g"]
        for index, (vector, injection) in enumerate(zip(vectors, injections)):
            netlist = _nand2_cell(bulk25, vector)
            scalar_op = DcSolver(netlist, 300.0, TIGHT, {"out": injection}).solve()
            assert scalar_op.converged
            for name, voltage in scalar_op.voltages.items():
                batched_v = op.voltages[op.node_index[name], index]
                assert batched_v == pytest.approx(voltage, abs=1e-9)
            scalar_leakage = leakage_by_owner(netlist, scalar_op)["g"]
            got = owner_leakage.at(index)
            for component in ("subthreshold", "gate", "btbt"):
                assert got.component(component) == pytest.approx(
                    scalar_leakage.component(component), rel=1e-9, abs=1e-24
                )

    def test_mixed_supply_voltages(self, bulk25):
        def cell(vdd_scale):
            scaled = bulk25.replace(vdd=bulk25.vdd * vdd_scale)
            netlist = TransistorNetlist(vdd=scaled.vdd)
            netlist.add_node("in", fixed_voltage=0.0)
            build_gate_transistors(
                netlist, scaled, GateType.INV, "g", {"a": "in", "y": "out"}
            )
            return netlist

        scales = [1.0, 0.9, 1.1]
        op = BatchedDcSolver(
            cell(1.0), 300.0, TIGHT, fixed={"vdd": bulk25.vdd * np.array(scales)}
        ).solve()
        assert op.all_converged
        for index, scale in enumerate(scales):
            scalar_op = DcSolver(cell(scale), 300.0, TIGHT).solve()
            assert op.voltage("out")[index] == pytest.approx(
                scalar_op.voltage("out"), abs=1e-9
            )


@pytest.mark.slow
class TestNewtonBatchInvariance:
    def test_batch_composition_is_bitwise_neutral(self, bulk25):
        """Each column solved alone, chunked, or in the full batch must be
        bit-for-bit identical — including columns that converge at
        different iteration counts (warm vs cold starts)."""
        vectors = [(0, 0), (1, 1), (1, 0), (0, 1)]
        injections = np.array([0.0, 3e-6, -1e-6, 0.0])
        guesses = np.array([bulk25.vdd, 0.0, 0.5 * bulk25.vdd, bulk25.vdd])

        def solve(columns):
            return _nand2_batch(
                bulk25, [vectors[c] for c in columns], injections[columns]
            ).solve(initial_voltages={"out": guesses[columns]})

        whole = solve([0, 1, 2, 3])
        assert whole.all_converged
        assert len(set(whole.newton_iterations.tolist())) > 1
        for index in range(len(vectors)):
            alone = solve([index])
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]
        halves = [solve([0, 1]), solve([2, 3])]
        recombined = np.concatenate(
            [half.voltages for half in halves], axis=1
        )
        assert np.array_equal(recombined, whole.voltages)


def _float_gate(technology):
    """A node attached only to a gate terminal: no current can leave it."""
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("float_gate")
    netlist.add_transistor(
        name="m1",
        mosfet=Mosfet(technology.nmos),
        gate="float_gate",
        drain="vdd",
        source="gnd",
        bulk="gnd",
        owner="g",
    )
    return netlist


@pytest.mark.slow
class TestNewtonFallback:
    """A forced injection the node cannot carry: no root in the band."""

    def _pinned_cell(self, technology, injection):
        """The floating gate node, ``(B,)`` amps forced in."""
        return BatchedDcSolver(
            _float_gate(technology),
            300.0,
            TIGHT,
            injection={"float_gate": np.asarray(injection)},
        )

    def test_pinned_node_falls_back_bitwise_to_gauss_seidel(self, bulk25):
        """Newton holds the node on the upper band edge and reports it
        pinned, with no retry; the scalar Gauss–Seidel oracle pins it at
        the same edge."""
        newton = self._pinned_cell(bulk25, [1e-3]).solve()
        assert newton.all_converged
        assert newton.pinned[newton.node_index["float_gate"], 0]
        assert not newton.fallback[0]
        assert newton.voltage("float_gate")[0] == bulk25.vdd + TIGHT.bracket_margin
        scalar_op = DcSolver(
            _float_gate(bulk25), 300.0, TIGHT, {"float_gate": 1e-3}
        ).solve()
        for name, voltage in scalar_op.voltages.items():
            assert newton.voltage(name)[0] == pytest.approx(voltage, abs=1e-9)

    def test_mixed_fallback_batch_stays_column_independent(self, bulk25):
        """One pinned column and one benign column in the same topology:
        each must match its single-column solve bitwise."""
        injections = [1e-3, 1e-12]
        whole = self._pinned_cell(bulk25, injections).solve()
        assert whole.all_converged
        assert whole.pinned.any(axis=0).tolist() == [True, False]
        assert not whole.fallback.any()
        for index, injection in enumerate(injections):
            alone = self._pinned_cell(bulk25, [injection]).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]


@pytest.fixture(scope="module")
def d25g():
    return make_technology("d25-g")


def _relative_gap(got, want) -> float:
    """Largest relative component difference of two leakage breakdowns."""
    return max(
        abs(got.component(name) - want.component(name))
        / max(abs(want.component(name)), 1e-30)
        for name in ("subthreshold", "gate", "btbt")
    )


@pytest.mark.slow
class TestPinnedCells:
    """d25-g cells whose loading current exceeds what a driver can carry.

    The hold rule pins the pin net on the band edge where the scalar
    Gauss–Seidel oracle pins it too, and the characterizer reports every
    pinned cell under its ``on_nonconverged`` policy.
    """

    def _characterizer(self, technology, policy="warn"):
        return GateCharacterizer(
            technology,
            options=CharacterizationOptions(
                injection_grid=(-1e-6, 1e-6), solver=TIGHT, on_nonconverged=policy
            ),
        )

    def test_wide_loading_cells_match_scalar_oracle(self, d25g):
        """Every inv and nand2 cell at +/-32 uA on every pin and vector,
        pinned or not, matches the oracle to 1e-9."""
        characterizer = self._characterizer(d25g)
        cells = [
            (gate_type, vector, pin, amps)
            for gate_type in (GateType.INV, GateType.NAND2)
            for vector in gate_spec(gate_type).all_vectors()
            for pin in (*gate_spec(gate_type).inputs, gate_spec(gate_type).output)
            for amps in (-WIDE, WIDE)
        ]
        for gate_type, vector, pin, amps in cells:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CharacterizationConvergenceWarning)
                cell = characterizer.solve_cell(gate_type, vector, {pin: amps})
            oracle = scalar_cell_solve(characterizer, gate_type, vector, {pin: amps})
            assert cell.converged and oracle.op.converged
            assert _relative_gap(cell.dut_breakdown, oracle.dut_breakdown) <= 1e-9
            assert cell.output_voltage == pytest.approx(
                oracle.op.voltage(oracle.output_net), abs=1e-9
            )
        assert characterizer.solve_stats["pinned"] > 0
        assert characterizer.solve_stats["fallbacks"] == 0

    def test_pinned_cell_warns_naming_cell_and_net(self, d25g):
        characterizer = self._characterizer(d25g)
        with pytest.warns(
            CharacterizationConvergenceWarning,
            match=r"inv .*pinned.*vector \(0,\).*at net_a",
        ):
            cell = characterizer.solve_cell(GateType.INV, (0,), {"a": -WIDE})
        assert cell.converged
        assert characterizer.solve_stats["pinned"] == 1

    def test_pinned_cell_raises_under_raise_policy(self, d25g):
        characterizer = self._characterizer(d25g, policy="raise")
        with pytest.raises(RuntimeError, match="pinned"):
            characterizer.solve_cell(GateType.INV, (0,), {"a": -WIDE})

    def test_retried_cell_converges_and_matches_scalar_oracle(self, d25g):
        """xor2 (1, 0) with -50 uA drawn from pin a defeats plain Newton;
        the continuation retry finishes it at the oracle's answer."""
        characterizer = self._characterizer(d25g, policy="raise")
        cell = characterizer.solve_cell(GateType.XOR2, (1, 0), {"a": -50e-6})
        assert cell.converged
        assert characterizer.solve_stats["fallbacks"] == 1
        oracle = scalar_cell_solve(characterizer, GateType.XOR2, (1, 0), {"a": -50e-6})
        assert _relative_gap(cell.dut_breakdown, oracle.dut_breakdown) <= 1e-9

    @pytest.mark.parametrize("options", [TIGHT, TIGHT_SPARSE], ids=["dense", "sparse"])
    def test_plain_pinned_and_retried_columns_stay_independent(self, d25g, options):
        """One xor2 batch with a plain, a pinned and a retried column: each
        column is bitwise its single-column solve, on either backend."""
        columns = [((0, 1), 0.0), ((0, 0), -WIDE), ((1, 0), -50e-6)]
        characterizer = GateCharacterizer(
            d25g, options=CharacterizationOptions(solver=options)
        )
        spec = gate_spec(GateType.XOR2)

        def solve(chosen):
            netlist, fixed, initial = characterizer._cell(
                spec, [columns[c][0] for c in chosen]
            )
            return BatchedDcSolver(
                netlist,
                characterizer.temperature_k,
                options,
                fixed=fixed,
                injection={"net_a": np.array([columns[c][1] for c in chosen])},
            ).solve(initial_voltages=initial)

        whole = solve([0, 1, 2])
        assert whole.all_converged
        assert whole.pinned.any(axis=0).tolist() == [False, True, False]
        assert whole.fallback.tolist() == [False, False, True]
        for index in range(len(columns)):
            alone = solve([index])
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]
            assert np.array_equal(alone.pinned[:, 0], whole.pinned[:, index])

    def test_wide_grid_pins_exactly_the_overdriven_cells(self, d25g):
        """Every type on d25-g at 300 K on a +/-32 uA grid: 449 cells pin,
        none is retried and every one converges."""
        characterizer = GateCharacterizer(
            d25g,
            300.0,
            CharacterizationOptions(injection_grid=tuple(np.linspace(-WIDE, WIDE, 9))),
        )
        with pytest.warns(CharacterizationConvergenceWarning, match="pinned"):
            for gate_type in GateType:
                characterizer.characterize_type(gate_type)
        stats = characterizer.solve_stats
        assert stats["solves"] == 2908
        assert stats["pinned"] == 449
        assert stats["fallbacks"] == 0


class TestConvergencePolicy:
    #: One Newton iteration, one continuation step and one more Newton
    #: iteration at an unreachable tolerance: guaranteed non-convergence.
    STARVED = SolverOptions(
        max_sweeps=1, voltage_tol=1e-15, newton_max_iterations=1
    )
    GRID = (-1e-6, 1e-6)

    def test_single_cell_warns_naming_gate_and_vector(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=self.GRID, solver=self.STARVED
            ),
        )
        with pytest.warns(
            CharacterizationConvergenceWarning, match=r"inv.*\(0,\)"
        ):
            characterizer.solve_cell(GateType.INV, (0,))

    def test_batched_engine_warns_naming_gate_and_vector(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=self.GRID, solver=self.STARVED
            ),
        )
        with pytest.warns(
            CharacterizationConvergenceWarning, match=r"inv.*vector \(1,\)"
        ):
            characterizer.characterize(GateType.INV, (1,))

    def test_raise_policy(self, bulk25):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(
                injection_grid=self.GRID,
                solver=self.STARVED,
                on_nonconverged="raise",
            ),
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            characterizer.characterize(GateType.INV, (0,))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="on_nonconverged"):
            CharacterizationOptions(on_nonconverged="ignore")

    def test_converged_solves_stay_silent(self, bulk25, recwarn):
        characterizer = GateCharacterizer(
            bulk25,
            options=CharacterizationOptions(injection_grid=self.GRID),
        )
        characterizer.characterize(GateType.INV, (0,))
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, CharacterizationConvergenceWarning)
        ]


class TestSolverOptionsValidation:
    def test_band_and_window_validated(self):
        """A zero window never widens the oracle's bracket, and a negative
        margin gives a band that excludes the rails."""
        with pytest.raises(ValueError, match="initial_window"):
            SolverOptions(initial_window=0.0)
        with pytest.raises(ValueError, match="initial_window"):
            SolverOptions(initial_window=-0.01)
        with pytest.raises(ValueError, match="bracket_margin"):
            SolverOptions(bracket_margin=-0.05)
        assert SolverOptions(bracket_margin=0.0).bracket_margin == 0.0

    def test_newton_knobs_validated(self):
        with pytest.raises(ValueError, match="newton_max_iterations"):
            SolverOptions(newton_max_iterations=0)
        with pytest.raises(ValueError, match="newton_backtracks"):
            SolverOptions(newton_backtracks=-1)
        with pytest.raises(ValueError, match="newton_step_limit"):
            SolverOptions(newton_step_limit=0.0)


class TestMethodCacheFingerprint:
    def test_reporting_policy_does_not_change_fingerprint(self, bulk25):
        """on_nonconverged is warn-vs-raise reporting: it can never change
        a record that was produced, so it must not fork caches."""
        fingerprints = {
            characterization_fingerprint(
                bulk25,
                CharacterizationOptions(
                    injection_grid=(-1e-6, 1e-6), on_nonconverged=policy
                ),
                bulk25.temperature_k,
            )
            for policy in ("warn", "raise")
        }
        assert len(fingerprints) == 1
