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
* solver layer — Newton-vs-Gauss-Seidel equivalence at tight tolerances,
  bitwise batch-composition invariance, the Gauss–Seidel fallback
  (bitwise identical to a pure relaxation solve), the characterization
  convergence policy, and the cache fingerprint's reporting-policy
  exemption.
"""

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
from repro.gates.cache import characterization_fingerprint
from repro.gates.characterize import (
    CharacterizationConvergenceWarning,
    CharacterizationOptions,
    GateCharacterizer,
)
from repro.gates.library import GateType
from repro.gates.templates import build_gate_transistors
from repro.oracle import DcSolver, leakage_by_owner, solve_gauss_seidel
from repro.spice.batched import BatchedDcSolver
from repro.spice.netlist import TransistorNetlist
from repro.spice.newton import _NewtonAssembler
from repro.spice.solver import SolverOptions

#: Tight tolerances put both engines at the root, far below the 1e-9
#: leakage-agreement bar the Newton path is held to.  The batched solver
#: runs Newton; the scalar oracle ``DcSolver`` and
#: :func:`repro.oracle.solve_gauss_seidel` relax by Gauss–Seidel sweeps.
TIGHT = SolverOptions(voltage_tol=1e-11, xtol=1e-14, max_sweeps=250)


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


def _nand2_cell(technology, vector, injection=None, vth_shift=0.0):
    netlist = TransistorNetlist(vdd=technology.vdd)
    netlist.add_node("a", fixed_voltage=technology.vdd * vector[0])
    netlist.add_node("b", fixed_voltage=technology.vdd * vector[1])
    build_gate_transistors(
        netlist, technology, GateType.NAND2, "g", {"a": "a", "b": "b", "y": "out"}
    )
    if injection:
        netlist.add_current_source("out", injection)
    if vth_shift:
        for transistor in netlist.transistors:
            transistor.mosfet.vth_shift = vth_shift
    return netlist


class TestCircuitJacobian:
    def test_assembled_jacobian_matches_finite_differences(self, bulk25):
        """Mixed batch: different vectors, injections and Vth shifts."""
        netlists = [
            _nand2_cell(bulk25, (1, 0)),
            _nand2_cell(bulk25, (0, 0), injection=5e-7),
            _nand2_cell(bulk25, (1, 1), injection=-2e-7, vth_shift=0.004),
        ]
        solver = BatchedDcSolver(netlists, 300.0, TIGHT)
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
        injections = [None, 5e-7, -5e-7, 2e-6, -2e-6]
        netlists = [_nand2_cell(bulk25, (1, 0), inj) for inj in injections]
        op = BatchedDcSolver(netlists, 300.0, TIGHT).solve()
        assert op.all_converged
        assert op.method == "newton"
        assert not op.fallback.any()
        solver = BatchedDcSolver(netlists, 300.0, TIGHT)
        owner_leakage = solver.leakage_by_owner(op)["g"]
        for index, netlist in enumerate(netlists):
            scalar_op = DcSolver(netlist, 300.0, TIGHT).solve()
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

    def test_newton_matches_batched_gauss_seidel(self, bulk25):
        netlists = [
            _nand2_cell(bulk25, (0, 1)),
            _nand2_cell(bulk25, (1, 1), injection=1e-6),
        ]
        newton = BatchedDcSolver(netlists, 300.0, TIGHT).solve()
        relaxed = solve_gauss_seidel(BatchedDcSolver(netlists, 300.0, TIGHT))
        assert newton.all_converged and relaxed.all_converged
        assert np.abs(newton.voltages - relaxed.voltages).max() < 1e-9

    def test_mixed_supply_voltages(self, bulk25):
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


@pytest.mark.slow
class TestNewtonBatchInvariance:
    def test_batch_composition_is_bitwise_neutral(self, bulk25):
        """Each column solved alone, chunked, or in the full batch must be
        bit-for-bit identical — including columns that converge at
        different iteration counts (warm vs cold starts)."""
        netlists = [
            _nand2_cell(bulk25, (0, 0)),
            _nand2_cell(bulk25, (1, 1), injection=3e-6),
            _nand2_cell(bulk25, (1, 0), injection=-1e-6),
            _nand2_cell(bulk25, (0, 1)),
        ]
        guesses = [
            {"out": bulk25.vdd},
            {"out": 0.0},
            {"out": 0.5 * bulk25.vdd},
            {"out": bulk25.vdd},
        ]
        whole = BatchedDcSolver(netlists, 300.0, TIGHT).solve(
            initial_voltages=guesses
        )
        assert whole.all_converged
        assert len(set(whole.newton_iterations.tolist())) > 1
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT).solve(
                initial_voltages=[guesses[index]]
            )
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])
            assert alone.newton_iterations[0] == whole.newton_iterations[index]
        halves = [
            BatchedDcSolver(netlists[:2], 300.0, TIGHT).solve(
                initial_voltages=guesses[:2]
            ),
            BatchedDcSolver(netlists[2:], 300.0, TIGHT).solve(
                initial_voltages=guesses[2:]
            ),
        ]
        recombined = np.concatenate(
            [half.voltages for half in halves], axis=1
        )
        assert np.array_equal(recombined, whole.voltages)


@pytest.mark.slow
class TestNewtonFallback:
    def _pinned_cell(self, technology, injection):
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
        netlist.add_current_source("float_gate", injection)
        return netlist

    def test_pinned_node_falls_back_bitwise_to_gauss_seidel(self, bulk25):
        """A KCL equation with no root in the admissible band: Newton's
        line search stalls at the band edge and the column must fall back,
        reproducing the relaxation result exactly."""
        newton = BatchedDcSolver(
            [self._pinned_cell(bulk25, 1e-3)], 300.0, TIGHT
        ).solve()
        relaxed = solve_gauss_seidel(
            BatchedDcSolver([self._pinned_cell(bulk25, 1e-3)], 300.0, TIGHT)
        )
        assert newton.fallback[0]
        assert np.array_equal(newton.voltages, relaxed.voltages)
        assert newton.voltage("float_gate")[0] == pytest.approx(
            bulk25.vdd + TIGHT.bracket_margin
        )

    def test_mixed_fallback_batch_stays_column_independent(self, bulk25):
        """One pinned column (fallback) and one benign column (Newton) in
        the same topology: each must match its single-column solve."""
        netlists = [
            self._pinned_cell(bulk25, 1e-3),
            self._pinned_cell(bulk25, 1e-12),
        ]
        whole = BatchedDcSolver(netlists, 300.0, TIGHT).solve()
        assert whole.all_converged
        assert whole.fallback[0] and not whole.fallback[1]
        for index, netlist in enumerate(netlists):
            alone = BatchedDcSolver([netlist], 300.0, TIGHT).solve()
            assert np.array_equal(alone.voltages[:, 0], whole.voltages[:, index])


class TestConvergencePolicy:
    #: One Newton iteration, then one fallback sweep, at an unreachable
    #: tolerance: guaranteed non-convergence.
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
