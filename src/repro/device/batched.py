"""Packed, batched evaluation of the MOSFET leakage models.

:class:`PackedMosfets` is the device-layer backend of the batched DC solver
(:mod:`repro.spice.batched`).  It takes a *grid* of
:class:`~repro.device.mosfet.Mosfet` instances — ``T`` transistor slots (one
per transistor of a netlist topology) by ``B`` batch instances (one per
netlist being solved) — extracts every model parameter into NumPy arrays,
pre-computes all bias-independent quantities at the solve temperature, and
evaluates terminal / component currents for the whole grid in one array pass.

Parameter arrays that are constant along the batch axis are stored with a
broadcast axis of length one.  The solver packs a topology's Mosfets once as
a ``(T, 1)`` grid shared by every column, so characterization and reference
batches carry one copy of their parameters whatever their width.
Monte-Carlo batches pack through :meth:`PackedMosfets.from_kinds`, which
extracts each device kind once per column instead of one
:class:`~repro.device.mosfet.Mosfet` per transistor per column.

The arithmetic deliberately mirrors :meth:`Mosfet._compute` operation for
operation (same normalization, same source/drain ordering, same assembly
order), and the bias-independent pre-computations reuse the scalar model
functions, so the batched path agrees with the scalar oracle to rounding
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.device.btbt import (
    _temperature_factor,
    btbt_current_density_grad_v,
    btbt_current_density_v,
)
from repro.device.gate_tunneling import (
    _shape_function,
    gate_tunneling_components_grad_v,
    gate_tunneling_components_v,
)
from repro.device.mosfet import Mosfet
from repro.device.params import DeviceParams
from repro.device.subthreshold import (
    channel_current_grad_v,
    channel_current_v,
    effective_threshold,
    effective_threshold_grad_v,
    effective_threshold_v,
    specific_current,
)
from repro.utils.constants import ROOM_TEMPERATURE_K
from repro.utils.mathtools import safe_exp

#: Names of every parameter array a :class:`PackedMosfets` carries.
_ARRAY_FIELDS = (
    "sign",
    "vth_base",
    "body_gamma",
    "phi_s",
    "sqrt_phi_s",
    "dibl",
    "n_swing",
    "theta_mobility",
    "i_spec",
    "isub_scale",
    "tox_nm",
    "overlap_area",
    "gate_area",
    "accumulation_factor",
    "gb_fraction",
    "barrier_ev",
    "b_tox_per_nm",
    "gt_density_scale",
    "gt_temp_factor",
    "igate_scale",
    "jbtbt_ref",
    "btbt_vref",
    "psi_bi",
    "field_exponent",
    "field_scale",
    "b_eff",
    "btbt_reference",
    "junction_area",
    "ibtbt_scale",
)


def _device_constants(device: DeviceParams, temperature_k: float) -> tuple:
    """Return the bias-independent per-device quantities, in field order.

    The threshold base is the scalar :func:`effective_threshold` evaluated at
    ``vds = vbs = 0`` (where the body and DIBL terms vanish), so every static
    contribution — vth0, temperature, geometry roll-off, halo — is inherited
    from the oracle implementation verbatim.
    """
    sub = device.subthreshold
    gt = device.gate_tunneling
    bt = device.btbt
    gt_reference = _shape_function(gt.vref, gt.tox_ref_nm, gt)
    return (
        float(device.polarity.sign),
        effective_threshold(device, 0.0, 0.0, temperature_k),
        sub.body_gamma,
        sub.phi_s,
        float(np.sqrt(sub.phi_s)),
        sub.dibl,
        sub.n_swing,
        sub.theta_mobility,
        specific_current(device, temperature_k),
        device.isub_scale,
        device.tox_nm,
        device.overlap_area_um2,
        device.gate_area_um2,
        gt.accumulation_factor,
        gt.gb_fraction,
        gt.barrier_ev,
        gt.b_tox_per_nm,
        gt.jg_ref / gt_reference if gt_reference > 0.0 else 0.0,
        1.0 + gt.temp_coeff_per_k * (temperature_k - ROOM_TEMPERATURE_K),
        device.igate_scale,
        bt.jbtbt_ref,
        bt.vref,
        bt.psi_bi,
        bt.field_exponent,
        float(np.sqrt(bt.halo_cm3 / (bt.halo_ref_cm3 * (bt.vref + bt.psi_bi)))),
        bt.b_field * _temperature_factor(bt, temperature_k),
        safe_exp(-bt.b_field),
        device.junction_area_um2,
        device.ibtbt_scale,
    )


def _compress(array: np.ndarray) -> np.ndarray:
    """Collapse a ``(T, B)`` array to ``(T, 1)`` when constant along the batch."""
    if array.shape[1] > 1 and np.all(array == array[:, :1]):
        return np.ascontiguousarray(array[:, :1])
    return array


@dataclass(frozen=True)
class ComponentCurrents:
    """Vectorized leakage-component currents of a packed transistor grid.

    All arrays share the grid shape; magnitudes follow the conventions of
    :class:`~repro.device.mosfet.MosfetCurrents` (``ig`` is the signed
    circuit-frame gate-terminal current, the components are magnitudes).
    """

    ig: np.ndarray
    i_subthreshold: np.ndarray
    i_gate: np.ndarray
    i_btbt: np.ndarray


class PackedMosfets:
    """A ``(T slots, B instances)`` grid of MOSFETs packed into arrays.

    Parameters
    ----------
    grid:
        ``T`` sequences of ``B`` :class:`Mosfet` instances each; slot ``t``
        of instance ``b`` must be the same *topological* transistor (same
        polarity) in every instance, while its parameters (flavour shifts,
        per-instance ``vth_shift``) may differ.
    temperature_k:
        The solve temperature; every temperature-dependent quantity is baked
        in at construction.
    """

    def __init__(self, grid: Sequence[Sequence[Mosfet]], temperature_k: float) -> None:
        if not grid or not grid[0]:
            raise ValueError("PackedMosfets needs at least one transistor and instance")
        self.temperature_k = float(temperature_k)
        self.slots = len(grid)
        self.batch = len(grid[0])

        memo: dict[DeviceParams, tuple] = {}
        raw = np.empty((len(_ARRAY_FIELDS), self.slots, self.batch))
        for t, row in enumerate(grid):
            if len(row) != self.batch:
                raise ValueError("all transistor slots must have the same batch size")
            for b, mosfet in enumerate(row):
                constants = memo.get(mosfet.device)
                if constants is None:
                    constants = _device_constants(mosfet.device, self.temperature_k)
                    memo[mosfet.device] = constants
                raw[:, t, b] = constants
                # vth_shift rides on top of the static threshold, exactly as
                # the scalar path adds it after effective_threshold().
                raw[1, t, b] += mosfet.vth_shift
        self._bind(raw)

    @classmethod
    def from_kinds(
        cls,
        kinds: Sequence[Sequence[DeviceParams]],
        slot_kinds: Sequence[int],
        vth_shift: np.ndarray,
        temperature_k: float,
    ) -> "PackedMosfets":
        """Pack a grid whose slots share a few device kinds that vary per column.

        The Monte-Carlo binding: ``kinds[k][b]`` is device kind ``k`` (a
        technology flavour at one width) under column ``b``'s inter-die
        shifts, slot ``t`` takes kind ``slot_kinds[t]``, and ``vth_shift``
        is the ``(T, B)`` per-transistor threshold shift.  Equals
        ``PackedMosfets(grid, temperature_k)`` over
        ``grid[t][b] = Mosfet(kinds[slot_kinds[t]][b], vth_shift=vth_shift[t, b])``
        bit for bit, without building the ``T * B`` Mosfet objects.
        """
        table = np.array(
            [[_device_constants(device, temperature_k) for device in row] for row in kinds]
        )
        # (kinds, B, fields) -> (fields, T, B) in one gather, laid out like
        # the Mosfet-grid constructor's block.
        raw = np.ascontiguousarray(
            table.transpose(2, 0, 1)[:, np.asarray(slot_kinds, dtype=int)]
        )
        raw[1] += vth_shift
        packed = object.__new__(cls)
        packed.temperature_k = float(temperature_k)
        packed.slots, packed.batch = raw.shape[1:]
        packed._bind(raw)
        return packed

    def _bind(self, raw: np.ndarray) -> None:
        """Store the ``(fields, T, B)`` parameter block as per-field arrays."""
        for name, values in zip(_ARRAY_FIELDS, raw):
            setattr(self, name, _compress(values))
        self._btbt_stacked_cache = None

        signs = np.unique(self.sign)
        if not np.all(np.isin(signs, (-1.0, 1.0))):  # pragma: no cover - defensive
            raise ValueError("transistor polarity signs must be +/-1")
        if self.sign.shape[1] != 1:
            raise ValueError("a transistor slot must keep one polarity across the batch")

    # ------------------------------------------------------------------ #
    # subsetting
    # ------------------------------------------------------------------ #
    def _subset(self, selector) -> "PackedMosfets":
        clone = object.__new__(PackedMosfets)
        clone.temperature_k = self.temperature_k
        for name in _ARRAY_FIELDS:
            setattr(clone, name, selector(getattr(self, name)))
        clone.slots = clone.sign.shape[0]
        clone.batch = max(getattr(clone, name).shape[1] for name in _ARRAY_FIELDS)
        clone._btbt_stacked_cache = None
        return clone

    def _btbt_stacked(self) -> dict[str, np.ndarray]:
        """Return the BTBT parameter arrays pre-stacked for both junctions.

        The drain and source junctions evaluate as one fused density call
        over row-stacked inputs; the parameter halves are identical and
        bias-independent, so stacking them per residual evaluation (the
        solver hot path) was pure overhead.  Built lazily because subsets
        (``take_columns``) re-slice the base arrays.
        """
        cached = self._btbt_stacked_cache
        if cached is None:
            def stack2(parameter: np.ndarray) -> np.ndarray:
                return np.concatenate([parameter] * 2)

            cached = {
                "params": dict(
                    jbtbt_ref=stack2(self.jbtbt_ref),
                    vref=stack2(self.btbt_vref),
                    psi_bi=stack2(self.psi_bi),
                    field_exponent=stack2(self.field_exponent),
                    field_scale=stack2(self.field_scale),
                    b_eff=stack2(self.b_eff),
                    reference=stack2(self.btbt_reference),
                ),
                "area_scale": stack2(self.junction_area * self.ibtbt_scale),
            }
            self._btbt_stacked_cache = cached
        return cached

    def take_columns(self, columns: np.ndarray) -> "PackedMosfets":
        """Return a batch-column subset (broadcast columns stay broadcast)."""
        return self._subset(lambda a: a[:, columns] if a.shape[1] > 1 else a)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _normalized(self, vg, vd, vs, vb):
        """Mirror the scalar polarity/ordering normalization, vectorized."""
        sign = self.sign
        nvg, nvd, nvs, nvb = sign * vg, sign * vd, sign * vs, sign * vb
        swapped = nvd < nvs
        d = np.maximum(nvd, nvs)
        s = np.minimum(nvd, nvs)
        vgs = nvg - s
        vds = d - s
        vbs = nvb - s
        vth_eff = effective_threshold_v(
            vds,
            vbs,
            vth_base=self.vth_base,
            body_gamma=self.body_gamma,
            phi_s=self.phi_s,
            sqrt_phi_s=self.sqrt_phi_s,
            dibl=self.dibl,
        )
        return nvg, d, s, nvb, swapped, vgs, vds, vth_eff

    def _assemble(self, vg, vd, vs, vb):
        """Shared evaluation; returns everything both public paths need."""
        nvg, d, s, nvb, swapped, vgs, vds, vth_eff = self._normalized(vg, vd, vs, vb)

        i_ch = channel_current_v(
            vgs,
            vds,
            self.temperature_k,
            vth_eff=vth_eff,
            n_swing=self.n_swing,
            i_spec=self.i_spec,
            theta_mobility=self.theta_mobility,
            isub_scale=self.isub_scale,
        )

        igso, igdo, igcs, igcd, igb = gate_tunneling_components_v(
            nvg,
            d,
            s,
            nvb,
            vth_eff=vth_eff,
            tox_nm=self.tox_nm,
            overlap_area_um2=self.overlap_area,
            gate_area_um2=self.gate_area,
            accumulation_factor=self.accumulation_factor,
            gb_fraction=self.gb_fraction,
            barrier_ev=self.barrier_ev,
            b_tox_per_nm=self.b_tox_per_nm,
            density_scale=self.gt_density_scale,
            temp_factor=self.gt_temp_factor,
            igate_scale=self.igate_scale,
        )

        # Both junctions in one fused density evaluation (stacked rows); the
        # bias-independent parameter stacking is cached (see _btbt_stacked).
        stacked = self._btbt_stacked()
        scaled = (
            btbt_current_density_v(
                np.concatenate([d - nvb, s - nvb]), **stacked["params"]
            )
            * stacked["area_scale"]
        )
        half = scaled.shape[0] // 2
        i_btbt_d = scaled[:half]
        i_btbt_s = scaled[half:]

        i_drain = i_ch - igdo - igcd + i_btbt_d
        i_source = -i_ch - igso - igcs + i_btbt_s
        i_bulk = -igb - i_btbt_d - i_btbt_s
        i_gate_term = igso + igdo + igcs + igcd + igb

        sign = self.sign
        ig = sign * i_gate_term
        idr = sign * np.where(swapped, i_source, i_drain)
        isr = sign * np.where(swapped, i_drain, i_source)
        ib = sign * i_bulk
        return (
            ig,
            idr,
            isr,
            ib,
            i_ch,
            vgs,
            vth_eff,
            (igso, igdo, igcs, igcd, igb),
            i_btbt_d + i_btbt_s,
        )

    def kcl_currents(self, vg, vd, vs, vb):
        """Return the ``(gate, drain, source, bulk)`` terminal-current arrays.

        This is the hot path of the batched DC solver's Kirchhoff residuals;
        voltages are circuit-frame arrays broadcastable to the grid shape.
        """
        ig, idr, isr, ib, *_ = self._assemble(vg, vd, vs, vb)
        return ig, idr, isr, ib

    def kcl_jacobian(self, vg, vd, vs, vb):
        """Return the terminal currents *and* their per-device Jacobian.

        The analytic backend of the batched Newton solver
        (:mod:`repro.spice.newton`).  Returns ``(currents, jacobian)``:
        ``currents`` is the ``(gate, drain, source, bulk)`` tuple of
        :meth:`kcl_currents` and ``jacobian`` has shape ``(4, 4) + grid``
        with ``jacobian[i, j]`` the partial derivative of terminal current
        ``i`` with respect to terminal voltage ``j``, both indexed in
        ``(gate, drain, source, bulk)`` order and expressed in the *circuit*
        frame.  The polarity mirroring cancels out of the derivatives (both
        the current and the voltage mirror), and the source/drain ordering
        swap exchanges the drain/source rows *and* columns wherever a
        device's terminals are potential-ordered the other way around.
        """
        sign = self.sign
        nvg, nvd, nvs, nvb = sign * vg, sign * vd, sign * vs, sign * vb
        swapped = nvd < nvs
        d = np.maximum(nvd, nvs)
        s = np.minimum(nvd, nvs)
        vgs = nvg - s
        vds = d - s
        vbs = nvb - s
        vth_eff, vth_vds, vth_vbs = effective_threshold_grad_v(
            vds,
            vbs,
            vth_base=self.vth_base,
            body_gamma=self.body_gamma,
            phi_s=self.phi_s,
            sqrt_phi_s=self.sqrt_phi_s,
            dibl=self.dibl,
        )
        # Frame partials of the threshold wrt (d, s, b); vg never enters.
        vth_d = vth_vds
        vth_s = -(vth_vds + vth_vbs)
        vth_b = vth_vbs

        i_ch, ich_vgs, ich_vds, ich_vbs = channel_current_grad_v(
            vgs,
            vds,
            self.temperature_k,
            vth_eff=vth_eff,
            dvth_dvds=vth_vds,
            dvth_dvbs=vth_vbs,
            n_swing=self.n_swing,
            i_spec=self.i_spec,
            theta_mobility=self.theta_mobility,
            isub_scale=self.isub_scale,
        )
        # Chain (vgs, vds, vbs) -> frame (g, d, s, b).
        channel_grad = (
            ich_vgs,
            ich_vds,
            -(ich_vgs + ich_vds + ich_vbs),
            ich_vbs,
        )

        gt_components, gt_jacobian = gate_tunneling_components_grad_v(
            nvg,
            d,
            s,
            nvb,
            vth_eff=vth_eff,
            dvth_dd=vth_d,
            dvth_ds=vth_s,
            dvth_db=vth_b,
            tox_nm=self.tox_nm,
            overlap_area_um2=self.overlap_area,
            gate_area_um2=self.gate_area,
            accumulation_factor=self.accumulation_factor,
            gb_fraction=self.gb_fraction,
            barrier_ev=self.barrier_ev,
            b_tox_per_nm=self.b_tox_per_nm,
            density_scale=self.gt_density_scale,
            temp_factor=self.gt_temp_factor,
            igate_scale=self.igate_scale,
        )
        igso, igdo, igcs, igcd, igb = gt_components

        stacked = self._btbt_stacked()
        density, density_grad = btbt_current_density_grad_v(
            np.concatenate([d - nvb, s - nvb]), **stacked["params"]
        )
        scaled = density * stacked["area_scale"]
        scaled_grad = density_grad * stacked["area_scale"]
        half = scaled.shape[0] // 2
        i_btbt_d, i_btbt_s = scaled[:half], scaled[half:]
        btbt_d_slope, btbt_s_slope = scaled_grad[:half], scaled_grad[half:]
        # Junction biases are (d - b) and (s - b): frame partial tuples.
        btbt_d_grad = (0.0, btbt_d_slope, 0.0, -btbt_d_slope)
        btbt_s_grad = (0.0, 0.0, btbt_s_slope, -btbt_s_slope)

        i_drain = i_ch - igdo - igcd + i_btbt_d
        i_source = -i_ch - igso - igcs + i_btbt_s
        i_bulk = -igb - i_btbt_d - i_btbt_s
        i_gate = igso + igdo + igcs + igcd + igb

        shape = np.broadcast_shapes(
            np.shape(vg), np.shape(vd), np.shape(vs), np.shape(vb),
            (self.slots, 1),
        )
        jacobian = np.empty((4, 4) + shape)
        for x in range(4):
            so, do, cs, cd, gb = (gt_jacobian[row, x] for row in range(5))
            jacobian[0, x] = so + do + cs + cd + gb
            jacobian[1, x] = channel_grad[x] - do - cd + btbt_d_grad[x]
            jacobian[2, x] = -channel_grad[x] - so - cs + btbt_s_grad[x]
            jacobian[3, x] = -gb - btbt_d_grad[x] - btbt_s_grad[x]

        # Undo the source/drain ordering: swapped devices exchange their
        # drain/source rows and columns.  The polarity sign cancels (currents
        # and voltages mirror together), so no sign factor appears here.
        row_drain = np.where(swapped, jacobian[2], jacobian[1])
        row_source = np.where(swapped, jacobian[1], jacobian[2])
        jacobian[1] = row_drain
        jacobian[2] = row_source
        col_drain = np.where(swapped, jacobian[:, 2], jacobian[:, 1])
        col_source = np.where(swapped, jacobian[:, 1], jacobian[:, 2])
        jacobian[:, 1] = col_drain
        jacobian[:, 2] = col_source

        ig = sign * i_gate
        idr = sign * np.where(swapped, i_source, i_drain)
        isr = sign * np.where(swapped, i_drain, i_source)
        ib = sign * i_bulk
        return (ig, idr, isr, ib), jacobian

    def kcl_jacobian_flat(self, vg, vd, vs, vb):
        """Return the terminal currents and the *flattened* device Jacobian.

        The scatter-friendly export both Newton linear-algebra backends
        consume: ``(currents, flat)`` where ``flat`` has shape
        ``(16 * slots, columns)`` — the ``(4, 4, T, B)`` circuit-frame
        Jacobian of :meth:`kcl_jacobian` broadcast to the full grid and
        reshaped row-major, so entry ``(i * 4 + j) * slots + t`` is
        ``dI_i/dV_j`` of transistor slot ``t``.  The dense backend
        scatter-adds these values into ``(B, N, N)`` matrices, the sparse
        backend into the shared CSC data vector; the flat layout is the
        triplet-value array both index through their precomputed
        ``jac_source`` maps.
        """
        currents, jacobian = self.kcl_jacobian(vg, vd, vs, vb)
        grid = np.broadcast_shapes(
            np.shape(vg), np.shape(vd), np.shape(vs), np.shape(vb),
            (self.slots, 1),
        )
        flat = np.broadcast_to(jacobian, (4, 4) + grid).reshape(
            16 * self.slots, grid[1]
        )
        return currents, flat

    def component_currents(self, vg, vd, vs, vb) -> ComponentCurrents:
        """Return the leakage component breakdown for the whole grid.

        Mirrors the component attribution of
        :meth:`Mosfet.terminal_currents`: channel current counts as
        subthreshold leakage only for transistors below threshold, the gate
        component is the sum of tunneling magnitudes, BTBT sums both
        junctions.
        """
        shape = np.broadcast_shapes(
            np.shape(vg), np.shape(vd), np.shape(vs), np.shape(vb), (self.slots, 1)
        )
        (
            ig,
            _idr,
            _isr,
            _ib,
            i_ch,
            vgs,
            vth_eff,
            (igso, igdo, igcs, igcd, igb),
            i_btbt,
        ) = self._assemble(vg, vd, vs, vb)
        off = vgs < vth_eff
        i_sub = np.where(off, np.abs(i_ch), 0.0)
        i_gate = (
            np.abs(igso) + np.abs(igdo) + np.abs(igcs) + np.abs(igcd) + np.abs(igb)
        )
        return ComponentCurrents(
            ig=np.broadcast_to(ig, shape),
            i_subthreshold=np.broadcast_to(i_sub, shape),
            i_gate=np.broadcast_to(i_gate, shape),
            i_btbt=np.broadcast_to(i_btbt, shape),
        )
