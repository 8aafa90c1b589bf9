"""Four-terminal MOSFET element combining all leakage mechanisms.

:class:`Mosfet` is the single point where the component models of
:mod:`repro.device.subthreshold`, :mod:`repro.device.gate_tunneling` and
:mod:`repro.device.btbt` are composed into terminal currents.  It is used in
two ways:

* the transistor-level DC solver (:mod:`repro.spice`) evaluates
  :meth:`Mosfet.terminal_currents` inside every Kirchhoff residual, and
* leakage reports read the per-component breakdown
  (:class:`MosfetCurrents`) after the operating point has been found.

Polarity handling: a PMOS is evaluated by mirroring all node voltages about
zero, evaluating the NMOS-like equations with the PMOS parameter set, and
negating the resulting terminal currents.  This keeps every component model
single-polarity and therefore simple to test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.btbt import junction_btbt_current
from repro.device.gate_tunneling import gate_tunneling_components
from repro.device.params import DeviceParams, Polarity
from repro.device.subthreshold import channel_current, effective_threshold


@dataclass(frozen=True)
class MosfetCurrents:
    """Terminal currents and component breakdown of one transistor.

    Terminal currents (``ig``, ``id``, ``is_``, ``ib``) follow the convention
    "positive = conventional current flowing from the circuit node *into* the
    device through that terminal"; they always sum to (numerically) zero.

    The component fields are magnitudes in amperes:

    * ``i_channel`` — signed drain-to-source channel current (device frame);
    * ``i_subthreshold`` — channel-current magnitude attributed to
      subthreshold conduction (zero for a transistor that is on);
    * ``i_gate`` — total gate-tunneling magnitude (|Igso|+|Igdo|+|Igc|+|Igb|);
    * ``i_gate_terminal`` — signed current entering the device through the
      gate terminal (what a driving net actually sees);
    * ``i_btbt`` — total junction BTBT magnitude (drain + source junctions).
    """

    ig: float
    id: float
    is_: float
    ib: float
    i_channel: float
    i_subthreshold: float
    i_gate: float
    i_gate_terminal: float
    i_btbt: float
    is_off: bool

    @property
    def total_leakage(self) -> float:
        """Return the per-transistor leakage figure used in reports."""
        return self.i_subthreshold + self.i_gate + self.i_btbt

    @property
    def kcl_residual(self) -> float:
        """Return the sum of terminal currents (should be ~0)."""
        return self.ig + self.id + self.is_ + self.ib


class Mosfet:
    """A four-terminal transistor instance bound to a device flavour.

    Parameters
    ----------
    device:
        The :class:`~repro.device.params.DeviceParams` flavour.
    width_nm:
        Optional instance width override (gate templates size stacks wider).
    vth_shift:
        Static threshold shift in volts applied on top of the model; process
        variation sampling uses this hook for per-transistor Vth variation.
    name:
        Optional instance name used in netlist diagnostics.
    """

    __slots__ = ("device", "vth_shift", "name")

    def __init__(
        self,
        device: DeviceParams,
        width_nm: float | None = None,
        vth_shift: float = 0.0,
        name: str = "",
    ) -> None:
        if width_nm is not None:
            device = device.replace(width_nm=width_nm)
        self.device = device
        self.vth_shift = vth_shift
        self.name = name

    @property
    def polarity(self) -> Polarity:
        """Return the transistor polarity."""
        return self.device.polarity

    def terminal_currents(
        self,
        vg: float,
        vd: float,
        vs: float,
        vb: float,
        temperature_k: float,
    ) -> MosfetCurrents:
        """Return terminal currents for the given node voltages.

        ``vg``/``vd``/``vs``/``vb`` are the actual circuit node voltages; the
        polarity mirroring happens internally.
        """
        (
            ig,
            idr,
            isr,
            ib,
            i_channel,
            i_subthreshold,
            i_gate,
            i_btbt,
            off,
        ) = self._compute(vg, vd, vs, vb, temperature_k)
        return MosfetCurrents(
            ig=ig,
            id=idr,
            is_=isr,
            ib=ib,
            i_channel=i_channel,
            i_subthreshold=i_subthreshold,
            i_gate=i_gate,
            i_gate_terminal=ig,
            i_btbt=i_btbt,
            is_off=off,
        )

    def kcl_currents(
        self,
        vg: float,
        vd: float,
        vs: float,
        vb: float,
        temperature_k: float,
    ) -> tuple[float, float, float, float]:
        """Return only the (gate, drain, source, bulk) terminal currents.

        This is the hot path of the DC solver's Kirchhoff residuals; it skips
        the :class:`MosfetCurrents` container construction.
        """
        result = self._compute(vg, vd, vs, vb, temperature_k)
        return result[0], result[1], result[2], result[3]

    def _compute(
        self,
        vg: float,
        vd: float,
        vs: float,
        vb: float,
        temperature_k: float,
    ) -> tuple[float, float, float, float, float, float, float, float, bool]:
        """Evaluate the device; shared by the report and solver paths."""
        sign = self.device.polarity.sign
        # Normalize: an NMOS is evaluated as-is, a PMOS with mirrored voltages.
        nvg, nvd, nvs, nvb = sign * vg, sign * vd, sign * vs, sign * vb

        # Source/drain ordering in the normalized frame: the terminal at the
        # lower potential acts as the source.
        swapped = nvd < nvs
        if swapped:
            nvd, nvs = nvs, nvd

        vgs = nvg - nvs
        vds = nvd - nvs
        vbs = nvb - nvs

        device = self.device
        vth_eff = (
            effective_threshold(device, vds, vbs, temperature_k) + self.vth_shift
        )

        i_ch = channel_current(
            device, vgs, vds, vbs, temperature_k, vth_shift=self.vth_shift
        )
        off = vgs < vth_eff

        gate = gate_tunneling_components(
            device, nvg, nvd, nvs, nvb, temperature_k, vth_eff
        )

        i_btbt_d = junction_btbt_current(device, nvd, nvb, temperature_k)
        i_btbt_s = junction_btbt_current(device, nvs, nvb, temperature_k)

        # Assemble terminal currents in the normalized frame.
        # Channel current flows drain -> source inside the device.
        i_drain = i_ch
        i_source = -i_ch
        # Gate tunneling: positive component = current from gate into device,
        # exiting through the corresponding terminal.
        i_gate_term = gate.total_gate_terminal
        i_drain -= gate.igdo + gate.igcd
        i_source -= gate.igso + gate.igcs
        i_bulk = -gate.igb
        # Junction BTBT: current flows from the (n+) diffusion into the bulk.
        i_drain += i_btbt_d
        i_source += i_btbt_s
        i_bulk -= i_btbt_d + i_btbt_s

        # Undo the source/drain swap.
        if swapped:
            i_drain, i_source = i_source, i_drain

        # Undo the polarity mirroring: mirrored voltages produce mirrored
        # currents, so real currents are the normalized ones times the sign.
        ig = sign * i_gate_term
        idr = sign * i_drain
        isr = sign * i_source
        ib = sign * i_bulk

        return (
            ig,
            idr,
            isr,
            ib,
            sign * i_ch if not swapped else -sign * i_ch,
            abs(i_ch) if off else 0.0,
            gate.magnitude,
            i_btbt_d + i_btbt_s,
            off,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Mosfet(name={self.name!r}, device={self.device.name!r}, "
            f"W={self.device.width_nm:.0f}nm)"
        )
