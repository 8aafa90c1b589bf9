"""Parameter containers for the compact leakage models.

The parameters are deliberately split per mechanism so experiments can vary
one leakage component at a time (Section 5.1 of the paper studies devices in
which a chosen component dominates).  All containers are frozen dataclasses;
"what-if" variants are created through :meth:`DeviceParams.replace` so that a
characterized device can never be mutated behind a cache's back.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass


class Polarity(enum.Enum):
    """Transistor polarity."""

    NMOS = "nmos"
    PMOS = "pmos"

    @property
    def sign(self) -> int:
        """Return +1 for NMOS, -1 for PMOS (voltage normalization sign)."""
        return 1 if self is Polarity.NMOS else -1


@dataclass(frozen=True)
class SubthresholdParams:
    """Parameters of the weak-inversion (subthreshold) channel-current model.

    Attributes
    ----------
    vth0:
        Long-channel zero-bias threshold-voltage magnitude in volts.
    dibl:
        Drain-induced barrier lowering coefficient (V of Vth reduction per V
        of drain-source bias).
    body_gamma:
        Body-effect coefficient in V**0.5.
    phi_s:
        Surface potential (2*phi_F) used by the body-effect term, in volts.
    n_swing:
        Subthreshold swing ideality factor (S = n_swing * vT * ln 10).
    mobility_m2:
        Low-field effective mobility in m^2/(V*s) at 300 K.
    mobility_temp_exponent:
        Mobility temperature exponent: mu(T) = mu * (T/300)**(-exponent).
    vth_temp_coeff:
        Threshold-voltage temperature coefficient in V/K (negative: Vth drops
        as temperature rises, raising the subthreshold current).
    sce_tox_coeff:
        Short-channel Vth sensitivity to oxide thickness in V/nm.  A thicker
        oxide weakens gate control, lowering Vth and *raising* the
        subthreshold current (paper Fig. 4b).
    sce_length_coeff:
        Vth roll-off slope in V/nm of channel length: a shorter channel has a
        lower threshold.
    halo_vth_coeff:
        Vth increase in volts per decade of halo-doping increase relative to
        the reference halo dose (halo implants suppress the short-channel
        effect, paper Fig. 4a).
    theta_mobility:
        Vertical-field mobility degradation coefficient in 1/V, applied above
        threshold: mu_eff = mu / (1 + theta * (Vgs - Vth)).  It lowers the
        on-state conductance (and therefore sets how far a loading current
        can move a driven net) without touching the subthreshold region.
    tox_ref_nm / length_ref_nm:
        Reference oxide thickness and channel length the short-channel Vth
        sensitivities are anchored to (normally the preset's nominal
        geometry).  When left at ``None`` the corresponding geometry shift is
        disabled; presets always set them so oxide-thickness sweeps
        (Fig. 4b) and process variation in L/Tox move the threshold.
    """

    vth0: float
    dibl: float
    body_gamma: float
    phi_s: float
    n_swing: float
    mobility_m2: float
    mobility_temp_exponent: float
    vth_temp_coeff: float
    sce_tox_coeff: float
    sce_length_coeff: float
    halo_vth_coeff: float
    theta_mobility: float = 0.0
    tox_ref_nm: float | None = None
    length_ref_nm: float | None = None

    def __post_init__(self) -> None:
        if self.vth0 <= 0:
            raise ValueError(f"vth0 must be positive, got {self.vth0}")
        if self.n_swing < 1.0:
            raise ValueError(f"n_swing must be >= 1, got {self.n_swing}")
        if self.mobility_m2 <= 0:
            raise ValueError(f"mobility must be positive, got {self.mobility_m2}")
        if self.phi_s <= 0:
            raise ValueError(f"phi_s must be positive, got {self.phi_s}")
        if self.theta_mobility < 0:
            raise ValueError("theta_mobility must be non-negative")


@dataclass(frozen=True)
class GateTunnelingParams:
    """Parameters of the gate direct-tunneling model.

    Attributes
    ----------
    jg_ref:
        Gate tunneling current density in A/um^2 at the reference oxide
        voltage ``vref`` and reference oxide thickness ``tox_ref_nm``.  The
        physical tunneling shape function is scaled to hit this point, which
        is how the models are "extracted" in lieu of AURORA.
    vref:
        Reference oxide voltage in volts for ``jg_ref`` (typically VDD).
    tox_ref_nm:
        Reference oxide thickness in nm for ``jg_ref``.
    barrier_ev:
        Tunneling barrier height in eV (Si/SiO2 conduction band ~ 3.1 eV for
        electrons; the hole barrier is absorbed into ``jg_ref`` of the PMOS).
    b_tox_per_nm:
        Exponential thickness sensitivity in 1/nm: each additional nanometre
        of oxide attenuates the tunneling current by roughly
        ``exp(-b_tox_per_nm)`` at the reference bias.
    overlap_length_nm:
        Gate-to-source/drain overlap length in nm (sets the Igso/Igdo area).
    accumulation_factor:
        Relative strength of tunneling when the channel is not inverted
        (gate-to-bulk / accumulation leakage), as a fraction of the inverted
        channel tunneling at the same oxide voltage.
    gb_fraction:
        Fraction of the channel tunneling attributed to the gate-to-substrate
        path (Igb); the remainder splits between Igcs and Igcd.
    temp_coeff_per_k:
        Weak linear temperature coefficient (1/K); gate tunneling is nearly
        temperature independent (paper Fig. 4c).
    """

    jg_ref: float
    vref: float
    tox_ref_nm: float
    barrier_ev: float
    b_tox_per_nm: float
    overlap_length_nm: float
    accumulation_factor: float
    gb_fraction: float
    temp_coeff_per_k: float

    def __post_init__(self) -> None:
        if self.jg_ref < 0:
            raise ValueError(f"jg_ref must be non-negative, got {self.jg_ref}")
        if self.vref <= 0:
            raise ValueError(f"vref must be positive, got {self.vref}")
        if self.tox_ref_nm <= 0:
            raise ValueError(f"tox_ref_nm must be positive, got {self.tox_ref_nm}")
        if self.barrier_ev <= 0:
            raise ValueError(f"barrier_ev must be positive, got {self.barrier_ev}")
        if not 0.0 <= self.gb_fraction < 1.0:
            raise ValueError(f"gb_fraction must be in [0, 1), got {self.gb_fraction}")


@dataclass(frozen=True)
class BtbtParams:
    """Parameters of the junction band-to-band-tunneling model.

    Attributes
    ----------
    jbtbt_ref:
        BTBT current density in A/um^2 of junction area at the reference
        reverse bias ``vref`` and reference halo doping ``halo_ref_cm3``.
    vref:
        Reference reverse bias in volts (typically VDD).
    halo_ref_cm3:
        Reference halo (effective junction) doping in cm^-3.
    halo_cm3:
        Actual halo doping of this device in cm^-3.  BTBT grows roughly
        exponentially with the junction field, i.e. with sqrt(doping).
    psi_bi:
        Junction built-in potential in volts.
    field_exponent:
        Dimensionless exponent of the Kane-model field term retained in the
        calibrated shape function (kept at 1.0 in presets).
    b_field:
        Kane exponential factor expressed relative to the reference field
        (dimensionless); larger values make BTBT more sensitive to bias and
        doping.
    junction_depth_nm:
        Effective junction depth in nm (sets the junction area together with
        the device width).
    bandgap_sensitivity:
        Exponent applied to the bandgap ratio Eg(T)/Eg(300K) inside the
        exponential; bandgap narrowing makes BTBT increase marginally with
        temperature (paper Fig. 4c).
    """

    jbtbt_ref: float
    vref: float
    halo_ref_cm3: float
    halo_cm3: float
    psi_bi: float
    field_exponent: float
    b_field: float
    junction_depth_nm: float
    bandgap_sensitivity: float

    def __post_init__(self) -> None:
        if self.jbtbt_ref < 0:
            raise ValueError(f"jbtbt_ref must be non-negative, got {self.jbtbt_ref}")
        if self.halo_cm3 <= 0 or self.halo_ref_cm3 <= 0:
            raise ValueError("halo doping must be positive")
        if self.psi_bi <= 0:
            raise ValueError(f"psi_bi must be positive, got {self.psi_bi}")
        if self.junction_depth_nm <= 0:
            raise ValueError("junction_depth_nm must be positive")


@dataclass(frozen=True)
class DeviceParams:
    """Complete parameter set of a single transistor flavour.

    A :class:`DeviceParams` is what the paper would call "a device": a
    MEDICI-designed NMOS or PMOS of a given geometry whose leakage components
    have been extracted.  Gate templates scale ``width_nm`` per instance; the
    other geometry is part of the flavour.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"nmos-50nm"``.
    polarity:
        NMOS or PMOS.
    width_nm / length_nm / tox_nm:
        Drawn width, channel length, and oxide thickness in nm.
    subthreshold / gate_tunneling / btbt:
        Per-mechanism parameter groups.
    isub_scale / igate_scale / ibtbt_scale:
        Dimensionless calibration multipliers applied to each mechanism;
        presets use them to realise the D25-S / D25-G / D25-JN variants
        without re-deriving physical parameters.
    """

    name: str
    polarity: Polarity
    width_nm: float
    length_nm: float
    tox_nm: float
    subthreshold: SubthresholdParams
    gate_tunneling: GateTunnelingParams
    btbt: BtbtParams
    isub_scale: float = 1.0
    igate_scale: float = 1.0
    ibtbt_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.width_nm <= 0:
            raise ValueError(f"width_nm must be positive, got {self.width_nm}")
        if self.length_nm <= 0:
            raise ValueError(f"length_nm must be positive, got {self.length_nm}")
        if self.tox_nm <= 0:
            raise ValueError(f"tox_nm must be positive, got {self.tox_nm}")
        if min(self.isub_scale, self.igate_scale, self.ibtbt_scale) < 0:
            raise ValueError("leakage scale factors must be non-negative")

    @property
    def is_nmos(self) -> bool:
        """Return True for an NMOS flavour."""
        return self.polarity is Polarity.NMOS

    @property
    def gate_area_um2(self) -> float:
        """Return the gate (channel) area in um^2."""
        return (self.width_nm / 1000.0) * (self.length_nm / 1000.0)

    @property
    def overlap_area_um2(self) -> float:
        """Return the gate-to-S/D overlap area (one side) in um^2."""
        return (self.width_nm / 1000.0) * (
            self.gate_tunneling.overlap_length_nm / 1000.0
        )

    @property
    def junction_area_um2(self) -> float:
        """Return the effective drain (or source) junction area in um^2."""
        return (self.width_nm / 1000.0) * (self.btbt.junction_depth_nm / 1000.0)

    def replace(self, **changes: object) -> "DeviceParams":
        """Return a copy of this device with top-level fields replaced.

        Nested parameter groups can be replaced wholesale; use
        :meth:`replace_subthreshold` (and siblings) to tweak single fields of
        a nested group.
        """
        return dataclasses.replace(self, **changes)

    def replace_subthreshold(self, **changes: object) -> "DeviceParams":
        """Return a copy with fields of the subthreshold group replaced."""
        return dataclasses.replace(
            self, subthreshold=dataclasses.replace(self.subthreshold, **changes)
        )

    def replace_gate_tunneling(self, **changes: object) -> "DeviceParams":
        """Return a copy with fields of the gate-tunneling group replaced."""
        return dataclasses.replace(
            self, gate_tunneling=dataclasses.replace(self.gate_tunneling, **changes)
        )

    def replace_btbt(self, **changes: object) -> "DeviceParams":
        """Return a copy with fields of the BTBT group replaced."""
        return dataclasses.replace(
            self, btbt=dataclasses.replace(self.btbt, **changes)
        )

    def scaled_width(self, factor: float) -> "DeviceParams":
        """Return a copy whose width is multiplied by ``factor``.

        Gate templates use this to size series stacks and wide PMOS pull-ups.
        """
        if factor <= 0:
            raise ValueError(f"width scale factor must be positive, got {factor}")
        return self.replace(width_nm=self.width_nm * factor)


@dataclass(frozen=True)
class TechnologyParams:
    """Technology-level context shared by every transistor of a design.

    Attributes
    ----------
    name:
        Technology identifier, e.g. ``"bulk-25nm"``.
    vdd:
        Nominal supply voltage in volts.
    temperature_k:
        Nominal operating temperature in kelvin.
    nmos / pmos:
        The NMOS and PMOS device flavours of the technology.
    """

    name: str
    vdd: float
    temperature_k: float
    nmos: DeviceParams
    pmos: DeviceParams

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if self.temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        if not self.nmos.is_nmos:
            raise ValueError("nmos flavour must have NMOS polarity")
        if self.pmos.is_nmos:
            raise ValueError("pmos flavour must have PMOS polarity")

    def replace(self, **changes: object) -> "TechnologyParams":
        """Return a copy of the technology with fields replaced."""
        return dataclasses.replace(self, **changes)

    def device(self, polarity: Polarity) -> DeviceParams:
        """Return the device flavour for ``polarity``."""
        return self.nmos if polarity is Polarity.NMOS else self.pmos
