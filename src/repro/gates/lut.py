"""Characterized leakage data structures (the estimator's lookup tables).

The paper's circuit-level algorithm (Fig. 13) takes as input "leakage
components of different gate type, size, loading" — i.e. a characterized
library.  These containers hold that characterization:

* :class:`ResponseCurve` — leakage components of one gate type / input vector
  as a function of a *signed* loading current injected at one pin;
* :class:`GateVectorCharacterization` — the full record for one
  (gate type, input vector): nominal components, nominal node voltages, the
  gate-tunneling current each input pin injects into its net, and one
  response curve per pin (inputs and output).

Lookups use piecewise-linear interpolation with flat extrapolation: loading
currents beyond the characterized range saturate at the outermost
characterized value rather than extrapolating an unphysical trend.  Because a
silent clamp can quietly flat-line the response of a heavily loaded net (a
large-fanout design point outside the Fig. 5-8 sweeps), out-of-range lookups
are governed by a policy: ``"warn"`` (default) clamps but emits a
``ResponseCurveRangeWarning`` once per (curve pin, direction), ``"raise"``
turns the lookup into a ``ValueError``, and ``"clamp"`` restores the silent
behaviour.  The policy can be set per call or process-wide with
:func:`set_extrapolation_policy`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.spice.analysis import ComponentBreakdown

#: Component names stored by every response curve.
COMPONENT_NAMES = ("subthreshold", "gate", "btbt")

#: Valid out-of-range lookup policies.
EXTRAPOLATION_POLICIES = ("clamp", "warn", "raise")

#: Process-wide default policy for out-of-range lookups.
_extrapolation_policy = "warn"

#: (source, direction) pairs already warned about (the "warn once" memory).
#: The source is the curve instance (or an external interpolator's label),
#: so one noisy curve cannot silence warnings for every other gate type.
_warned_ranges: set[tuple] = set()


class ResponseCurveRangeWarning(UserWarning):
    """A loading current exceeded a response curve's characterized range."""


def _range_message(source: str, injection: float, low: float, high: float) -> str:
    return (
        f"loading current {injection:.3e} A at {source} is outside the "
        f"characterized injection range [{low:.3e}, {high:.3e}] A; the "
        "lookup clamps to the outermost characterized value "
        "(re-characterize with a wider injection_grid to cover this loading)"
    )


def _resolve_policy(policy: str | None) -> str:
    if policy is None:
        return _extrapolation_policy
    if policy not in EXTRAPOLATION_POLICIES:
        raise ValueError(
            f"unknown extrapolation policy {policy!r}; "
            f"expected one of {EXTRAPOLATION_POLICIES}"
        )
    return policy


def enforce_injection_range(
    source: str,
    injection: float,
    low: float,
    high: float,
    policy: str | None = None,
    dedup_key: object = None,
) -> None:
    """Apply the out-of-range policy on behalf of an external interpolator.

    The batched campaign engine interpolates baked LUT arrays directly — it
    never goes through :meth:`ResponseCurve.breakdown_at` — so it reports
    its clamped out-of-range lookups here to keep the policy uniform across
    engines.  ``source`` names the offender in the message; ``dedup_key``
    scopes the warn-once memory (defaults to ``source``).
    """
    policy = _resolve_policy(policy)
    if policy == "clamp" or low <= injection <= high:
        return
    if policy == "raise":
        raise ValueError(_range_message(source, injection, low, high))
    key = (dedup_key if dedup_key is not None else source,
           "low" if injection < low else "high")
    # Check the warn-once memory before formatting: a campaign pass calls
    # this for every clamped gate type, and all but the first are silent.
    if key in _warned_ranges:
        return
    _warned_ranges.add(key)
    warnings.warn(
        _range_message(source, injection, low, high),
        ResponseCurveRangeWarning,
        stacklevel=3,
    )


def set_extrapolation_policy(policy: str) -> str:
    """Set the process-wide out-of-range policy; returns the previous one.

    Also clears the process-wide warn-once memory (used by external
    interpolators such as the batched campaign engine); response curves keep
    their own per-instance memory.
    """
    global _extrapolation_policy
    if policy not in EXTRAPOLATION_POLICIES:
        raise ValueError(
            f"unknown extrapolation policy {policy!r}; "
            f"expected one of {EXTRAPOLATION_POLICIES}"
        )
    previous = _extrapolation_policy
    _extrapolation_policy = policy
    _warned_ranges.clear()
    return previous


@dataclass(frozen=True)
class ResponseCurve:
    """Leakage components versus signed loading current at one pin.

    Attributes
    ----------
    pin:
        Pin name the loading current is injected at (``a``/``b``/... for
        input loading, ``y`` for output loading).
    injections:
        Strictly increasing signed loading currents in amperes (positive =
        current injected into the net).
    subthreshold / gate / btbt:
        Leakage component magnitudes (A) of the characterized gate at each
        injection value.
    """

    pin: str
    injections: np.ndarray
    subthreshold: np.ndarray
    gate: np.ndarray
    btbt: np.ndarray

    def __post_init__(self) -> None:
        injections = np.asarray(self.injections, dtype=float)
        if injections.ndim != 1 or injections.size < 2:
            raise ValueError("a response curve needs at least two injection points")
        if not np.all(np.diff(injections) > 0):
            raise ValueError("injection values must be strictly increasing")
        for name in COMPONENT_NAMES:
            values = np.asarray(getattr(self, name), dtype=float)
            if values.shape != injections.shape:
                raise ValueError(f"component {name!r} length mismatch")
        object.__setattr__(self, "injections", injections)
        object.__setattr__(self, "subthreshold", np.asarray(self.subthreshold, float))
        object.__setattr__(self, "gate", np.asarray(self.gate, float))
        object.__setattr__(self, "btbt", np.asarray(self.btbt, float))
        # Per-instance warn-once memory for out-of-range lookups (kept on
        # the instance so one noisy curve can neither silence other curves
        # nor grow a process-global set).
        object.__setattr__(self, "_range_warned", set())

    def _check_range(self, injection: float, policy: str | None) -> None:
        """Apply the out-of-range policy for a lookup at ``injection``.

        The warn-once memory is scoped per curve instance and direction, so
        an overrun on one gate type's curve does not silence warnings for
        same-named pins of other gate types.
        """
        policy = _resolve_policy(policy)
        low = float(self.injections[0])
        high = float(self.injections[-1])
        if policy == "clamp" or low <= injection <= high:
            return
        message = _range_message(f"pin {self.pin!r}", injection, low, high)
        if policy == "raise":
            raise ValueError(message)
        direction = "low" if injection < low else "high"
        if direction in self._range_warned:
            return
        self._range_warned.add(direction)
        warnings.warn(message, ResponseCurveRangeWarning, stacklevel=4)

    def breakdown_at(
        self, injection: float, policy: str | None = None
    ) -> ComponentBreakdown:
        """Return the interpolated leakage breakdown at ``injection`` amps.

        ``policy`` overrides the process-wide out-of-range policy for this
        lookup (``"clamp"``, ``"warn"`` or ``"raise"``); see the module
        docstring.
        """
        self._check_range(injection, policy)
        return ComponentBreakdown(
            subthreshold=float(np.interp(injection, self.injections, self.subthreshold)),
            gate=float(np.interp(injection, self.injections, self.gate)),
            btbt=float(np.interp(injection, self.injections, self.btbt)),
        )

    def delta_at(
        self,
        injection: float,
        nominal: ComponentBreakdown,
        policy: str | None = None,
    ) -> ComponentBreakdown:
        """Return the loading-induced change relative to ``nominal``."""
        loaded = self.breakdown_at(injection, policy=policy)
        return ComponentBreakdown(
            subthreshold=loaded.subthreshold - nominal.subthreshold,
            gate=loaded.gate - nominal.gate,
            btbt=loaded.btbt - nominal.btbt,
        )

    def component_matrix(self) -> np.ndarray:
        """Return the curve as a ``(grid, component)`` matrix.

        Columns follow :data:`COMPONENT_NAMES`; the batched campaign engine
        consumes this layout when flattening a library into LUT arrays.
        """
        return np.stack([getattr(self, name) for name in COMPONENT_NAMES], axis=1)


@dataclass(frozen=True)
class GateVectorCharacterization:
    """Characterized leakage record of one (gate type, input vector).

    Attributes
    ----------
    gate_type_name:
        Lowercase gate-type name (kept as a string so the record serializes
        without importing the enum).
    vector:
        The input vector as a tuple of 0/1 values, ordered like the gate's
        input pins.
    nominal:
        Leakage components with no loading (the gate driven by nominal
        drivers, no neighbouring receivers).
    output_voltage:
        Solved output-node voltage at the nominal point (V).
    input_voltages:
        Solved input-net voltages at the nominal point, per pin (V).
    pin_injection:
        Signed gate-tunneling current each *input* pin injects into its
        driving net at the nominal point (A); this is what neighbouring gates
        sum into their loading currents I_L-IN / I_L-OUT.
    responses:
        Response curve per pin (all input pins plus the output pin ``y``).
    """

    gate_type_name: str
    vector: tuple[int, ...]
    nominal: ComponentBreakdown
    output_voltage: float
    input_voltages: dict[str, float]
    pin_injection: dict[str, float]
    responses: dict[str, ResponseCurve] = field(default_factory=dict)

    @property
    def vector_label(self) -> str:
        """Return the paper-style vector string, e.g. ``"01"``."""
        return "".join(str(int(b)) for b in self.vector)

    def nominal_array(self) -> np.ndarray:
        """Return the nominal components as a ``(component,)`` array.

        Ordered like :data:`COMPONENT_NAMES`; used by the batched campaign
        engine when snapshotting a characterized library into flat arrays.
        """
        return np.array(
            [self.nominal.component(name) for name in COMPONENT_NAMES], dtype=float
        )

    def response(self, pin: str) -> ResponseCurve:
        """Return the response curve of ``pin`` (KeyError if not characterized)."""
        return self.responses[pin]

    def leakage_with_loading(
        self, pin_injections: dict[str, float] | None = None
    ) -> ComponentBreakdown:
        """Return the leakage estimate under the given per-pin loading currents.

        The estimate combines per-pin characterized responses additively
        around the nominal point (first-order superposition), which is
        accurate because loading shifts leakage by only a few percent.  Pins
        absent from ``pin_injections`` (or mapped to zero) contribute nothing.
        """
        if not pin_injections:
            return self.nominal
        sub = self.nominal.subthreshold
        gate = self.nominal.gate
        btbt = self.nominal.btbt
        for pin, injection in pin_injections.items():
            if injection == 0.0:
                continue
            curve = self.responses.get(pin)
            if curve is None:
                raise KeyError(
                    f"pin {pin!r} of {self.gate_type_name} has no characterized response"
                )
            delta = curve.delta_at(injection, self.nominal)
            sub += delta.subthreshold
            gate += delta.gate
            btbt += delta.btbt
        return ComponentBreakdown(
            subthreshold=max(sub, 0.0), gate=max(gate, 0.0), btbt=max(btbt, 0.0)
        )
