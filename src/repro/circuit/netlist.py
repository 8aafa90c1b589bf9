"""Gate-level circuit representation.

A :class:`Circuit` is a combinational netlist: primary inputs, primary
outputs and a set of :class:`Gate` instances connected by named nets.  Each
net has exactly one driver (a primary input or a gate output) and any number
of receivers.  The paper's loading effect lives on exactly this structure:
the gate-tunneling currents of a net's *receivers* perturb the net and change
the leakage of the net's *driver* and of the receivers themselves.

Sequential elements are not modelled; benchmark circuits with flip-flops are
handled by the ``.bench`` reader, which exposes flop outputs as pseudo
primary inputs and flop inputs as pseudo primary outputs (the standard
combinational-core treatment for leakage analysis).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.gates.library import GateSpec, GateType, gate_spec


@dataclass(frozen=True)
class Gate:
    """One gate instance of a circuit.

    Attributes
    ----------
    name:
        Unique instance name.
    gate_type:
        Library gate type.
    inputs:
        Net names connected to the gate's input pins, in pin order.
    output:
        Net name driven by the gate.
    """

    name: str
    gate_type: GateType
    inputs: tuple[str, ...]
    output: str

    @property
    def spec(self) -> GateSpec:
        """Return the library spec of this gate's type."""
        return gate_spec(self.gate_type)


@dataclass
class Circuit:
    """A combinational gate-level netlist."""

    name: str
    primary_inputs: list[str] = field(default_factory=list)
    primary_outputs: list[str] = field(default_factory=list)
    gates: dict[str, Gate] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare ``net`` as a primary input and return it."""
        if net in self.primary_inputs:
            return net
        if self.driver_of(net) is not None:
            raise ValueError(f"net {net!r} is already driven by a gate")
        # A primary input is in neither index, only in the structure key.
        self.__dict__.pop("_structure_key", None)
        self.primary_inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        """Declare ``net`` as a primary output and return it."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
        return net

    def add_gate(
        self,
        name: str,
        gate_type: GateType | str,
        inputs: list[str] | tuple[str, ...],
        output: str,
    ) -> Gate:
        """Add a gate instance.

        Raises ``ValueError`` for duplicate instance names, arity mismatches,
        or nets driven by more than one source.
        """
        if name in self.gates:
            raise ValueError(f"duplicate gate name {name!r}")
        spec = gate_spec(gate_type)
        inputs = tuple(inputs)
        if len(inputs) != spec.num_inputs:
            raise ValueError(
                f"{spec.name} gate {name!r} expects {spec.num_inputs} inputs, "
                f"got {len(inputs)}"
            )
        if output in self.primary_inputs:
            raise ValueError(f"net {output!r} is a primary input and cannot be driven")
        existing_driver = self.driver_of(output)
        if existing_driver is not None:
            raise ValueError(
                f"net {output!r} already driven by gate {existing_driver!r}"
            )
        gate = Gate(name=name, gate_type=spec.gate_type, inputs=inputs, output=output)
        self.gates[name] = gate
        # driver_of() above built the driver index; keep it current in place
        # so building a circuit gate by gate stays linear.
        self._drivers[output] = name
        self.__dict__.pop("_fanout_index", None)
        self.__dict__.pop("_structure_key", None)
        return gate

    # ------------------------------------------------------------------ #
    # indices (built lazily; add_gate keeps the driver index current)
    # ------------------------------------------------------------------ #
    def _invalidate(self) -> None:
        """Drop both indices and the structure key; call after mutating
        ``gates`` or ``primary_inputs`` directly."""
        self.__dict__.pop("_driver_index", None)
        self.__dict__.pop("_fanout_index", None)
        self.__dict__.pop("_structure_key", None)

    @property
    def structure_key(self) -> str:
        """Return a structural key of the circuit, stable across copies.

        The SHA-256 hex digest of the name, the primary inputs and every
        gate's (name, type, inputs, output): structural copies share it,
        and, as a string caches its hash, a dict lookup keyed by it costs
        O(1) however many gates the circuit has.  Built on first use and
        kept until ``add_input``, ``add_gate`` or ``_invalidate`` changes
        the structure.
        """
        key = self.__dict__.get("_structure_key")
        if key is None:
            key = _structure_digest(self)
            self.__dict__["_structure_key"] = key
        return key

    @property
    def _drivers(self) -> dict[str, str]:
        index = self.__dict__.get("_driver_index")
        if index is None:
            index = {gate.output: gate.name for gate in self.gates.values()}
            self.__dict__["_driver_index"] = index
        return index

    @property
    def _fanouts(self) -> dict[str, list[tuple[str, str]]]:
        index = self.__dict__.get("_fanout_index")
        if index is None:
            index = {}
            for gate in self.gates.values():
                for pin, net in zip(gate.spec.inputs, gate.inputs):
                    index.setdefault(net, []).append((gate.name, pin))
            self.__dict__["_fanout_index"] = index
        return index

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def driver_of(self, net: str) -> str | None:
        """Return the name of the gate driving ``net`` (None for PIs/undriven)."""
        return self._drivers.get(net)

    def fanout_of(self, net: str) -> list[tuple[str, str]]:
        """Return the ``(gate_name, pin_name)`` receivers of ``net``."""
        return list(self._fanouts.get(net, []))

    def is_primary_input(self, net: str) -> bool:
        """Return True when ``net`` is a primary input."""
        return net in self.primary_inputs

    def nets(self) -> list[str]:
        """Return every net name (primary inputs first, then gate outputs)."""
        seen: dict[str, None] = {net: None for net in self.primary_inputs}
        for gate in self.gates.values():
            for net in gate.inputs:
                seen.setdefault(net, None)
            seen.setdefault(gate.output, None)
        return list(seen)

    @property
    def gate_count(self) -> int:
        """Return the number of gate instances."""
        return len(self.gates)

    def gate_type_histogram(self) -> dict[str, int]:
        """Return a mapping of gate-type name to instance count."""
        histogram: dict[str, int] = {}
        for gate in self.gates.values():
            key = gate.gate_type.value
            histogram[key] = histogram.get(key, 0) + 1
        return dict(sorted(histogram.items()))

    def validate(self) -> None:
        """Raise ``ValueError`` if the circuit is structurally inconsistent.

        Checks: every gate input is driven (by a PI or another gate), every
        primary output exists, and no net is both a PI and a gate output.
        """
        drivers = self._drivers
        pi_set = set(self.primary_inputs)
        for gate in self.gates.values():
            for net in gate.inputs:
                if net not in pi_set and net not in drivers:
                    raise ValueError(
                        f"gate {gate.name!r} input net {net!r} has no driver"
                    )
        for net in self.primary_outputs:
            if net not in pi_set and net not in drivers:
                raise ValueError(f"primary output {net!r} has no driver")
        overlap = pi_set.intersection(drivers)
        if overlap:
            raise ValueError(f"nets driven by both a PI and a gate: {sorted(overlap)}")

    def stats(self) -> dict[str, object]:
        """Return summary statistics used by reports and experiments."""
        return {
            "name": self.name,
            "gates": self.gate_count,
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
            "nets": len(self.nets()),
            "gate_types": self.gate_type_histogram(),
        }

    def copy(self, name: str | None = None) -> "Circuit":
        """Return a structural copy of the circuit (gates are immutable)."""
        clone = Circuit(name=name or self.name)
        clone.primary_inputs = list(self.primary_inputs)
        clone.primary_outputs = list(self.primary_outputs)
        clone.gates = dict(self.gates)
        return clone


def _structure_digest(circuit: Circuit) -> str:
    """Return the SHA-256 hex digest behind :attr:`Circuit.structure_key`."""
    structure = (
        circuit.name,
        tuple(circuit.primary_inputs),
        tuple(
            (gate.name, gate.gate_type.value, gate.inputs, gate.output)
            for gate in circuit.gates.values()
        ),
    )
    return hashlib.sha256(repr(structure).encode()).hexdigest()
