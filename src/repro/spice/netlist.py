"""Transistor-level netlist representation.

A :class:`TransistorNetlist` is the structure the DC solver operates on.  It
is intentionally small: nodes and four-terminal transistor instances
(:class:`repro.device.mosfet.Mosfet` bound to node names).  Currents injected
into free nodes — the loading currents of the gate characterization — are
solve inputs, not netlist elements
(:class:`~repro.spice.batched.BatchedDcSolver`'s ``injection``).

Node semantics
--------------
* ``FIXED`` nodes have a prescribed voltage (supply rails, logic-driven
  primary inputs).  The solver never moves them.
* ``FREE`` nodes are solved: gate outputs, internal stack nodes, and any net
  whose voltage the loading effect perturbs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.device.mosfet import Mosfet

#: Conventional rail node names.
GROUND = "gnd"
SUPPLY = "vdd"


class NodeKind(enum.Enum):
    """Whether a node's voltage is prescribed or solved."""

    FIXED = "fixed"
    FREE = "free"


@dataclass
class Node:
    """A circuit node.

    Attributes
    ----------
    name:
        Unique node name.
    kind:
        FIXED (prescribed voltage) or FREE (solved).
    voltage:
        Prescribed voltage for FIXED nodes; initial guess for FREE nodes.
    """

    name: str
    kind: NodeKind
    voltage: float = 0.0


@dataclass(frozen=True)
class TransistorInstance:
    """A transistor bound to netlist nodes.

    Attributes
    ----------
    name:
        Instance name (unique within the netlist).
    mosfet:
        The evaluated device model.
    gate / drain / source / bulk:
        Node names of the four terminals.
    owner:
        Optional tag identifying the logic gate this transistor belongs to;
        analysis aggregates leakage components per owner.
    """

    name: str
    mosfet: Mosfet
    gate: str
    drain: str
    source: str
    bulk: str
    owner: str = ""

    def terminals(self) -> tuple[tuple[str, str], ...]:
        """Return ``(terminal_name, node_name)`` pairs."""
        return (
            ("gate", self.gate),
            ("drain", self.drain),
            ("source", self.source),
            ("bulk", self.bulk),
        )


@dataclass
class TransistorNetlist:
    """A flat transistor-level netlist.

    The netlist carries its supply voltage so rails can be created eagerly;
    every constructor path goes through :meth:`add_node` /
    :meth:`add_transistor` so the attachment index used by the solver is
    always consistent.
    """

    vdd: float
    nodes: dict[str, Node] = field(default_factory=dict)
    transistors: list[TransistorInstance] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        self.add_node(GROUND, fixed_voltage=0.0)
        self.add_node(SUPPLY, fixed_voltage=self.vdd)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, fixed_voltage: float | None = None) -> Node:
        """Add (or fetch) a node.

        Parameters
        ----------
        name:
            Node name.  Adding an existing name returns the existing node;
            attempting to change its kind raises ``ValueError``.
        fixed_voltage:
            If given, the node is FIXED at that voltage.
        """
        existing = self.nodes.get(name)
        if existing is not None:
            if fixed_voltage is not None:
                if existing.kind is not NodeKind.FIXED:
                    raise ValueError(f"node {name!r} already exists as a free node")
                if abs(existing.voltage - fixed_voltage) > 1e-12:
                    raise ValueError(
                        f"node {name!r} already fixed at {existing.voltage} V"
                    )
            return existing
        if fixed_voltage is None:
            node = Node(name=name, kind=NodeKind.FREE, voltage=0.0)
        else:
            node = Node(name=name, kind=NodeKind.FIXED, voltage=float(fixed_voltage))
        self.nodes[name] = node
        return node

    def fix_node(self, name: str, voltage: float) -> None:
        """Fix an existing node at ``voltage`` (or create it fixed)."""
        node = self.nodes.get(name)
        if node is None:
            self.add_node(name, fixed_voltage=voltage)
            return
        node.kind = NodeKind.FIXED
        node.voltage = float(voltage)

    def free_node(self, name: str, initial_voltage: float = 0.0) -> None:
        """Make an existing node free (solved), keeping an initial guess."""
        node = self.nodes.get(name)
        if node is None:
            node = self.add_node(name)
        node.kind = NodeKind.FREE
        node.voltage = float(initial_voltage)

    def add_transistor(
        self,
        name: str,
        mosfet: Mosfet,
        gate: str,
        drain: str,
        source: str,
        bulk: str,
        owner: str = "",
    ) -> TransistorInstance:
        """Add a transistor instance; referenced nodes are created free."""
        for node_name in (gate, drain, source, bulk):
            self.add_node(node_name)
        instance = TransistorInstance(
            name=name,
            mosfet=mosfet,
            gate=gate,
            drain=drain,
            source=source,
            bulk=bulk,
            owner=owner,
        )
        self.transistors.append(instance)
        return instance

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def free_nodes(self) -> list[str]:
        """Return the names of all free (solved) nodes."""
        return [n.name for n in self.nodes.values() if n.kind is NodeKind.FREE]

    def fixed_voltages(self) -> dict[str, float]:
        """Return the mapping of fixed node names to their voltages."""
        return {
            n.name: n.voltage
            for n in self.nodes.values()
            if n.kind is NodeKind.FIXED
        }

    def attachments(self) -> dict[str, list[tuple[TransistorInstance, str]]]:
        """Return, per node, the ``(transistor, terminal)`` pairs attached to it."""
        index: dict[str, list[tuple[TransistorInstance, str]]] = {
            name: [] for name in self.nodes
        }
        for transistor in self.transistors:
            for terminal, node_name in transistor.terminals():
                index[node_name].append((transistor, terminal))
        return index

    def owners(self) -> list[str]:
        """Return the distinct owner tags in insertion order."""
        seen: dict[str, None] = {}
        for transistor in self.transistors:
            if transistor.owner and transistor.owner not in seen:
                seen[transistor.owner] = None
        return list(seen)

    def validate(self) -> None:
        """Raise ``ValueError`` for structurally broken netlists.

        Checks: duplicate transistor names and free nodes with no attached
        device (which would make the KCL system singular).
        """
        names = [t.name for t in self.transistors]
        if len(names) != len(set(names)):
            raise ValueError("duplicate transistor instance names in netlist")
        attachment_index = self.attachments()
        for name in self.free_nodes():
            if not attachment_index[name]:
                raise ValueError(f"free node {name!r} has no attached devices")
