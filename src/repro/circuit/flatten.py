"""Expansion of a gate-level circuit into a transistor-level netlist.

The reference ("SPICE") leakage analysis of a circuit needs every transistor
of every gate in one :class:`~repro.spice.netlist.TransistorNetlist`, with

* primary-input nets fixed at the rail implied by the applied input vector,
* every other net free (solved), seeded with the rail implied by its logic
  value so the DC solver starts near the answer.

A circuit flattens to *one* transistor topology: different input vectors only
change the fixed primary-input rails and the free-node seeds, and different
supplies only scale them.  :func:`flatten_batch` exploits that — it builds
the shared netlist once and derives per-vector fixed-voltage and seed
*arrays*, which :class:`~repro.spice.batched.BatchedDcSolver` binds to that
one netlist and solves in one vectorized pass;
:meth:`FlattenedCircuit.at_supplies` does the same for one vector at many
supplies (the Monte-Carlo dies).

Keeping the expansion separate from the solver lets tests inspect the
flattened structure (transistor counts, node sharing) independently of any
numerical behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.logic import propagate
from repro.circuit.netlist import Circuit
from repro.device.params import TechnologyParams
from repro.gates.templates import build_gate_transistors, internal_seed_levels
from repro.spice.netlist import SUPPLY, TransistorNetlist


@dataclass
class FlattenedCircuit:
    """A circuit flattened to transistors for one input assignment.

    Attributes
    ----------
    circuit:
        The source gate-level circuit.
    netlist:
        The transistor-level netlist (shares net names with the circuit).
    net_values:
        Logic value of every net under the applied input assignment.
    input_assignment:
        The primary-input assignment used for the expansion.
    internal_nodes:
        Per gate, the instance-internal node names (stack nodes, internal
        stages) created by its transistor template.
    """

    circuit: Circuit
    netlist: TransistorNetlist
    net_values: dict[str, int]
    input_assignment: dict[str, int]
    internal_nodes: dict[str, list[str]]

    @property
    def transistor_count(self) -> int:
        """Return the number of transistor instances."""
        return len(self.netlist.transistors)

    def initial_voltages(self) -> dict[str, float]:
        """Return rail-based initial guesses for every free node.

        Column 0 of :meth:`BatchedFlattenedCircuit.initial_voltages` at the
        netlist's own supply, so one seed rule serves both.
        """
        seeds = self.at_supplies(np.array([self.netlist.vdd])).initial_voltages()
        return {node: float(values[0]) for node, values in seeds.items()}

    def at_supplies(self, supply: np.ndarray) -> "BatchedFlattenedCircuit":
        """Instantiate this flattened circuit at ``B`` supply voltages.

        Column ``b`` runs at ``supply[b]``: its supply rail, primary-input
        rails and free-node seeds are what :func:`flatten` would give under
        a technology with that ``vdd``.  The netlist is shared, so the
        device parameters of each column are bound separately (see
        :meth:`~repro.device.batched.PackedMosfets.from_kinds`).
        """
        supply = np.asarray(supply, dtype=float)
        values = self.net_values
        rails = {
            net: supply * values[net] for net in self.circuit.primary_inputs
        }
        rails[SUPPLY] = supply
        return BatchedFlattenedCircuit(
            circuit=self.circuit,
            netlist=self.netlist,
            assignments=[self.input_assignment] * supply.size,
            net_values=[values] * supply.size,
            internal_nodes=self.internal_nodes,
            fixed_voltages=rails,
            supply=supply,
        )


def _build_netlist(
    circuit: Circuit,
    technology: TechnologyParams,
    pi_voltages: dict[str, float],
) -> tuple[TransistorNetlist, dict[str, list[str]]]:
    """Expand ``circuit`` into transistors with the given primary-input rails."""
    netlist = TransistorNetlist(vdd=technology.vdd)
    for net in circuit.primary_inputs:
        netlist.add_node(net, fixed_voltage=pi_voltages[net])

    internal_nodes: dict[str, list[str]] = {}
    for gate in circuit.gates.values():
        pins = {pin: net for pin, net in zip(gate.spec.inputs, gate.inputs)}
        pins[gate.spec.output] = gate.output
        internal_nodes[gate.name] = build_gate_transistors(
            netlist, technology, gate.gate_type, gate.name, pins, owner=gate.name
        )
    return netlist, internal_nodes


def flatten(
    circuit: Circuit,
    technology: TechnologyParams,
    input_assignment: dict[str, int],
) -> FlattenedCircuit:
    """Flatten ``circuit`` under ``input_assignment`` into transistors.

    The circuit is validated first; logic values are propagated to seed the
    free nets and to fix the primary inputs at their rails.
    """
    circuit.validate()
    net_values = propagate(circuit, input_assignment)
    netlist, internal_nodes = _build_netlist(
        circuit,
        technology,
        {net: technology.vdd * net_values[net] for net in circuit.primary_inputs},
    )
    return FlattenedCircuit(
        circuit=circuit,
        netlist=netlist,
        net_values=net_values,
        input_assignment=dict(input_assignment),
        internal_nodes=internal_nodes,
    )


@dataclass
class BatchedFlattenedCircuit:
    """A circuit flattened once, instantiated for ``B`` input assignments.

    The transistor topology of a circuit does not depend on the applied
    vector, so a batch shares one :class:`TransistorNetlist` (one set of
    transistor instances and :class:`~repro.device.mosfet.Mosfet` objects);
    only the fixed primary-input rails and the free-node seeds vary, and they
    are carried as ``(B,)`` arrays — the ``fixed`` and ``initial_voltages``
    bindings of :class:`~repro.spice.batched.BatchedDcSolver`.

    Attributes
    ----------
    circuit:
        The source gate-level circuit.
    netlist:
        The shared transistor-level netlist (primary inputs fixed at the
        rails of the *first* assignment; per-vector rails live in
        ``fixed_voltages``).
    assignments:
        The primary-input assignments, in batch order.
    net_values:
        Per assignment, the logic value of every net.
    internal_nodes:
        Per gate, the instance-internal node names of its template.
    fixed_voltages:
        Per primary-input net, the ``(B,)`` rail voltages implied by the
        assignments (and the supply rail when ``supply`` is set).
    supply:
        Per-column supply voltages ``(B,)``, or None when every column runs
        at ``netlist.vdd``.
    """

    circuit: Circuit
    netlist: TransistorNetlist
    assignments: list[dict[str, int]]
    net_values: list[dict[str, int]]
    internal_nodes: dict[str, list[str]]
    fixed_voltages: dict[str, np.ndarray]
    supply: np.ndarray | None = None

    @property
    def batch(self) -> int:
        """Return the number of batch instances (input assignments)."""
        return len(self.assignments)

    @property
    def transistor_count(self) -> int:
        """Return the number of transistor instances of the shared topology."""
        return len(self.netlist.transistors)

    def initial_voltages(self) -> dict[str, np.ndarray]:
        """Return per-vector rail-based initial guesses as ``(B,)`` arrays.

        Circuit nets start at the rail implied by their logic value.  Gate
        internal nodes start at the rail their template actually settles
        them at (:func:`~repro.gates.templates.internal_seed_levels`): a
        series-stack node follows whichever end it conducts to, and the
        internal stage of a two-stage gate (BUF, AND*, OR*) sits at the
        *complement* of the output.  Seeding every internal node at the
        output rail leaves wrong-rail stage nodes with mA-scale residuals
        that the damped Newton solver grinds on for dozens of iterations at
        large circuit sizes.  Column ``b`` uses ``assignments[b]`` at supply
        ``supply[b]``.
        """
        vdd: float | np.ndarray = self.netlist.vdd if self.supply is None else self.supply
        guesses: dict[str, np.ndarray] = {}
        for net in self.net_values[0]:
            if self.circuit.is_primary_input(net):
                continue
            guesses[net] = vdd * np.array(
                [values[net] for values in self.net_values], dtype=float
            )
        for gate_name, nodes in self.internal_nodes.items():
            if not nodes:
                continue
            gate = self.circuit.gates[gate_name]
            per_vector = [
                internal_seed_levels(
                    gate.gate_type,
                    [values[net] for net in gate.inputs],
                    values[gate.output],
                )
                for values in self.net_values
            ]
            prefix = len(gate_name) + 1
            for node in nodes:
                # A KeyError here means the template created a node its
                # seed table does not know — fail loudly, not silently.
                label = node[prefix:]
                guesses[node] = vdd * np.array(
                    [levels[label] for levels in per_vector], dtype=float
                )
        return guesses


def flatten_batch(
    circuit: Circuit,
    technology: TechnologyParams,
    assignments: list[dict[str, int]],
) -> BatchedFlattenedCircuit:
    """Flatten ``circuit`` once for a whole batch of input assignments.

    The shared topology is built a single time; per-assignment logic values
    are propagated to derive the fixed-voltage and seed arrays.  Each column
    of the result is equivalent to ``flatten(circuit, technology,
    assignments[b])``, without rebuilding transistors per vector.
    """
    if not assignments:
        raise ValueError("flatten_batch needs at least one input assignment")
    circuit.validate()
    net_values = [propagate(circuit, assignment) for assignment in assignments]
    netlist, internal_nodes = _build_netlist(
        circuit,
        technology,
        {net: technology.vdd * net_values[0][net] for net in circuit.primary_inputs},
    )
    fixed_voltages = {
        net: technology.vdd
        * np.array([values[net] for values in net_values], dtype=float)
        for net in circuit.primary_inputs
    }
    return BatchedFlattenedCircuit(
        circuit=circuit,
        netlist=netlist,
        assignments=[dict(assignment) for assignment in assignments],
        net_values=net_values,
        internal_nodes=internal_nodes,
        fixed_voltages=fixed_voltages,
    )
