"""Graph algorithms over gate-level circuits.

The estimation algorithm of the paper visits gates in topological order
(Fig. 13, step "Topologically sort the nodes in G"); levelization and fanout
statistics are additionally used by the synthetic benchmark generators and by
the experiment reports.
"""

from __future__ import annotations

from collections import deque

from repro.circuit.netlist import Circuit


def _gate_dependencies(circuit: Circuit) -> dict[str, list[str]]:
    """Return, per gate, the list of gate names driving its inputs."""
    dependencies: dict[str, list[str]] = {}
    for gate in circuit.gates.values():
        predecessors = []
        for net in gate.inputs:
            driver = circuit.driver_of(net)
            if driver is not None:
                predecessors.append(driver)
        dependencies[gate.name] = predecessors
    return dependencies


def topological_order(circuit: Circuit) -> list[str]:
    """Return gate names in topological order (Kahn's algorithm).

    Raises ``ValueError`` if the circuit contains a combinational cycle.
    """
    dependencies = _gate_dependencies(circuit)
    indegree = {name: len(preds) for name, preds in dependencies.items()}
    successors: dict[str, list[str]] = {name: [] for name in dependencies}
    for name, preds in dependencies.items():
        for pred in preds:
            successors[pred].append(name)

    ready = deque(
        name for name in circuit.gates if indegree[name] == 0
    )
    order: list[str] = []
    while ready:
        name = ready.popleft()
        order.append(name)
        for succ in successors[name]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(circuit.gates):
        unresolved = sorted(set(circuit.gates) - set(order))
        raise ValueError(
            f"combinational cycle detected involving gates: {unresolved[:10]}"
        )
    return order


def levelize(circuit: Circuit) -> dict[str, int]:
    """Return the logic level of each gate (longest distance from any PI).

    Primary-input-driven gates are level 0; every other gate's level is one
    more than the maximum level of its driving gates.
    """
    levels: dict[str, int] = {}
    dependencies = _gate_dependencies(circuit)
    for name in topological_order(circuit):
        preds = dependencies[name]
        if not preds:
            levels[name] = 0
        else:
            levels[name] = 1 + max(levels[pred] for pred in preds)
    return levels


def logic_depth(circuit: Circuit) -> int:
    """Return the number of logic levels of the circuit (0 for an empty one)."""
    levels = levelize(circuit)
    return (max(levels.values()) + 1) if levels else 0


def fanout_histogram(circuit: Circuit) -> dict[int, int]:
    """Return a histogram mapping fanout count to the number of nets with it.

    Only driven nets (primary inputs and gate outputs) are counted; the
    loading effect scales with exactly this distribution, which is why the
    synthetic ISCAS-like generators target a realistic fanout profile.
    """
    histogram: dict[int, int] = {}
    for net in circuit.nets():
        fanout = len(circuit.fanout_of(net))
        histogram[fanout] = histogram.get(fanout, 0) + 1
    return dict(sorted(histogram.items()))


def reachable_from_inputs(circuit: Circuit) -> set[str]:
    """Return the set of gates reachable from the primary inputs.

    Gates outside this set have at least one input chain not rooted at a PI
    (which :meth:`Circuit.validate` flags); the function exists mainly for
    diagnostics on hand-written or imported netlists.
    """
    reachable_nets = set(circuit.primary_inputs)
    reachable_gates: set[str] = set()
    changed = True
    while changed:
        changed = False
        for gate in circuit.gates.values():
            if gate.name in reachable_gates:
                continue
            if all(net in reachable_nets for net in gate.inputs):
                reachable_gates.add(gate.name)
                reachable_nets.add(gate.output)
                changed = True
    return reachable_gates
