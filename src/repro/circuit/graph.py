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
