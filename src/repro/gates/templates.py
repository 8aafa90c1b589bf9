"""Transistor-level templates of the gate library.

Each template adds the static-CMOS transistor structure of one gate instance
to a :class:`~repro.spice.netlist.TransistorNetlist`.  The same function
serves two callers:

* the gate characterizer, which instantiates a single gate (plus driver
  inverters) in isolation, and
* the circuit flattener, which expands a whole gate-level netlist into
  transistors for the reference ("SPICE") solve.

Sizing follows the usual static-CMOS practice: transistors in a series stack
are widened by the stack depth so the worst-case drive resistance matches the
inverter.  Internal stack nodes get instance-scoped names so arbitrarily many
instances coexist in one netlist — these internal nodes are exactly where the
stacking effect (Sec. 4 of the paper) emerges from the solver.
"""

from __future__ import annotations

from repro.device.mosfet import Mosfet
from repro.device.params import TechnologyParams
from repro.gates.library import GateSpec, GateType, gate_spec
from repro.spice.netlist import GROUND, SUPPLY, TransistorNetlist


class _GateBuilder:
    """Helper accumulating the transistors of one gate instance."""

    def __init__(
        self,
        netlist: TransistorNetlist,
        technology: TechnologyParams,
        instance: str,
        owner: str,
    ) -> None:
        self.netlist = netlist
        self.technology = technology
        self.instance = instance
        self.owner = owner
        self._counter = 0
        self.internal_nodes: list[str] = []

    def _next_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{self.instance}.{prefix}{self._counter}"

    def internal_node(self, label: str) -> str:
        """Return (and record) an instance-scoped internal node name."""
        name = f"{self.instance}.{label}"
        if name not in self.internal_nodes:
            self.internal_nodes.append(name)
        return name

    def nmos(self, gate: str, drain: str, source: str, width_factor: float = 1.0) -> None:
        """Add an NMOS with bulk tied to ground."""
        device = self.technology.nmos.scaled_width(width_factor)
        self.netlist.add_transistor(
            name=self._next_name("mn"),
            mosfet=Mosfet(device),
            gate=gate,
            drain=drain,
            source=source,
            bulk=GROUND,
            owner=self.owner,
        )

    def pmos(self, gate: str, drain: str, source: str, width_factor: float = 1.0) -> None:
        """Add a PMOS with bulk tied to the supply."""
        device = self.technology.pmos.scaled_width(width_factor)
        self.netlist.add_transistor(
            name=self._next_name("mp"),
            mosfet=Mosfet(device),
            gate=gate,
            drain=drain,
            source=source,
            bulk=SUPPLY,
            owner=self.owner,
        )

    def nmos_series(self, gates: list[str], top: str, bottom: str) -> None:
        """Add an NMOS series stack from ``top`` down to ``bottom``.

        ``gates[0]`` controls the transistor closest to ``top``.  All stack
        transistors are widened by the stack depth.
        """
        width = float(len(gates))
        upper = top
        for index, gate in enumerate(gates):
            lower = (
                bottom
                if index == len(gates) - 1
                else self.internal_node(f"sn{index}")
            )
            self.nmos(gate=gate, drain=upper, source=lower, width_factor=width)
            upper = lower

    def pmos_series(self, gates: list[str], top: str, bottom: str) -> None:
        """Add a PMOS series stack from ``top`` (supply side) to ``bottom``."""
        width = float(len(gates))
        upper = top
        for index, gate in enumerate(gates):
            lower = (
                bottom
                if index == len(gates) - 1
                else self.internal_node(f"sp{index}")
            )
            # For a PMOS the source is the supply-side terminal.
            self.pmos(gate=gate, drain=lower, source=upper, width_factor=width)
            upper = lower

    def nmos_parallel(self, gates: list[str], drain: str, source: str) -> None:
        """Add parallel NMOS devices between ``drain`` and ``source``."""
        for gate in gates:
            self.nmos(gate=gate, drain=drain, source=source)

    def pmos_parallel(self, gates: list[str], drain: str, source: str) -> None:
        """Add parallel PMOS devices between ``drain`` and ``source``."""
        for gate in gates:
            self.pmos(gate=gate, drain=drain, source=source)

    def inverter(self, input_node: str, output_node: str) -> None:
        """Add a minimum-size inverter."""
        self.nmos(gate=input_node, drain=output_node, source=GROUND)
        self.pmos(gate=input_node, drain=output_node, source=SUPPLY)


def _pin_map(spec: GateSpec, pins: dict[str, str]) -> dict[str, str]:
    """Validate and return the pin-to-node mapping for ``spec``."""
    required = set(spec.inputs) | {spec.output}
    missing = required - set(pins)
    if missing:
        raise ValueError(f"{spec.name}: missing pin connections {sorted(missing)}")
    return {pin: pins[pin] for pin in required}


def build_gate_transistors(
    netlist: TransistorNetlist,
    technology: TechnologyParams,
    gate_type: GateType | str,
    instance: str,
    pins: dict[str, str],
    owner: str | None = None,
) -> list[str]:
    """Add the transistor structure of one gate instance to ``netlist``.

    Parameters
    ----------
    netlist:
        Target netlist; rails must belong to the same technology.
    technology:
        Supplies the NMOS/PMOS flavours and their base widths.
    gate_type:
        Library gate type (enum member or name).
    instance:
        Unique instance name; internal nodes and transistor names are scoped
        by it.
    pins:
        Mapping from logical pin names (``a``, ``b``, ..., ``y``) to netlist
        node names.
    owner:
        Owner tag recorded on every transistor (defaults to ``instance``);
        leakage analysis aggregates per owner.

    Returns
    -------
    list[str]
        The instance-internal node names created (stack nodes, internal
        stages).  Callers use them to seed DC-solver initial guesses.
    """
    spec = gate_spec(gate_type)
    nodes = _pin_map(spec, pins)
    builder = _GateBuilder(netlist, technology, instance, owner or instance)
    out = nodes[spec.output]

    gate_type = spec.gate_type
    if gate_type is GateType.INV:
        builder.inverter(nodes["a"], out)
    elif gate_type is GateType.BUF:
        mid = builder.internal_node("mid")
        builder.inverter(nodes["a"], mid)
        builder.inverter(mid, out)
    elif gate_type in (GateType.NAND2, GateType.NAND3, GateType.NAND4):
        input_nodes = [nodes[p] for p in spec.inputs]
        builder.nmos_series(input_nodes, top=out, bottom=GROUND)
        builder.pmos_parallel(input_nodes, drain=out, source=SUPPLY)
    elif gate_type in (GateType.NOR2, GateType.NOR3):
        input_nodes = [nodes[p] for p in spec.inputs]
        builder.nmos_parallel(input_nodes, drain=out, source=GROUND)
        builder.pmos_series(input_nodes, top=SUPPLY, bottom=out)
    elif gate_type in (GateType.AND2, GateType.AND3, GateType.OR2, GateType.OR3):
        _build_two_stage(builder, spec, nodes, out)
    elif gate_type in (GateType.XOR2, GateType.XNOR2):
        _build_xor(builder, spec, nodes, out, invert=gate_type is GateType.XNOR2)
    elif gate_type is GateType.AOI21:
        a, b, c = (nodes[p] for p in spec.inputs)
        mid = builder.internal_node("pdn")
        builder.nmos(gate=a, drain=out, source=mid, width_factor=2.0)
        builder.nmos(gate=b, drain=mid, source=GROUND, width_factor=2.0)
        builder.nmos(gate=c, drain=out, source=GROUND)
        pun_mid = builder.internal_node("pun")
        builder.pmos(gate=a, drain=pun_mid, source=SUPPLY, width_factor=2.0)
        builder.pmos(gate=b, drain=pun_mid, source=SUPPLY, width_factor=2.0)
        builder.pmos(gate=c, drain=out, source=pun_mid, width_factor=2.0)
    elif gate_type is GateType.OAI21:
        a, b, c = (nodes[p] for p in spec.inputs)
        mid = builder.internal_node("pdn")
        builder.nmos(gate=a, drain=mid, source=GROUND, width_factor=2.0)
        builder.nmos(gate=b, drain=mid, source=GROUND, width_factor=2.0)
        builder.nmos(gate=c, drain=out, source=mid, width_factor=2.0)
        pun_mid = builder.internal_node("pun")
        builder.pmos(gate=a, drain=pun_mid, source=SUPPLY, width_factor=2.0)
        builder.pmos(gate=b, drain=out, source=pun_mid, width_factor=2.0)
        builder.pmos(gate=c, drain=out, source=SUPPLY)
    else:  # pragma: no cover - exhaustive over library
        raise NotImplementedError(f"no transistor template for {gate_type}")
    return list(builder.internal_nodes)


def _series_internal_levels(
    labels: list[str],
    on: list[bool],
    top_value: int,
    bottom_value: int,
    float_value: int,
) -> dict[str, int]:
    """Seed levels of the internal nodes of one series stack.

    ``labels`` are the internal node labels from the top of the stack down
    (one fewer than the devices); ``on[i]`` says whether device ``i``
    (top-to-bottom) conducts under the applied input vector.  A node takes
    the bottom (rail) value when every device below it is ON, the top value
    when every device above it is ON, and ``float_value`` when it is cut
    off on both sides (a floating node settles wherever the leakage divider
    puts it; the caller picks a rail-consistent guess).
    """
    levels: dict[str, int] = {}
    for index, label in enumerate(labels):
        if all(on[index + 1 :]):
            levels[label] = bottom_value
        elif all(on[: index + 1]):
            levels[label] = top_value
        else:
            levels[label] = float_value
    return levels


def internal_seed_levels(
    gate_type: GateType | str,
    input_values: tuple[int, ...] | list[int],
    output_value: int,
) -> dict[str, int]:
    """Return the DC seed logic level of every instance-internal node.

    The keys are the bare node labels of :func:`build_gate_transistors`
    (``"stage1"``, ``"sn0"``, ...); callers prefix them with
    ``"{instance}."``.  The level is the rail the node sits at (or nearest
    to) once the gate settles under ``input_values``:

    * two-stage gates (BUF, AND*, OR*) drive their internal stage at the
      *complement* of the gate output;
    * the XOR/XNOR input inverters drive ``a_bar``/``b_bar`` at the
      complement of the respective *input*;
    * a series-stack node follows whichever end of the stack it conducts
      to; a node cut off on both sides floats, and is seeded at the value
      of its output-side end.

    Seeding from these levels instead of a blanket "gate output rail"
    matters to the Newton solver: a wrong-rail seed on an internal stage
    puts a fully-ON stack across the supply, and the resulting mA-scale
    starting residuals are what its damped line search is worst at (the
    scalar oracle's bracketed root finds shrug them off in one sweep).
    """
    spec = gate_spec(gate_type)
    if len(input_values) != len(spec.inputs):
        raise ValueError(
            f"{spec.name} expects {len(spec.inputs)} input values, got "
            f"{len(input_values)}"
        )
    values = [int(v) for v in input_values]
    out = int(output_value)
    gate_type = spec.gate_type

    if gate_type is GateType.BUF:
        return {"mid": 1 - values[0]}
    if gate_type in (GateType.NAND2, GateType.NAND3, GateType.NAND4):
        labels = [f"sn{i}" for i in range(len(values) - 1)]
        return _series_internal_levels(
            labels, [v == 1 for v in values], out, 0, out
        )
    if gate_type in (GateType.NOR2, GateType.NOR3):
        labels = [f"sp{i}" for i in range(len(values) - 1)]
        return _series_internal_levels(
            labels, [v == 0 for v in values], 1, out, out
        )
    if gate_type in (GateType.AND2, GateType.AND3, GateType.OR2, GateType.OR3):
        stage = 1 - out  # the first stage is the inverting twin
        levels = {"stage1": stage}
        labels_needed = len(values) - 1
        if gate_type in (GateType.AND2, GateType.AND3):
            levels.update(
                _series_internal_levels(
                    [f"sn{i}" for i in range(labels_needed)],
                    [v == 1 for v in values],
                    stage,
                    0,
                    stage,
                )
            )
        else:
            levels.update(
                _series_internal_levels(
                    [f"sp{i}" for i in range(labels_needed)],
                    [v == 0 for v in values],
                    1,
                    stage,
                    stage,
                )
            )
        return levels
    if gate_type in (GateType.XOR2, GateType.XNOR2):
        a, b = values
        a_bar, b_bar = 1 - a, 1 - b
        levels = {"a_bar": a_bar, "b_bar": b_bar}
        if gate_type is GateType.XNOR2:
            pun_pairs = [(a, b), (a_bar, b_bar)]
            pdn_pairs = [(a, b_bar), (a_bar, b)]
        else:
            pun_pairs = [(a, b_bar), (a_bar, b)]
            pdn_pairs = [(a, b), (a_bar, b_bar)]
        for index, (g1, g2) in enumerate(pdn_pairs):
            # out -[g1 NMOS]- mid -[g2 NMOS]- gnd
            levels.update(
                _series_internal_levels(
                    [f"pdn{index}"], [g1 == 1, g2 == 1], out, 0, out
                )
            )
        for index, (g1, g2) in enumerate(pun_pairs):
            # supply -[g1 PMOS]- mid -[g2 PMOS]- out
            levels.update(
                _series_internal_levels(
                    [f"pun{index}"], [g1 == 0, g2 == 0], 1, out, out
                )
            )
        return levels
    if gate_type is GateType.AOI21:
        a, b, c = values
        # pdn: out -[a NMOS]- mid -[b NMOS]- gnd
        levels = _series_internal_levels(["pdn"], [a == 1, b == 1], out, 0, out)
        # pun: supply -[a || b PMOS]- mid -[c PMOS]- out
        levels.update(
            _series_internal_levels(
                ["pun"], [a == 0 or b == 0, c == 0], 1, out, out
            )
        )
        return levels
    if gate_type is GateType.OAI21:
        a, b, c = values
        # pdn: gnd -[a || b NMOS]- mid -[c NMOS]- out (top = out side)
        levels = _series_internal_levels(
            ["pdn"], [c == 1, a == 1 or b == 1], out, 0, out
        )
        # pun: supply -[a PMOS]- mid -[b PMOS]- out
        levels.update(
            _series_internal_levels(["pun"], [a == 0, b == 0], 1, out, out)
        )
        return levels
    return {}  # INV and any template without internal nodes


def _build_two_stage(
    builder: _GateBuilder, spec: GateSpec, nodes: dict[str, str], out: str
) -> None:
    """Build AND/OR as the corresponding inverting stage followed by an inverter."""
    gate_type = spec.gate_type
    internal = builder.internal_node("stage1")
    input_nodes = [nodes[p] for p in spec.inputs]
    if gate_type in (GateType.AND2, GateType.AND3):
        builder.nmos_series(input_nodes, top=internal, bottom=GROUND)
        builder.pmos_parallel(input_nodes, drain=internal, source=SUPPLY)
    else:
        builder.nmos_parallel(input_nodes, drain=internal, source=GROUND)
        builder.pmos_series(input_nodes, top=SUPPLY, bottom=internal)
    builder.inverter(internal, out)


def _build_xor(
    builder: _GateBuilder,
    spec: GateSpec,
    nodes: dict[str, str],
    out: str,
    invert: bool,
) -> None:
    """Build a 12-transistor XOR2/XNOR2 (two input inverters + 8T core)."""
    a, b = nodes["a"], nodes["b"]
    a_bar = builder.internal_node("a_bar")
    b_bar = builder.internal_node("b_bar")
    builder.inverter(a, a_bar)
    builder.inverter(b, b_bar)

    if invert:
        # XNOR: output high when a == b.
        pun_pairs = [(a, b_bar), (a_bar, b)]
        pdn_pairs = [(a, b), (a_bar, b_bar)]
        pun_pairs, pdn_pairs = pdn_pairs, pun_pairs
    else:
        # XOR: pull up when a != b, pull down when a == b.
        pun_pairs = [(a, b_bar), (a_bar, b)]
        pdn_pairs = [(a, b), (a_bar, b_bar)]

    for index, (g1, g2) in enumerate(pdn_pairs):
        mid = builder.internal_node(f"pdn{index}")
        builder.nmos(gate=g1, drain=out, source=mid, width_factor=2.0)
        builder.nmos(gate=g2, drain=mid, source=GROUND, width_factor=2.0)
    for index, (g1, g2) in enumerate(pun_pairs):
        mid = builder.internal_node(f"pun{index}")
        builder.pmos(gate=g1, drain=mid, source=SUPPLY, width_factor=2.0)
        builder.pmos(gate=g2, drain=out, source=mid, width_factor=2.0)


def transistor_count(gate_type: GateType | str) -> int:
    """Return the number of transistors the template of ``gate_type`` creates."""
    spec = gate_spec(gate_type)
    gate_type = spec.gate_type
    n = spec.num_inputs
    if gate_type is GateType.INV:
        return 2
    if gate_type is GateType.BUF:
        return 4
    if gate_type in (GateType.NAND2, GateType.NAND3, GateType.NAND4):
        return 2 * n
    if gate_type in (GateType.NOR2, GateType.NOR3):
        return 2 * n
    if gate_type in (GateType.AND2, GateType.AND3, GateType.OR2, GateType.OR3):
        return 2 * n + 2
    if gate_type in (GateType.XOR2, GateType.XNOR2):
        return 12
    if gate_type in (GateType.AOI21, GateType.OAI21):
        return 6
    raise NotImplementedError(f"no transistor template for {gate_type}")
