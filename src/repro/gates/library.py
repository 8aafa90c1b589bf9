"""Logic-gate type definitions.

The gate library mirrors a small standard-cell library: inverter/buffer,
NAND/NOR/AND/OR up to four inputs, XOR/XNOR, and the AOI21/OAI21 complex
gates.  Each :class:`GateSpec` couples a pin interface with a boolean
function; the transistor-level structure lives in
:mod:`repro.gates.templates`.

The split matters for the reproduction: the paper's estimation algorithm
(Fig. 13) works from a *gate-level* description — it propagates logic values,
then looks up characterized leakage per gate type and input vector — so logic
semantics and electrical templates must be independently usable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence


class GateType(enum.Enum):
    """Enumerated gate types available in the library."""

    INV = "inv"
    BUF = "buf"
    NAND2 = "nand2"
    NAND3 = "nand3"
    NAND4 = "nand4"
    NOR2 = "nor2"
    NOR3 = "nor3"
    AND2 = "and2"
    AND3 = "and3"
    OR2 = "or2"
    OR3 = "or3"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    AOI21 = "aoi21"
    OAI21 = "oai21"

    @classmethod
    def from_name(cls, name: str) -> "GateType":
        """Return the gate type for ``name`` (case insensitive)."""
        try:
            return cls(name.lower())
        except ValueError as exc:
            raise KeyError(f"unknown gate type {name!r}") from exc


#: Canonical input pin names, in order.
_INPUT_PINS = ("a", "b", "c", "d")

#: Canonical output pin name.
OUTPUT_PIN = "y"


@dataclass(frozen=True)
class GateSpec:
    """Pin interface and boolean function of a gate type.

    Attributes
    ----------
    gate_type:
        The :class:`GateType` this spec describes.
    inputs:
        Ordered input pin names.
    function:
        Callable mapping a tuple of input bits (0/1) to the output bit.
    description:
        Human-readable logic equation.
    """

    gate_type: GateType
    inputs: tuple[str, ...]
    function: Callable[[tuple[int, ...]], int]
    description: str

    @property
    def name(self) -> str:
        """Return the lowercase gate-type name."""
        return self.gate_type.value

    @property
    def num_inputs(self) -> int:
        """Return the number of input pins."""
        return len(self.inputs)

    @property
    def output(self) -> str:
        """Return the output pin name."""
        return OUTPUT_PIN

    def evaluate(self, bits: Sequence[int]) -> int:
        """Evaluate the gate for ``bits`` (one 0/1 value per input pin)."""
        if len(bits) != self.num_inputs:
            raise ValueError(
                f"{self.name} expects {self.num_inputs} inputs, got {len(bits)}"
            )
        values = tuple(1 if b else 0 for b in bits)
        return 1 if self.function(values) else 0

    def all_vectors(self) -> list[tuple[int, ...]]:
        """Return every input vector of this gate in lexicographic order."""
        return [
            vector for vector in itertools.product((0, 1), repeat=self.num_inputs)
        ]

    def vector_label(self, vector: Sequence[int]) -> str:
        """Return the paper-style string label of a vector, e.g. ``"01"``."""
        return "".join("1" if b else "0" for b in vector)


def _and_all(bits: tuple[int, ...]) -> int:
    return int(all(bits))


def _or_all(bits: tuple[int, ...]) -> int:
    return int(any(bits))


def _spec(
    gate_type: GateType,
    num_inputs: int,
    function: Callable[[tuple[int, ...]], int],
    description: str,
) -> GateSpec:
    return GateSpec(
        gate_type=gate_type,
        inputs=_INPUT_PINS[:num_inputs],
        function=function,
        description=description,
    )


_SPECS: dict[GateType, GateSpec] = {
    GateType.INV: _spec(GateType.INV, 1, lambda b: 1 - b[0], "y = !a"),
    GateType.BUF: _spec(GateType.BUF, 1, lambda b: b[0], "y = a"),
    GateType.NAND2: _spec(GateType.NAND2, 2, lambda b: 1 - _and_all(b), "y = !(a & b)"),
    GateType.NAND3: _spec(GateType.NAND3, 3, lambda b: 1 - _and_all(b), "y = !(a & b & c)"),
    GateType.NAND4: _spec(
        GateType.NAND4, 4, lambda b: 1 - _and_all(b), "y = !(a & b & c & d)"
    ),
    GateType.NOR2: _spec(GateType.NOR2, 2, lambda b: 1 - _or_all(b), "y = !(a | b)"),
    GateType.NOR3: _spec(GateType.NOR3, 3, lambda b: 1 - _or_all(b), "y = !(a | b | c)"),
    GateType.AND2: _spec(GateType.AND2, 2, _and_all, "y = a & b"),
    GateType.AND3: _spec(GateType.AND3, 3, _and_all, "y = a & b & c"),
    GateType.OR2: _spec(GateType.OR2, 2, _or_all, "y = a | b"),
    GateType.OR3: _spec(GateType.OR3, 3, _or_all, "y = a | b | c"),
    GateType.XOR2: _spec(GateType.XOR2, 2, lambda b: b[0] ^ b[1], "y = a ^ b"),
    GateType.XNOR2: _spec(GateType.XNOR2, 2, lambda b: 1 - (b[0] ^ b[1]), "y = !(a ^ b)"),
    GateType.AOI21: _spec(
        GateType.AOI21, 3, lambda b: 1 - ((b[0] & b[1]) | b[2]), "y = !((a & b) | c)"
    ),
    GateType.OAI21: _spec(
        GateType.OAI21, 3, lambda b: 1 - ((b[0] | b[1]) & b[2]), "y = !((a | b) & c)"
    ),
}


def gate_spec(gate_type: GateType | str) -> GateSpec:
    """Return the :class:`GateSpec` of ``gate_type`` (enum member or name)."""
    if isinstance(gate_type, str):
        gate_type = GateType.from_name(gate_type)
    return _SPECS[gate_type]


def all_gate_types() -> list[GateType]:
    """Return every gate type in the library, in declaration order."""
    return list(_SPECS)
