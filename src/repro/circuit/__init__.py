"""Gate-level circuit substrate.

The paper's estimation algorithm (Fig. 13) starts "with a graph representing
the circuit, with each vertex representing a logic gate and each edge
representing a net".  This package provides that substrate:

* :mod:`repro.circuit.netlist` — the :class:`Circuit` container (gates, nets,
  primary inputs/outputs) with driver/fanout indices;
* :mod:`repro.circuit.graph` — topological ordering, levelization and
  structural statistics;
* :mod:`repro.circuit.logic` — logic-value propagation and random-vector
  generation;
* :mod:`repro.circuit.bench_io` — ISCAS ``.bench`` reader/writer;
* :mod:`repro.circuit.generators` — benchmark-circuit generators (synthetic
  ISCAS89-sized circuits, the 8x8 array multiplier and the 8-bit ALU used in
  Fig. 12, plus small pedagogical structures);
* :mod:`repro.circuit.flatten` — expansion of a gate-level circuit into a
  transistor-level netlist for the reference ("SPICE") solve.
"""

from repro.circuit.netlist import Circuit, Gate
from repro.circuit.graph import (
    levelize,
    logic_depth,
    topological_order,
)
from repro.circuit.logic import (
    gate_input_bits,
    propagate,
    random_input_assignment,
    random_vectors,
)
from repro.circuit.flatten import FlattenedCircuit, flatten
from repro.circuit.bench_io import parse_bench, read_bench, write_bench

__all__ = [
    "Circuit",
    "Gate",
    "levelize",
    "logic_depth",
    "topological_order",
    "gate_input_bits",
    "propagate",
    "random_input_assignment",
    "random_vectors",
    "FlattenedCircuit",
    "flatten",
    "parse_bench",
    "read_bench",
    "write_bench",
]
