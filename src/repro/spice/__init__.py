"""Transistor-level DC operating-point solver (the "SPICE" substrate).

The paper validates its loading-aware estimator against HSPICE.  HSPICE is
not available here, so this package provides the piece of SPICE that leakage
estimation actually needs: a DC operating-point solver over transistor-level
netlists built from the compact models of :mod:`repro.device`.

* :mod:`repro.spice.netlist` — nodes and transistor instances;
* :mod:`repro.spice.solver` — the solver options;
* :mod:`repro.spice.batched` — the batched solver: one netlist topology
  with per-column fixed voltages, injected currents and device parameters
  bound as arrays (characterization cells, reference vectors, Monte-Carlo
  samples); a single operating point solves as a batch of one;
* :mod:`repro.spice.newton` — the batched damped-Newton solve, the one
  production DC solver: analytic device Jacobians, dense per-column linear
  solves (sparse SuperLU ones, :mod:`repro.spice.sparse`, on large
  systems), nodes without a root inside the admissible band held on its
  edge and reported as pinned, and a pseudo-transient continuation retry
  for the columns plain Newton cannot finish;
* :mod:`repro.spice.analysis` — per-gate leakage component extraction at a
  solved operating point.

The scalar Gauss–Seidel solver with bracketed per-node KCL solves, and its
per-transistor analysis helpers, are the test oracles of this package; they
live in :mod:`repro.oracle` (:class:`repro.oracle.DcSolver`).

The solver retains every coupling the paper cares about: internal stack nodes
(the stacking effect) and the inter-gate coupling through gate tunneling
currents (the loading effect), because each net's Kirchhoff equation is
solved against the full set of attached transistors.
"""

from repro.spice.netlist import (
    NodeKind,
    TransistorInstance,
    TransistorNetlist,
)
from repro.spice.solver import SolverOptions
from repro.spice.batched import (
    BatchedComponentBreakdown,
    BatchedDcSolver,
    BatchedOperatingPoint,
)
from repro.spice.analysis import ComponentBreakdown, batched_leakage_by_owner

__all__ = [
    "NodeKind",
    "TransistorInstance",
    "TransistorNetlist",
    "SolverOptions",
    "BatchedComponentBreakdown",
    "BatchedDcSolver",
    "BatchedOperatingPoint",
    "ComponentBreakdown",
    "batched_leakage_by_owner",
]
