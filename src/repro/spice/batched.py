"""Batched DC operating-point solver: one topology, ``B`` columns of numbers.

:class:`BatchedDcSolver` solves ``B`` instances of one netlist *topology*
simultaneously.  The topology is one :class:`TransistorNetlist` (node names
and kinds, transistor slots, polarities and owners); the columns differ only
in numbers, bound as arrays: fixed-node voltages (the supply among them),
currents injected into free nodes, and — through a pre-built
:class:`~repro.device.batched.PackedMosfets` pack — device parameters and
per-transistor threshold shifts.  That covers every batched workload of this
library:

* gate characterization — one cell topology per gate type, its driver
  inputs bound per input vector and its pin injections per grid point;
* the transistor-level reference — one flattened circuit, its primary-input
  rails bound per input vector;
* Monte-Carlo process variation — one flattened structure, its rails bound
  at per-sample supplies and its per-sample device parameters (inter-die
  shifts, per-transistor Vth shifts) bound as a pack.

Solution scheme
---------------
:meth:`BatchedDcSolver.solve` runs a damped Newton–Raphson iteration on the
full free-node Kirchhoff system with analytic device Jacobians and a
per-column line search; see :mod:`repro.spice.newton`.  It converges in
~5–15 iterations from a cold start.  The Newton steps come from a dense
batched factorization on small systems and from sparse CSC assembly with
SuperLU (:mod:`repro.spice.sparse`, O(nnz) memory instead of O(B·N²)) on
large ones; the free-node count
(:attr:`~repro.spice.solver.SolverOptions.newton_sparse_threshold`) and the
dense memory estimate pick the backend.  Every node stays inside the
admissible band ``[-bracket_margin, vdd + bracket_margin]``: a node whose
Kirchhoff equation has no root inside it is held on the band edge and
reported in :attr:`BatchedOperatingPoint.pinned`, and a column plain
Newton cannot finish is retried by pseudo-transient continuation and
flagged in :attr:`BatchedOperatingPoint.fallback`.  The scalar
Gauss–Seidel solver :class:`repro.oracle.DcSolver` is the test oracle the
solve is checked against.

Convergence masking: a batch instance whose Newton step falls below
``voltage_tol`` is *frozen* — later iterations operate on the shrinking set
of active columns only, so finished instances stop paying for the
stragglers.  Because every update is element-wise and masked, a column's
trajectory is bit-for-bit independent of which other columns share the
batch; solving ``B`` instances in one batch, in chunks, or one at a time
produces identical voltages.  Chunked reference campaigns,
:meth:`~repro.variation.qmc.ParameterDraws.slice` blocks of a Monte-Carlo
run and characterization batches rely on this to give the same numbers
however their columns are grouped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.device.batched import PackedMosfets
from repro.spice.analysis import (
    BatchedComponentBreakdown,
    batched_leakage_by_owner,
    owner_slot_ids,
)
from repro.spice.netlist import SUPPLY, NodeKind, TransistorNetlist
from repro.spice.solver import SolverOptions

#: Terminal evaluation order shared with :meth:`TransistorInstance.terminals`.
_TERMINALS = ("gate", "drain", "source", "bulk")


@dataclass
class BatchedOperatingPoint:
    """Result of a batched DC solve.

    Attributes
    ----------
    node_index:
        Node name to row of ``voltages``.
    voltages:
        Solved node voltages, shape ``(nodes, B)`` (fixed nodes included).
    temperature_k:
        Temperature of the solve.
    converged:
        Per-instance convergence flags, shape ``(B,)``.
    max_update:
        Per-instance largest node update of the final iteration (V).
    method:
        ``"newton"`` (dense) or ``"newton-sparse"``: the Newton backend
        this batch rode.
    newton_iterations:
        Per-instance Newton iteration counts, a retried column's
        continuation steps included.
    fallback:
        Per-instance flags marking the columns plain Newton could not
        finish, which were retried by pseudo-transient continuation.
    pinned:
        ``(nodes, B)`` mask of the free nodes held on the admissible-band
        edge in each column's final iteration: their Kirchhoff equation
        has no root inside the band, so the column is not a DC solution
        there (an out-of-envelope event).
    """

    node_index: dict[str, int]
    voltages: np.ndarray
    temperature_k: float
    converged: np.ndarray
    max_update: np.ndarray
    method: str
    newton_iterations: np.ndarray
    fallback: np.ndarray
    pinned: np.ndarray

    @property
    def batch(self) -> int:
        """Return the number of batch instances."""
        return self.voltages.shape[1]

    @property
    def all_converged(self) -> bool:
        """Return True when every instance converged."""
        return bool(np.all(self.converged))

    def voltage(self, node: str) -> np.ndarray:
        """Return the solved voltages of ``node`` across the batch, ``(B,)``."""
        return self.voltages[self.node_index[node]]


class BatchedDcSolver:
    """DC solver for one netlist topology bound to ``B`` columns of numbers.

    Damped Newton with the band as a bound (see
    :mod:`repro.spice.newton` and :class:`~repro.spice.solver.SolverOptions`).

    Parameters
    ----------
    netlist:
        The topology (see module docstring).  Its stored node voltages are
        every column's defaults: the voltage of an unbound fixed node and
        the initial guess of a free one.
    temperature_k:
        Solve temperature, shared by the batch.
    options:
        Solver options; ``voltage_tol`` bounds the converged Newton step,
        ``bracket_margin`` the admissible band.
    fixed:
        Fixed node to ``(B,)`` volts (or one scalar for every column).  A
        bound supply node runs each column at its own supply: the upper
        band limit is read from its row.
    injection:
        Free node to ``(B,)`` amps (or one scalar) injected into it — the
        loading currents of the characterization cells.
    packed:
        A ``(transistors, B)`` device pack carrying per-column device
        parameters (the Monte-Carlo binding).  By default the netlist's
        Mosfets pack once as a ``(transistors, 1)`` grid shared by every
        column.

    ``B`` is the common length of the bound arrays (and of ``packed``), or
    1 when nothing is bound.  A length mismatch, an unknown node, a
    ``fixed`` entry on a free node or an ``injection`` entry on a fixed node
    raises ``ValueError``.
    """

    def __init__(
        self,
        netlist: TransistorNetlist,
        temperature_k: float,
        options: SolverOptions | None = None,
        *,
        fixed: Mapping[str, float | np.ndarray] | None = None,
        injection: Mapping[str, float | np.ndarray] | None = None,
        packed: PackedMosfets | None = None,
    ) -> None:
        if temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        netlist.validate()
        self.netlist = netlist
        #: ``[netlist]``, for readers that still index a list of netlists.
        self.netlists = [netlist]
        self.temperature_k = float(temperature_k)
        self.options = options or SolverOptions()

        self.node_names = list(netlist.nodes)
        self.node_index = {name: row for row, name in enumerate(self.node_names)}
        self._free_rows = [
            self.node_index[n.name]
            for n in netlist.nodes.values()
            if n.kind is NodeKind.FREE
        ]

        fixed_arrays = self._bind("fixed", fixed, NodeKind.FIXED)
        injection_arrays = self._bind("injection", injection, NodeKind.FREE)
        lengths = {
            array.size
            for array in (*fixed_arrays.values(), *injection_arrays.values())
            if array.ndim
        }
        if packed is not None and packed.batch > 1:
            lengths.add(packed.batch)
        if len(lengths) > 1:
            raise ValueError(f"bound arrays disagree on the batch size: {sorted(lengths)}")
        self.batch = lengths.pop() if lengths else 1

        # Device grid: slot t, instance b.
        if packed is None:
            packed = PackedMosfets(
                [[t.mosfet] for t in netlist.transistors], self.temperature_k
            )
        elif (
            packed.slots != len(netlist.transistors)
            or packed.temperature_k != self.temperature_k
        ):
            raise ValueError(
                "a device pack needs one slot per transistor and the solve temperature"
            )
        self.packed = packed

        # Per-column node voltages: bound fixed rails, stored values elsewhere.
        stored = np.array([node.voltage for node in netlist.nodes.values()])
        self._voltages = np.repeat(stored[:, None], self.batch, axis=1)
        for name, rails in fixed_arrays.items():
            self._voltages[self.node_index[name]] = rails
        #: ``(free, B)`` injected currents, in free-row order.
        self._injection = np.zeros((len(self._free_rows), self.batch))
        free_position = {row: k for k, row in enumerate(self._free_rows)}
        for name, amps in injection_arrays.items():
            self._injection[free_position[self.node_index[name]]] = amps

        # Per-transistor terminal rows, used by Newton and the analysis.
        self._transistor_rows = np.array(
            [
                [self.node_index[getattr(t, term)] for t in netlist.transistors]
                for term in _TERMINALS
            ],
            dtype=int,
        )
        self._owners = [t.owner for t in netlist.transistors]
        self._owner_order, self._owner_ids = owner_slot_ids(self._owners)

        # The admissible band, per instance at its own supply.
        supply = self._voltages[self.node_index[SUPPLY]]
        self._lo_limit = -self.options.bracket_margin
        self._hi_limit = supply + self.options.bracket_margin

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _bind(
        self, label: str, values: Mapping | None, kind: NodeKind
    ) -> dict[str, np.ndarray]:
        """Check one binding's node names and kinds; return float arrays."""
        bound: dict[str, np.ndarray] = {}
        for name, value in (values or {}).items():
            node = self.netlist.nodes.get(name)
            if node is None:
                raise ValueError(f"{label} binds unknown node {name!r}")
            if node.kind is not kind:
                raise ValueError(
                    f"{label} binds {node.kind.value} node {name!r}; "
                    f"it takes {kind.value} nodes only"
                )
            array = np.asarray(value, dtype=float)
            if array.ndim > 1:
                raise ValueError(f"{label} of {name!r} must be a scalar or a (B,) array")
            bound[name] = array
        return bound

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve(
        self, initial_voltages: Mapping[str, float | np.ndarray] | None = None
    ) -> BatchedOperatingPoint:
        """Solve the batch and return the per-instance operating points.

        Parameters
        ----------
        initial_voltages:
            Optional initial guesses for free nodes, as scalars or ``(B,)``
            arrays (the characterizer's warm starts are arrays).  Unlisted
            free nodes start from their stored netlist voltage; entries for
            other nodes are ignored.
        """
        from repro.spice.newton import solve_newton

        return solve_newton(self, self._initial_matrix(initial_voltages))

    # ------------------------------------------------------------------ #
    # post-solve analysis
    # ------------------------------------------------------------------ #
    def leakage_by_owner(
        self, op: BatchedOperatingPoint
    ) -> dict[str, BatchedComponentBreakdown]:
        """Return per-owner leakage components across the batch.

        The batched twin of the scalar oracle
        :func:`repro.oracle.leakage_by_owner`: every transistor of every
        instance is re-evaluated at the solved voltages in one array pass,
        then scatter-added per owner tag
        (:func:`repro.spice.analysis.batched_leakage_by_owner`, with the
        owner indexing hoisted to construction time).
        """
        g, d, s, b = (op.voltages[rows] for rows in self._transistor_rows)
        components = self.packed.component_currents(g, d, s, b)
        return batched_leakage_by_owner(
            self._owners,
            components,
            slot_ids=self._owner_ids,
            owner_order=self._owner_order,
        )

    def gate_injection_at_node(
        self,
        op: BatchedOperatingPoint,
        node: str,
        exclude_owners: set[str] | frozenset[str] = frozenset(),
    ) -> np.ndarray:
        """Return the signed gate-tunneling current receivers inject into ``node``.

        This is the paper's loading current seen by the net, per batch
        instance ``(B,)``: the negated gate terminal currents of every
        transistor whose gate connects to ``node``, optionally excluding
        some owners' transistors.  Positive values mean the receivers
        inject current into the node (node at logic '0'); negative values
        mean they draw current from it (node at logic '1').
        """
        g, d, s, b = (op.voltages[rows] for rows in self._transistor_rows)
        components = self.packed.component_currents(g, d, s, b)
        row = self.node_index[node]
        injection = np.zeros(op.batch)
        for slot, transistor in enumerate(self.netlist.transistors):
            if self._transistor_rows[0, slot] != row:
                continue
            if transistor.owner in exclude_owners:
                continue
            injection -= components.ig[slot]
        return injection

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _initial_matrix(self, initial_voltages) -> np.ndarray:
        voltages = self._voltages.copy()
        nodes = self.netlist.nodes
        for name, value in (initial_voltages or {}).items():
            node = nodes.get(name)
            if node is not None and node.kind is NodeKind.FREE:
                voltages[self.node_index[name]] = value
        return voltages
