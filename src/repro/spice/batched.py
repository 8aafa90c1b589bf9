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
full free-node Kirchhoff system with analytic device Jacobians, per-column
line search and a per-column fallback to Gauss–Seidel sweeps; see
:mod:`repro.spice.newton`.  This converges in ~5–15 iterations where the
relaxation needs tens to hundreds of sweeps.  The Newton steps come from a
dense batched factorization on small systems and from sparse CSC assembly
with SuperLU (:mod:`repro.spice.sparse`, O(nnz) memory instead of O(B·N²))
on large ones; the free-node count
(:attr:`~repro.spice.solver.SolverOptions.newton_sparse_threshold`) and the
dense memory estimate pick the backend.

The Gauss–Seidel relaxation described below is the fallback of the Newton
solve; run on every column it is the test oracle
:func:`repro.oracle.solve_gauss_seidel`.  Its per-node problems and cluster
components are built when a column first relaxes, so a batch that never
falls back never pays for them.  The sweep structure mirrors the
scalar oracle :class:`repro.oracle.DcSolver` exactly — Gauss–Seidel
relaxation with a periodic conducting-cluster supernode pass (a rigid common
shift of each cluster) — but every per-node scalar solve becomes *one*
vectorized bracketed root find across the whole batch
(:func:`repro.utils.rootfind.chandrupatla`): the bracket window is expanded
per column until the Kirchhoff residual changes sign (columns with no sign
change over the admissible range are pinned to the smaller-residual endpoint,
exactly like the scalar solver), then all columns converge together with
per-column masking.

Convergence masking: a batch instance whose largest node update falls below
``voltage_tol`` is *frozen* — subsequent sweeps operate on the shrinking set
of active columns only, so finished instances stop paying for the stragglers.
Because every update in the sweep, the window expansion and the root finder
is element-wise and masked, a column's trajectory is bit-for-bit independent
of which other columns share the batch; solving ``B`` instances in one batch,
in chunks, or one at a time produces identical voltages.  Chunked reference
campaigns, :meth:`~repro.variation.qmc.ParameterDraws.slice` blocks of a
Monte-Carlo run and characterization batches rely on this to give the same
numbers however their columns are grouped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from repro.utils.rootfind import chandrupatla

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
    sweeps:
        Per-instance iteration counts of the method that produced the
        column: Gauss–Seidel sweep counts for relaxation-solved columns
        (including Newton-fallback columns), Newton iteration counts for
        Newton-solved ones.
    max_update:
        Per-instance largest node update of the final active sweep (V).
    method:
        ``"newton"`` (dense) or ``"newton-sparse"`` — the Newton backend
        this batch rode — or ``"gauss-seidel"`` for a pure relaxation
        solve (:func:`repro.oracle.solve_gauss_seidel`).
    newton_iterations:
        Per-instance Newton iteration counts (zero for a pure relaxation
        solve).  Fallback columns record the iterations spent before the
        fallback.
    fallback:
        Per-instance flags marking columns solved by the Gauss–Seidel
        sweeps: the Newton solver's fallback columns, or every column of
        a pure relaxation solve.
    """

    node_index: dict[str, int]
    voltages: np.ndarray
    temperature_k: float
    converged: np.ndarray
    sweeps: np.ndarray
    max_update: np.ndarray
    method: str
    newton_iterations: np.ndarray
    fallback: np.ndarray

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


class _NodeProblem:
    """Pre-indexed batched data for one free node's KCL solve."""

    __slots__ = (
        "name",
        "row",
        "terminal_rows",
        "self_masks",
        "weights",
        "packed",
        "injection",
    )

    def __init__(self, name, row, terminal_rows, self_masks, weights, packed, injection):
        self.name = name
        self.row = row
        #: (4, A) node-row of each terminal of each attachment.
        self.terminal_rows = terminal_rows
        #: (4, A, 1) True where that terminal is this node (gets the trial x).
        self.self_masks = self_masks
        #: (4, A, 1) one-hot: which terminal current the attachment contributes.
        self.weights = weights
        self.packed = packed
        #: (B,) injected current per instance.
        self.injection = injection

    def take_columns(self, columns: np.ndarray) -> "_NodeProblem":
        """Return a batch-column subset of this problem."""
        return _NodeProblem(
            self.name,
            self.row,
            self.terminal_rows,
            self.self_masks,
            self.weights,
            self.packed.take_columns(columns),
            self.injection[columns],
        )


class _ClusterComponent:
    """One maximal free-node region connectable by channel edges.

    Channel (free drain - free source) edges only exist inside a gate
    template, so these regions are small (an output node plus its stack
    nodes) and their conducting sub-clusters depend only on the local edge
    pattern — the key fact that lets the cluster pass group batch columns
    per component instead of by the global pattern.
    """

    __slots__ = ("rows", "edge_indices", "edges", "_cluster_cache")

    def __init__(self, rows: list[int], edge_indices: np.ndarray, edges) -> None:
        self.rows = rows
        #: Indices of this component's edges into the solver's edge list.
        self.edge_indices = edge_indices
        self.edges = edges
        self._cluster_cache: dict[bytes, list[list[int]]] = {}

    def clusters_for(self, pattern: np.ndarray) -> list[list[int]]:
        """Union-find the component rows joined by the conducting edges.

        Patterns recur heavily across sweeps (a node's conducting state is
        set by quasi-static gate voltages), so results are memoized per
        pattern.  Member lists keep free-row order; singletons are dropped.
        """
        key = pattern.tobytes()
        cached = self._cluster_cache.get(key)
        if cached is not None:
            return cached

        parent = {row: row for row in self.rows}

        def find(row: int) -> int:
            while parent[row] != row:
                parent[row] = parent[parent[row]]
                row = parent[row]
            return row

        for edge, on in zip(self.edges, pattern):
            if not on:
                continue
            _gate, drain, source, _sign = edge
            ra, rb = find(drain), find(source)
            if ra != rb:
                parent[ra] = rb

        groups: dict[int, list[int]] = {}
        for row in self.rows:
            groups.setdefault(find(row), []).append(row)
        clusters = [members for members in groups.values() if len(members) > 1]
        self._cluster_cache[key] = clusters
        return clusters


class BatchedDcSolver:
    """DC solver for one netlist topology bound to ``B`` columns of numbers.

    Damped Newton, with Gauss–Seidel relaxation as the per-column fallback
    (see :class:`~repro.spice.solver.SolverOptions`).

    Parameters
    ----------
    netlist:
        The topology (see module docstring).  Its stored node voltages are
        every column's defaults: the voltage of an unbound fixed node and
        the initial guess of a free one.
    temperature_k:
        Solve temperature, shared by the batch.
    options:
        Same options as the scalar solver; ``xtol`` bounds the per-node root
        accuracy, ``voltage_tol`` the sweep convergence.
    fixed:
        Fixed node to ``(B,)`` volts (or one scalar for every column).  A
        bound supply node runs each column at its own supply: the bracket
        limits and the cluster pass's mid-rail are read from its row.
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

        # Supply-dependent per-instance quantities.
        supply = self._voltages[self.node_index[SUPPLY]]
        self._lo_limit = -self.options.bracket_margin
        self._hi_limit = supply + self.options.bracket_margin
        self._mid_rail = 0.5 * supply

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

    # The Gauss–Seidel structures below are built when a column first
    # relaxes (a Newton fallback or the oracle's pure relaxation), never by
    # a batch that Newton solves outright.
    @cached_property
    def _problems(self) -> dict[int, _NodeProblem]:
        """Free row to its node problem, in free-row (sweep) order."""
        attachment_index = self.netlist.attachments()
        transistor_slot = {t.name: i for i, t in enumerate(self.netlist.transistors)}
        problems: dict[int, _NodeProblem] = {}
        for k, row in enumerate(self._free_rows):
            name = self.node_names[row]
            attachments = attachment_index[name]
            slots = [transistor_slot[t.name] for t, _terminal in attachments]
            terminal_rows = np.array(
                [
                    [
                        self.node_index[getattr(t, term)]
                        for t, _terminal in attachments
                    ]
                    for term in _TERMINALS
                ],
                dtype=int,
            )
            weights = np.array(
                [
                    [1.0 if terminal == term else 0.0 for _t, terminal in attachments]
                    for term in _TERMINALS
                ]
            )[:, :, None]
            problems[row] = _NodeProblem(
                name=name,
                row=row,
                terminal_rows=terminal_rows,
                self_masks=(terminal_rows == row)[:, :, None],
                weights=weights,
                packed=self.packed.rows(slots),
                injection=self._injection[k],
            )
        return problems

    @cached_property
    def _cluster_edges(self) -> list[tuple[int, int, int, float]]:
        """Return (gate_row, drain_row, source_row, sign) per free-free channel."""
        free_rows = set(self._free_rows)
        edges = []
        for transistor in self.netlist.transistors:
            drain = self.node_index[transistor.drain]
            source = self.node_index[transistor.source]
            if drain not in free_rows or source not in free_rows:
                continue
            edges.append(
                (
                    self.node_index[transistor.gate],
                    drain,
                    source,
                    transistor.mosfet.device.polarity.sign,
                )
            )
        return edges

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

    def _solve_gauss_seidel(
        self, voltages: np.ndarray, columns: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the Gauss–Seidel sweeps on ``voltages`` in place.

        Parameters
        ----------
        voltages:
            Full ``(nodes, B)`` voltage matrix; only the selected columns
            are read or written.
        columns:
            Absolute batch-column indices to solve, or None for the whole
            batch.  The Newton solver passes its fallback columns here;
            because every update is per-column masked, solving a subset is
            bitwise identical to solving those columns in any other batch.

        Returns ``(converged, sweeps, max_update)`` over the selected
        columns.
        """
        options = self.options
        count = self.batch if columns is None else len(columns)

        converged = np.zeros(count, dtype=bool)
        sweeps = np.zeros(count, dtype=int)
        max_update = np.full(count, np.inf)
        # Columns below tolerance whose slow (cluster common) mode has not
        # been checked yet: they get a targeted cluster pass next sweep
        # before convergence counts.  Tracking this per column keeps every
        # column's trajectory independent of its batch neighbours.
        pending_final = np.zeros(count, dtype=bool)
        has_edges = bool(self._cluster_edges)

        for sweep in range(1, options.max_sweeps + 1):
            active = np.flatnonzero(~converged)
            if active.size == 0:
                break
            absolute = active if columns is None else columns[active]
            whole = columns is None and active.size == self.batch
            v_active = voltages if whole else voltages[:, absolute]
            hi_limit = self._hi_limit if whole else self._hi_limit[absolute]
            mid_rail = self._mid_rail if whole else self._mid_rail[absolute]

            scheduled = (sweep - 1) % options.cluster_interval == 0
            cluster_mask = (
                np.full(active.size, scheduled) | pending_final[active]
            )
            if has_edges and cluster_mask.any():
                self._solve_clusters(
                    v_active, hi_limit, mid_rail, absolute, cluster_mask
                )
            # A sweep's convergence only counts for columns whose state has
            # seen the cluster pass (mirrors the scalar solver).
            countable = cluster_mask | (not has_edges)
            pending_final[active] = False

            update_max = np.zeros(active.size)
            for problem in self._problems.values():
                active_problem = (
                    problem if whole else problem.take_columns(absolute)
                )
                solved = self._solve_node(active_problem, v_active, hi_limit)
                update = np.abs(solved - v_active[problem.row])
                v_active[problem.row] = solved
                np.maximum(update_max, update, out=update_max)

            if not whole:
                voltages[:, absolute] = v_active
            sweeps[active] = sweep
            max_update[active] = update_max
            below = update_max < options.voltage_tol
            converged[active] = below & countable
            pending_final[active] = below & ~countable

        return converged, sweeps, max_update

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

    def _residual(
        self, problem: _NodeProblem, voltages: np.ndarray, trial: np.ndarray
    ) -> np.ndarray:
        """KCL residual of ``problem`` with its node at ``trial``, ``(B,)``."""
        rows = problem.terminal_rows
        masks = problem.self_masks
        vg = np.where(masks[0], trial, voltages[rows[0]])
        vd = np.where(masks[1], trial, voltages[rows[1]])
        vs = np.where(masks[2], trial, voltages[rows[2]])
        vb = np.where(masks[3], trial, voltages[rows[3]])
        ig, idr, isr, ib = problem.packed.kcl_currents(vg, vd, vs, vb)
        weights = problem.weights
        total = (
            ig * weights[0] + idr * weights[1] + isr * weights[2] + ib * weights[3]
        ).sum(axis=0)
        return total - problem.injection

    def _bracket(
        self,
        center: np.ndarray,
        hi_limit: np.ndarray,
        residual,
    ):
        """Expand per-column windows around ``center`` until the sign changes.

        Mirrors the scalar solver's geometric window expansion; returns the
        brackets, their residuals, and the mask of columns with no sign
        change over the whole admissible range (those get pinned).
        """
        options = self.options
        lo_limit = self._lo_limit
        window = np.full(center.shape, options.initial_window)
        lo = np.maximum(lo_limit, center - window)
        hi = np.minimum(hi_limit, center + window)
        f_lo = residual(lo)
        f_hi = residual(hi)

        def unresolved(f_lo, f_hi):
            return (f_lo != 0.0) & (f_hi != 0.0) & (f_lo * f_hi > 0.0)

        pending = unresolved(f_lo, f_hi) & ~((lo <= lo_limit) & (hi >= hi_limit))
        while pending.any():
            window = np.where(pending, window * 4.0, window)
            lo = np.where(pending, np.maximum(lo_limit, center - window), lo)
            hi = np.where(pending, np.minimum(hi_limit, center + window), hi)
            f_lo = np.where(pending, residual(lo), f_lo)
            f_hi = np.where(pending, residual(hi), f_hi)
            pending = (
                unresolved(f_lo, f_hi)
                & ~((lo <= lo_limit) & (hi >= hi_limit))
            )
        no_sign_change = unresolved(f_lo, f_hi)
        return lo, hi, f_lo, f_hi, no_sign_change

    def _solve_node(
        self,
        problem: _NodeProblem,
        voltages: np.ndarray,
        hi_limit: np.ndarray,
    ) -> np.ndarray:
        """Solve one node's KCL across the batch by bracketed root finding."""

        def residual(trial: np.ndarray) -> np.ndarray:
            return self._residual(problem, voltages, trial)

        center = voltages[problem.row]
        lo, hi, f_lo, f_hi, pinned = self._bracket(center, hi_limit, residual)
        # No sign change over the admissible range: pin the node at the
        # endpoint with the smaller residual magnitude (scalar behaviour).
        pinned_values = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
        return chandrupatla(
            residual,
            lo,
            hi,
            f_lo=f_lo,
            f_hi=f_hi,
            xtol=self.options.xtol,
            frozen=pinned,
            frozen_values=pinned_values,
        )

    # ------------------------------------------------------------------ #
    # supernode (cluster) acceleration
    # ------------------------------------------------------------------ #
    def _solve_clusters(
        self,
        voltages: np.ndarray,
        hi_limit: np.ndarray,
        mid_rail: np.ndarray,
        active: np.ndarray,
        column_mask: np.ndarray,
    ) -> None:
        """Shift conducting clusters as supernodes, per column group.

        The conducting criterion is evaluated per instance (gate voltages —
        and mid-rail itself — differ across the batch), instances are
        grouped by identical conducting patterns, and each group's clusters
        are solved with one vectorized root find over the group's columns
        (a rigid per-column *shift* of the members, like the scalar
        solver's pass).  ``voltages``, ``hi_limit`` and ``mid_rail`` are the
        active-column views, ``column_mask`` selects which of them take the
        pass this sweep, and ``active`` maps active columns back to absolute
        batch columns (needed to slice the packed device parameters).
        """
        columns = np.flatnonzero(column_mask)
        if columns.size == 0:
            return

        edges = self._cluster_edges
        signs = np.array([e[3] for e in edges])[:, None]
        gate_rows = np.array([e[0] for e in edges], dtype=int)
        conducting = signs * (voltages[gate_rows][:, columns] - mid_rail[columns]) > 0.0

        # Channel edges never span two potential components, so each
        # component's clusters depend only on its *local* conducting pattern.
        # Grouping columns per component (instead of by the global pattern
        # across all edges) keeps the column groups wide even when every
        # batch instance applies a different input vector — the regime of
        # the batched reference path — while each column still receives
        # exactly its own conducting clusters.  Executing the collected
        # solves in first-member order reproduces the per-column solve order
        # of a global-pattern grouping bit for bit.
        items: list[tuple[int, list[int], np.ndarray]] = []
        for component in self._cluster_components:
            local = conducting[component.edge_indices]
            patterns, inverse = np.unique(local, axis=1, return_inverse=True)
            for pattern_id in range(patterns.shape[1]):
                pattern = patterns[:, pattern_id]
                if not pattern.any():
                    continue
                group = columns[np.flatnonzero(inverse == pattern_id)]
                for members in component.clusters_for(pattern):
                    items.append((members[0], members, group))
        items.sort(key=lambda item: item[0])
        for _first_row, members, group in items:
            self._solve_one_cluster(voltages, hi_limit, group, active[group], members)

    @cached_property
    def _cluster_components(self) -> list[_ClusterComponent]:
        """Connected components of free nodes over *all* channel edges.

        A component is the maximal region a conducting cluster could ever
        cover; the per-sweep clusters are its sub-groups joined by the edges
        that actually conduct (see :meth:`_ClusterComponent.clusters_for`).
        Components are ordered by their first member row.
        """
        parent = {row: row for row in self._free_rows}

        def find(row: int) -> int:
            while parent[row] != row:
                parent[row] = parent[parent[row]]
                row = parent[row]
            return row

        edges = self._cluster_edges
        for _gate, drain, source, _sign in edges:
            ra, rb = find(drain), find(source)
            if ra != rb:
                parent[ra] = rb

        rows_by_root: dict[int, list[int]] = {}
        for row in self._free_rows:
            rows_by_root.setdefault(find(row), []).append(row)
        edges_by_root: dict[int, list[int]] = {}
        for index, (_gate, drain, _source, _sign) in enumerate(edges):
            edges_by_root.setdefault(find(drain), []).append(index)
        return [
            _ClusterComponent(
                rows=rows,
                edge_indices=np.array(edges_by_root[root], dtype=int),
                edges=[edges[i] for i in edges_by_root[root]],
            )
            for root, rows in rows_by_root.items()
            if len(rows) > 1
        ]

    def _solve_one_cluster(
        self,
        voltages: np.ndarray,
        hi_limit: np.ndarray,
        group: np.ndarray,
        group_abs: np.ndarray,
        members: list[int],
    ) -> None:
        member_problems = [
            self._problems[row].take_columns(group_abs) for row in members
        ]
        member_rows = np.array(members)
        base = voltages[member_rows][:, group]

        def cluster_residual(delta: np.ndarray) -> np.ndarray:
            trial = voltages[:, group].copy()
            trial[member_rows] = base + delta
            return sum(
                self._residual(problem, trial, base[m] + delta)
                for m, problem in enumerate(member_problems)
            )

        # A rigid shift of the whole cluster; the range keeps every member
        # inside the admissible voltage band.
        lo = self._lo_limit - base.min(axis=0)
        hi = hi_limit[group] - base.max(axis=0)
        f_lo = cluster_residual(lo)
        f_hi = cluster_residual(hi)
        no_sign_change = (f_lo != 0.0) & (f_hi != 0.0) & (f_lo * f_hi > 0.0)
        if no_sign_change.all():
            return
        # Columns without a sign change keep their voltages (scalar solver
        # skips them): a frozen zero shift makes the write-back a no-op.
        shift = chandrupatla(
            cluster_residual,
            lo,
            hi,
            f_lo=f_lo,
            f_hi=f_hi,
            xtol=self.options.xtol,
            frozen=no_sign_change,
            frozen_values=np.zeros(group.shape),
        )
        for m, row in enumerate(members):
            voltages[row, group] = base[m] + shift
