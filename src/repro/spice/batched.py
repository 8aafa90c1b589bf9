"""Batched DC operating-point solver: B same-topology netlists at once.

:class:`BatchedDcSolver` solves ``B`` instances of one netlist *topology*
simultaneously.  The instances must share structure (same node names and
kinds, same transistor slots and polarities) but may differ in everything
numeric: fixed-node voltages (including the supply itself), injected
currents, device parameters and per-transistor threshold shifts.  That covers
both batched workloads of this library:

* gate characterization — one cell topology swept over (input vector, pin,
  injection-current) grids, and
* Monte-Carlo process variation — each structure flattened once, its views
  run at per-sample supplies, and the per-sample device parameters
  (inter-die shifts, per-transistor Vth shifts) bound as arrays in a
  pre-built :class:`~repro.device.batched.PackedMosfets` pack.

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
:func:`repro.oracle.solve_gauss_seidel`.  The sweep structure mirrors the
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
in chunks, or one at a time produces identical voltages.  The parallel
Monte-Carlo driver relies on this to stay reproducible across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.device.batched import PackedMosfets
from repro.spice.analysis import (
    BatchedComponentBreakdown,
    batched_leakage_by_owner,
    owner_slot_ids,
)
from repro.spice.netlist import NodeKind, TransistorNetlist
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
    """DC solver for a batch of same-topology netlists.

    Damped Newton, with Gauss–Seidel relaxation as the per-column fallback
    (see :class:`~repro.spice.solver.SolverOptions`).

    Parameters
    ----------
    netlists:
        ``B`` netlists sharing one topology (see module docstring).  The
        first netlist is the structural reference; any structural deviation
        in the others raises ``ValueError``.
    temperature_k:
        Solve temperature, shared by the batch.
    options:
        Same options as the scalar solver; ``xtol`` bounds the per-node root
        accuracy, ``voltage_tol`` the sweep convergence.
    packed:
        Optional pre-built ``(transistors, B)`` device pack replacing the
        one packed from the netlists' Mosfets.  Only for views sharing one
        transistor list (:meth:`BatchedFlattenedCircuit.netlist_views
        <repro.circuit.flatten.BatchedFlattenedCircuit.netlist_views>`),
        whose columns differ in device parameters the list cannot carry.
    """

    def __init__(
        self,
        netlists: Sequence[TransistorNetlist],
        temperature_k: float,
        options: SolverOptions | None = None,
        packed: PackedMosfets | None = None,
    ) -> None:
        if not netlists:
            raise ValueError("need at least one netlist")
        if temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        self.netlists = list(netlists)
        self.temperature_k = float(temperature_k)
        self.options = options or SolverOptions()
        self.batch = len(self.netlists)

        reference = self.netlists[0]
        reference.validate()
        self._check_topology(reference)

        self.node_names = list(reference.nodes)
        self.node_index = {name: row for row, name in enumerate(self.node_names)}
        self._free_rows = [
            self.node_index[n.name]
            for n in reference.nodes.values()
            if n.kind is NodeKind.FREE
        ]

        # Device grid: slot t, instance b.
        if packed is None:
            packed = PackedMosfets(
                [
                    [net.transistors[t].mosfet for net in self.netlists]
                    for t in range(len(reference.transistors))
                ],
                self.temperature_k,
            )
        elif (
            any(net.transistors is not reference.transistors for net in self.netlists)
            or (packed.slots, packed.batch) != (len(reference.transistors), self.batch)
            or packed.temperature_k != self.temperature_k
        ):
            raise ValueError(
                "a pre-built device pack needs views sharing one transistor "
                "list, a (transistors, batch) grid and the solve temperature"
            )
        self.packed = packed

        # Per-transistor terminal rows, used by the post-solve analysis.
        self._transistor_rows = np.array(
            [
                [self.node_index[getattr(t, term)] for t in reference.transistors]
                for term in _TERMINALS
            ],
            dtype=int,
        )
        self._owners = [t.owner for t in reference.transistors]
        self._owner_order, self._owner_ids = owner_slot_ids(self._owners)

        # Supply-dependent per-instance quantities.
        self._vdd = np.array([net.vdd for net in self.netlists])
        self._lo_limit = -self.options.bracket_margin
        self._hi_limit = self._vdd + self.options.bracket_margin
        self._mid_rail = 0.5 * self._vdd

        self._problems = self._build_problems(reference)
        self._problems_by_row = {p.row: p for p in self._problems}
        self._cluster_edges = self._build_cluster_edges(reference)
        self._cluster_gate_rows = np.array(
            [e[0] for e in self._cluster_edges], dtype=int
        )
        self._cluster_signs = np.array([e[3] for e in self._cluster_edges])[:, None]
        self._cluster_components = self._build_cluster_components()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _check_topology(self, reference: TransistorNetlist) -> None:
        ref_nodes = {
            name: (node.kind, name) for name, node in reference.nodes.items()
        }
        for position, net in enumerate(self.netlists[1:], start=1):
            if set(net.nodes) != set(ref_nodes):
                raise ValueError(
                    f"netlist {position} has different node names than the reference"
                )
            for name, node in net.nodes.items():
                if node.kind is not reference.nodes[name].kind:
                    raise ValueError(
                        f"netlist {position}: node {name!r} changed kind"
                    )
            if net.transistors is reference.transistors:
                # Shared-topology views (the batched reference path) share the
                # transistor list object outright — structurally identical by
                # construction, so the per-transistor comparison is skipped.
                continue
            if len(net.transistors) != len(reference.transistors):
                raise ValueError(
                    f"netlist {position} has a different transistor count"
                )
            for t_ref, t_other in zip(reference.transistors, net.transistors):
                if (
                    t_ref.gate != t_other.gate
                    or t_ref.drain != t_other.drain
                    or t_ref.source != t_other.source
                    or t_ref.bulk != t_other.bulk
                    or t_ref.owner != t_other.owner
                    or t_ref.mosfet.polarity is not t_other.mosfet.polarity
                ):
                    raise ValueError(
                        f"netlist {position}: transistor {t_ref.name!r} differs "
                        "structurally from the reference"
                    )

    def _build_problems(self, reference: TransistorNetlist) -> list[_NodeProblem]:
        attachment_index = reference.attachments()
        injections = [net.injections() for net in self.netlists]
        transistor_slot = {t.name: i for i, t in enumerate(reference.transistors)}

        problems: list[_NodeProblem] = []
        for node in reference.nodes.values():
            if node.kind is not NodeKind.FREE:
                continue
            attachments = attachment_index[node.name]
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
            row = self.node_index[node.name]
            self_masks = (terminal_rows == row)[:, :, None]
            weights = np.array(
                [
                    [1.0 if terminal == term else 0.0 for _t, terminal in attachments]
                    for term in _TERMINALS
                ]
            )[:, :, None]
            injection = np.array(
                [inj.get(node.name, 0.0) for inj in injections]
            )
            problems.append(
                _NodeProblem(
                    name=node.name,
                    row=row,
                    terminal_rows=terminal_rows,
                    self_masks=self_masks,
                    weights=weights,
                    packed=self.packed.rows(slots),
                    injection=injection,
                )
            )
        return problems

    def _build_cluster_edges(self, reference: TransistorNetlist):
        """Return (gate_row, drain_row, source_row, sign) per free-free channel."""
        free_rows = set(self._free_rows)
        edges = []
        for transistor in reference.transistors:
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
        self,
        initial_voltages: Mapping[str, float | np.ndarray]
        | Sequence[Mapping[str, float]]
        | None = None,
    ) -> BatchedOperatingPoint:
        """Solve the batch and return the per-instance operating points.

        Parameters
        ----------
        initial_voltages:
            Optional initial guesses for free nodes: either one mapping
            applied to every instance (values may be scalars or ``(B,)``
            arrays — the warm-start path of the characterizer passes arrays),
            or a sequence of ``B`` per-instance mappings.  Unlisted free
            nodes start from their stored netlist voltage.
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
            for problem in self._problems:
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
        for slot, transistor in enumerate(self.netlists[0].transistors):
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
        reference = self.netlists[0]
        base = np.empty((len(self.node_names), self.batch))
        for row, name in enumerate(self.node_names):
            base[row] = [net.nodes[name].voltage for net in self.netlists]
        if initial_voltages is None:
            return base
        free = {
            name
            for name, node in reference.nodes.items()
            if node.kind is NodeKind.FREE
        }
        if isinstance(initial_voltages, Mapping):
            guesses: Sequence[Mapping] = [initial_voltages]
            broadcast = True
        else:
            guesses = list(initial_voltages)
            if len(guesses) != self.batch:
                raise ValueError(
                    f"expected {self.batch} initial-voltage mappings, got {len(guesses)}"
                )
            broadcast = False
        for column, mapping in enumerate(guesses):
            for name, value in mapping.items():
                if name not in free:
                    continue
                row = self.node_index[name]
                if broadcast:
                    base[row] = np.asarray(value, dtype=float)
                else:
                    base[row, column] = float(value)
        return base

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
        if not self._cluster_edges:
            return
        columns = np.flatnonzero(column_mask)
        if columns.size == 0:
            return

        conducting = (
            self._cluster_signs
            * (voltages[self._cluster_gate_rows][:, columns] - mid_rail[columns])
            > 0.0
        )

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
            self._solve_one_cluster(
                voltages, hi_limit, group, active[group], members,
                self._problems_by_row,
            )

    def _build_cluster_components(self) -> list["_ClusterComponent"]:
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

        for _gate, drain, source, _sign in self._cluster_edges:
            ra, rb = find(drain), find(source)
            if ra != rb:
                parent[ra] = rb

        rows_by_root: dict[int, list[int]] = {}
        for row in self._free_rows:
            rows_by_root.setdefault(find(row), []).append(row)
        edges_by_root: dict[int, list[int]] = {}
        for index, (_gate, drain, _source, _sign) in enumerate(self._cluster_edges):
            edges_by_root.setdefault(find(drain), []).append(index)
        return [
            _ClusterComponent(
                rows=rows,
                edge_indices=np.array(edges_by_root[root], dtype=int),
                edges=[self._cluster_edges[i] for i in edges_by_root[root]],
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
        problems_by_row: dict[int, _NodeProblem],
    ) -> None:
        member_problems = [
            problems_by_row[row].take_columns(group_abs) for row in members
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
