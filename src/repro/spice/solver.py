"""DC operating-point solver.

The solver computes the static node voltages of a transistor-level netlist in
which every device is (almost) off — the leakage state of a CMOS circuit.  It
uses Gauss–Seidel relaxation: nodes are visited repeatedly and each node's
Kirchhoff current equation is solved as a one-dimensional problem with all
other node voltages held at their latest values.

Why relaxation instead of a global Newton?  In the leakage state each net is
held close to a rail by an on transistor, and the inter-gate coupling through
gate tunneling shifts voltages by only millivolts (that small shift *is* the
loading effect).  The per-node problems are therefore nearly independent, the
coupling is weak, and a handful of sweeps reaches microvolt-level
self-consistency — while staying robust (the scalar solves are bracketed, so
the exponential device characteristics can never make the iteration diverge).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from scipy.optimize import brentq

from repro.spice.netlist import NodeKind, TransistorNetlist


@dataclass(frozen=True)
class SolverOptions:
    """Tunable parameters of the DC solver.

    The batched solver (:class:`repro.spice.batched.BatchedDcSolver`)
    always takes damped Newton–Raphson steps with analytic device
    Jacobians, falling back per batch column to Gauss–Seidel sweeps when a
    step cannot reduce the KCL residual.  It factorizes the steps densely,
    or as sparse CSC matrices with SuperLU (:mod:`repro.spice.sparse`) —
    O(nnz) memory instead of O(B·N²), the only feasible backend for
    ISCAS-scale netlists — once the free-node count reaches
    :attr:`newton_sparse_threshold` or the dense Jacobian stack would
    exceed :attr:`newton_dense_memory_limit`.  The scalar
    :class:`DcSolver` always uses Gauss–Seidel relaxation — it is the
    cross-check oracle the batched solver is validated against.

    Attributes
    ----------
    max_sweeps:
        Maximum number of Gauss–Seidel sweeps over all free nodes.
    voltage_tol:
        Convergence threshold on the largest node-voltage update in one
        sweep, in volts.  The default of 5 uV bounds the leakage error to
        roughly 0.05 % (the subthreshold sensitivity is ~40 %/mV), far below
        the loading effects being measured.
    bracket_margin:
        How far outside [0, VDD] the scalar solves may search, in volts.
    initial_window:
        Half-width of the first bracket tried around a node's current
        voltage; widened geometrically until the residual changes sign.
    xtol:
        Absolute voltage tolerance of the scalar root finder.
    cluster_interval:
        Every this-many sweeps (and on the first one), groups of free nodes
        tied together by a strongly conducting channel are first moved by a
        common *shift* solving their summed KCL equation.  Such groups (e.g.
        the interior nodes of a series stack whose middle transistor is on)
        move almost rigidly, and per-node Gauss–Seidel alone converges their
        common-mode voltage only very slowly; the supernode pass removes
        that slow mode.  Because the pass shifts the members together — it
        never collapses them to one voltage — the microvolt IR drops across
        the conducting channel are preserved and the pass stays harmless
        arbitrarily close to convergence (the shift simply tends to zero).
    newton_max_iterations:
        Iteration budget of the batched Newton solver; a column that has
        not converged when it runs out falls back to Gauss–Seidel sweeps.
        Newton typically converges in 5–15 iterations from a cold start and
        1–4 from a warm start, so the default leaves generous headroom.
    newton_backtracks:
        Maximum step halvings of the per-column backtracking line search; a
        column whose residual norm does not decrease even at the smallest
        damping falls back to Gauss–Seidel.
    newton_step_limit:
        Length limit (V) on a column's Newton step: a step whose largest
        node component exceeds it is *scaled down* whole (preserving the
        Newton direction — a component-wise clip could turn it into a
        non-descent direction and stall the line search).  The exponential
        device characteristics make far-from-solution Jacobians wildly
        optimistic; limiting the step keeps the first iterations inside
        the region where the line search is meaningful.
    newton_sparse_threshold:
        Free-node count at (and above) which the batched solver selects
        the sparse Newton backend; 1 sends every system to it.  The dense
        backend amortizes its O(N³) batched factorization well on the
        small cells of the characterizer; on circuit-sized systems the
        sparse factorization wins long before memory becomes the binding
        constraint.  The default sits in the crossover band of the
        committed sweep ``benchmarks/bench_sparse_crossover.py``
        (``benchmarks/sparse_crossover.json``) over
        ``iscas_like(n, rng=3)``: at 16 and 64 columns dense was ahead up
        to 107 and 88 free nodes, and sparse at every size from 179 on;
        at one column the two stayed within 0.8–1.3x of each other from
        63 to 299 free nodes.
    newton_dense_memory_limit:
        Byte budget of the dense backend's ``(B, N, N)`` Jacobian stack: a
        system whose stack would exceed it is solved by the sparse backend
        whatever its free-node count.
    """

    max_sweeps: int = 80
    voltage_tol: float = 5.0e-6
    bracket_margin: float = 0.1
    initial_window: float = 0.05
    xtol: float = 1.0e-8
    cluster_interval: int = 10
    newton_max_iterations: int = 60
    newton_backtracks: int = 12
    newton_step_limit: float = 0.5
    newton_sparse_threshold: int = 128
    newton_dense_memory_limit: float = 4.0e9

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.voltage_tol <= 0 or self.xtol <= 0:
            raise ValueError("tolerances must be positive")
        if self.cluster_interval < 1:
            raise ValueError("cluster_interval must be at least 1")
        if self.newton_max_iterations < 1:
            raise ValueError("newton_max_iterations must be at least 1")
        if self.newton_backtracks < 0:
            raise ValueError("newton_backtracks must be non-negative")
        if self.newton_step_limit <= 0:
            raise ValueError("newton_step_limit must be positive")
        if self.newton_sparse_threshold < 1:
            raise ValueError("newton_sparse_threshold must be at least 1")
        if self.newton_dense_memory_limit <= 0:
            raise ValueError("newton_dense_memory_limit must be positive")


@dataclass
class OperatingPoint:
    """Result of a DC solve.

    Attributes
    ----------
    voltages:
        Node name to solved voltage (fixed nodes included).
    temperature_k:
        Temperature the solve was performed at (needed to re-evaluate device
        currents at this operating point).
    converged:
        True when the last sweep's largest update fell below the tolerance.
    sweeps:
        Number of Gauss–Seidel sweeps performed.
    max_update:
        Largest node-voltage change in the final sweep, in volts.
    """

    voltages: dict[str, float]
    temperature_k: float
    converged: bool
    sweeps: int
    max_update: float

    def voltage(self, node: str) -> float:
        """Return the solved voltage of ``node``."""
        return self.voltages[node]


@dataclass
class _NodeProblem:
    """Pre-indexed data for one free node's scalar KCL solve."""

    name: str
    attachments: list[tuple[object, str]] = field(default_factory=list)
    injection: float = 0.0


class DcSolver:
    """Gauss–Seidel DC operating-point solver for a :class:`TransistorNetlist`."""

    def __init__(
        self,
        netlist: TransistorNetlist,
        temperature_k: float,
        options: SolverOptions | None = None,
    ) -> None:
        if temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        netlist.validate()
        self.netlist = netlist
        self.temperature_k = float(temperature_k)
        self.options = options or SolverOptions()

        attachment_index = netlist.attachments()
        injections = netlist.injections()
        self._problems: list[_NodeProblem] = []
        for node in netlist.nodes.values():
            if node.kind is not NodeKind.FREE:
                continue
            self._problems.append(
                _NodeProblem(
                    name=node.name,
                    attachments=attachment_index[node.name],
                    injection=injections.get(node.name, 0.0),
                )
            )

        # Whether any channel connects two free nodes: only then can the
        # supernode pass (and its convergence bookkeeping) matter at all.
        free_names = {problem.name for problem in self._problems}
        self._has_cluster_edges = any(
            t.drain in free_names and t.source in free_names
            for t in netlist.transistors
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve(self, initial_voltages: dict[str, float] | None = None) -> OperatingPoint:
        """Solve for the DC operating point.

        Parameters
        ----------
        initial_voltages:
            Optional initial guesses for free nodes (e.g. the rail implied by
            the logic value).  Unlisted free nodes start from their stored
            voltage (zero by default).  Good guesses cut the sweep count
            roughly in half but are never required for convergence.
        """
        voltages = {name: node.voltage for name, node in self.netlist.nodes.items()}
        if initial_voltages:
            for name, value in initial_voltages.items():
                node = self.netlist.nodes.get(name)
                if node is not None and node.kind is NodeKind.FREE:
                    voltages[name] = float(value)

        options = self.options
        lo_limit = -options.bracket_margin
        hi_limit = self.netlist.vdd + options.bracket_margin

        sweeps = 0
        max_update = float("inf")
        converged = False
        pending_final_cluster = False
        for sweeps in range(1, options.max_sweeps + 1):
            # The supernode pass moves each conducting cluster rigidly (a
            # common shift), so it accelerates the slow common mode without
            # touching the fine intra-cluster structure — safe to re-apply
            # at any phase of the iteration.
            run_cluster = self._has_cluster_edges and (
                pending_final_cluster
                or (sweeps - 1) % options.cluster_interval == 0
            )
            if run_cluster:
                self._solve_clusters(voltages, lo_limit, hi_limit)
            # Convergence only counts on a sweep whose state has seen the
            # cluster pass: per-node updates measure the fast modes, while
            # the cluster common mode can hold an update/(1 - rho) error
            # the sweep criterion cannot see.  A netlist without free-free
            # channels has no such mode, so every sweep counts.
            countable = run_cluster or not self._has_cluster_edges
            pending_final_cluster = False
            max_update = 0.0
            for problem in self._problems:
                old = voltages[problem.name]
                new = self._solve_node(problem, voltages, lo_limit, hi_limit)
                voltages[problem.name] = new
                update = abs(new - old)
                if update > max_update:
                    max_update = update
            if max_update < options.voltage_tol:
                if countable:
                    converged = True
                    break
                # Below tolerance but the slow mode is unchecked: force a
                # cluster pass on the next sweep and re-measure.
                pending_final_cluster = True

        return OperatingPoint(
            voltages=voltages,
            temperature_k=self.temperature_k,
            converged=converged,
            sweeps=sweeps,
            max_update=max_update,
        )

    def residual(self, node: str, voltages: dict[str, float]) -> float:
        """Return the KCL residual (A) of ``node`` at the given voltages.

        Positive residual means more current flows out of the node (into the
        attached devices) than is injected into it, so the node voltage must
        fall; a converged operating point has residuals near zero on every
        free node.
        """
        for problem in self._problems:
            if problem.name == node:
                return self._residual(problem, voltages, voltages[node])
        raise KeyError(f"{node!r} is not a free node of this netlist")

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _residual(
        self, problem: _NodeProblem, voltages: dict[str, float], trial: float
    ) -> float:
        """KCL residual of ``problem`` with its node at ``trial`` volts."""
        temperature = self.temperature_k
        total = -problem.injection
        name = problem.name
        for transistor, terminal in problem.attachments:
            vg = trial if transistor.gate == name else voltages[transistor.gate]
            vd = trial if transistor.drain == name else voltages[transistor.drain]
            vs = trial if transistor.source == name else voltages[transistor.source]
            vb = trial if transistor.bulk == name else voltages[transistor.bulk]
            ig, idr, isr, ib = transistor.mosfet.kcl_currents(
                vg, vd, vs, vb, temperature
            )
            if terminal == "gate":
                total += ig
            elif terminal == "drain":
                total += idr
            elif terminal == "source":
                total += isr
            else:
                total += ib
        return total

    def _solve_node(
        self,
        problem: _NodeProblem,
        voltages: dict[str, float],
        lo_limit: float,
        hi_limit: float,
    ) -> float:
        """Solve the scalar KCL equation of one node by bracketed root finding."""
        options = self.options
        current = voltages[problem.name]

        def f(v: float) -> float:
            return self._residual(problem, voltages, v)

        # Expand a window around the current voltage until the residual
        # changes sign; later sweeps converge with the narrowest window.
        window = options.initial_window
        while True:
            lo = max(lo_limit, current - window)
            hi = min(hi_limit, current + window)
            f_lo = f(lo)
            f_hi = f(hi)
            if f_lo == 0.0:
                return lo
            if f_hi == 0.0:
                return hi
            if f_lo * f_hi < 0.0:
                return float(brentq(f, lo, hi, xtol=options.xtol))
            if lo <= lo_limit and hi >= hi_limit:
                break
            window *= 4.0

        # No sign change over the whole admissible range: the node is pinned
        # at whichever end carries the smaller residual magnitude (this only
        # happens for pathological netlists, e.g. a node attached solely to
        # gate terminals with a large forced injection).
        return lo if abs(f_lo) <= abs(f_hi) else hi

    # ------------------------------------------------------------------ #
    # supernode (cluster) acceleration
    # ------------------------------------------------------------------ #
    def _conducting_clusters(self, voltages: dict[str, float]) -> list[list[str]]:
        """Group free nodes connected through logically-on channels.

        Two free nodes belong to the same cluster when the transistor between
        them has its gate driven to the "on" half of the supply (above
        mid-rail for NMOS, below it for PMOS).  Such a channel either already
        conducts or will start conducting as soon as the pair drifts toward
        its equilibrium, forcing the two nodes to move almost rigidly —
        exactly the slow mode plain Gauss–Seidel struggles with.  The
        criterion deliberately uses only the gate voltage: the source-side
        voltage of a floating stack node is not known until the solve has
        finished, which is the chicken-and-egg this pass breaks.
        """
        # Iterate in problem order throughout: building these structures
        # from a set would make cluster membership *order* (and therefore
        # the cluster-residual summation order) depend on the process hash
        # seed, turning the solve nondeterministic at the last-ulp level.
        order = [problem.name for problem in self._problems]
        free_names = set(order)
        parent: dict[str, str] = {name: name for name in order}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        mid_rail = 0.5 * self.netlist.vdd
        for transistor in self.netlist.transistors:
            drain, source = transistor.drain, transistor.source
            if drain not in free_names or source not in free_names:
                continue
            sign = transistor.mosfet.device.polarity.sign
            if sign * (voltages[transistor.gate] - mid_rail) > 0.0:
                union(drain, source)

        clusters: dict[str, list[str]] = {}
        for name in order:
            clusters.setdefault(find(name), []).append(name)
        return [members for members in clusters.values() if len(members) > 1]

    def _solve_clusters(
        self, voltages: dict[str, float], lo_limit: float, hi_limit: float
    ) -> None:
        """Move each conducting cluster by a common shift (supernode solve).

        The one-dimensional unknown is a rigid shift ``delta`` applied to
        every member, chosen so the *summed* KCL residual of the cluster
        vanishes.  Solving for a shift rather than a common voltage keeps the
        microvolt intra-cluster drops intact, which is what allows this pass
        to run arbitrarily close to convergence without undoing the per-node
        refinement (near the solution the shift is simply ~0).
        """
        problems_by_name = {problem.name: problem for problem in self._problems}
        for members in self._conducting_clusters(voltages):
            cluster_problems = [problems_by_name[name] for name in members]
            base = {name: voltages[name] for name in members}

            def cluster_residual(delta: float) -> float:
                trial = dict(voltages)
                for name in members:
                    trial[name] = base[name] + delta
                return sum(
                    self._residual(problem, trial, base[problem.name] + delta)
                    for problem in cluster_problems
                )

            # The shift range keeps every member inside the admissible band.
            lo_delta = lo_limit - min(base.values())
            hi_delta = hi_limit - max(base.values())
            if lo_delta >= hi_delta:  # pragma: no cover - defensive
                continue
            f_lo = cluster_residual(lo_delta)
            f_hi = cluster_residual(hi_delta)
            if f_lo == 0.0:
                shift = lo_delta
            elif f_hi == 0.0:
                shift = hi_delta
            elif f_lo * f_hi < 0.0:
                shift = float(
                    brentq(cluster_residual, lo_delta, hi_delta, xtol=self.options.xtol)
                )
            else:
                continue
            for name in members:
                voltages[name] = base[name] + shift
