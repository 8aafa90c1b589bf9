"""Options of the DC operating-point solve.

:class:`SolverOptions` configures the batched solver
(:class:`repro.spice.batched.BatchedDcSolver`): its damped Newton–Raphson
iteration, the dense-or-sparse backend choice, and the Gauss–Seidel sweeps
a column falls back to when a Newton step cannot reduce its KCL residual.
The scalar Gauss–Seidel solver the batched solve is checked against, the
test oracle :class:`repro.oracle.DcSolver`, reads the same sweep fields.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    exceed :attr:`newton_dense_memory_limit`.  The scalar oracle
    :class:`repro.oracle.DcSolver` always uses Gauss–Seidel relaxation.

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
