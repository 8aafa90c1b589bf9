"""Batched damped-Newton DC operating-point solver.

This module is the solve behind
:meth:`repro.spice.batched.BatchedDcSolver.solve`, the one production DC
solver.  Per batch column it treats the whole free-node Kirchhoff system
at once:

1. evaluate every device of the packed ``(T, B)`` grid *once* to get the
   full residual vector ``F`` and, through the analytic model derivatives
   (:meth:`repro.device.batched.PackedMosfets.kcl_jacobian`), the
   per-column Jacobian ``J``;
2. solve ``J dv = -F`` for all columns;
3. damp the step with a per-column clamp and a per-column backtracking
   (Armijo) line search on the residual 2-norm, then apply it inside the
   admissible voltage band ``[-bracket_margin, vdd + bracket_margin]``.

Near the solution the iteration converges quadratically, so the whole
solve finishes in ~5–15 iterations from a cold start and 1–4 from a warm
start.

Linear-algebra backends
-----------------------
Steps 1–2 are the only stage whose cost scales super-linearly with the
free-node count, so exactly that stage is abstracted behind a backend
object: ``linearize(packed, voltages, injection)`` returns the residuals
and the column Jacobians, ``solve(system, residual, held, shift)`` the
steps.  The globalization loop — damping, line search, convergence
masking, the band-edge hold rule and the continuation retry — is shared
verbatim by every backend:

* :class:`_DenseNewtonBackend` (``"newton"``) scatters the device
  Jacobians into dense ``(B, N, N)`` matrices and factorizes them with one
  batched ``np.linalg.solve`` — O(B·N²) memory and O(B·N³) time, unbeatable
  on the small cells of the characterizer, a hard wall at ISCAS scale.
* :class:`repro.spice.sparse.SparseNewtonBackend` (``"newton-sparse"``)
  assembles the same scatter indices into one shared CSC sparsity pattern
  and factorizes per column with SuperLU — O(nnz) memory, near-linear time
  on circuit matrices.

:func:`resolve_newton_method` picks one of the two per solve by free-node
count and the dense stack's size (:func:`dense_jacobian_bytes`); the
chosen name is what :attr:`BatchedOperatingPoint.method` records.

Pinned nodes — the band as a bound
----------------------------------
A loading current larger than a pin's driver can carry leaves that net
with no Kirchhoff root inside the band.  Each iteration, a free node that
sits on a band edge with its residual pushing it outward — at the upper
limit with ``F < 0``, at the lower with ``F > 0`` — is *held*: its
Jacobian row becomes the identity and its right-hand side 0, so its step
is exactly 0, and its residual leaves the line-search norms.  The rest of
the column takes the Newton step of the reduced system, a projected
Newton method for a simple bound (Bertsekas, "Projected Newton methods
for optimization problems with simple constraints", SIAM J. Control
Optim. 20(2), 1982).  The held set is worked out again every iteration,
so a node is released as soon as its residual turns inward.  A column
still converges once its step falls below ``voltage_tol``; the nodes held
at that point are reported in :attr:`BatchedOperatingPoint.pinned`, an
out-of-envelope event, since such a column is no root of the full system.
While no node of the active columns is on an edge, the rule costs one
edge test per iteration and nothing else.

Retry by pseudo-transient continuation
--------------------------------------
A column the plain loop leaves open — a singular Jacobian, a non-finite
step, a line search that cannot reduce the residual at any damping, or an
exhausted iteration budget — restarts from its initial voltages and takes
up to ``newton_max_iterations`` clipped steps of ``(J + g·I) dv = -F``
under the same hold rule, with ``g = G0·‖F‖/‖F₀‖`` per column (Kelley &
Keyes, "Convergence analysis of pseudo-transient continuation", SIAM J.
Numer. Anal. 35(2), 1998): the conductance damps the first steps and
fades to plain Newton as the residual falls.  The plain loop then runs
again from where the continuation stopped and either certifies the column
or reports it not converged.  :attr:`BatchedOperatingPoint.fallback` flags
the retried columns; their continuation steps count as Newton iterations.

Batch-composition invariance
----------------------------
Every step of the iteration is per-column masked: residuals and Jacobians
are element-wise in the column axis, ``np.linalg.solve`` factorizes each
stacked matrix independently, the held rows, the continuation shift and
the line search's damping factor belong to one column each, every column
accepts its own trial, and a column freezes as soon as its own update
falls below the tolerance — in the plain loop and in the continuation
alike.  A column's trajectory — and its solved voltages, bit for bit — is
therefore independent of which other columns share the batch.  The
characterization, reference-campaign and Monte-Carlo drivers rely on this
to stay reproducible however their columns are chunked.
"""

from __future__ import annotations

import numpy as np

from repro.spice.batched import BatchedDcSolver, BatchedOperatingPoint
from repro.spice.solver import SolverOptions

#: Armijo sufficient-decrease constant of the backtracking line search.
_ARMIJO = 1.0e-4

#: Pseudo-transient conductance (S) of the continuation retry's first
#: step; later steps scale it by the column's residual norm over its first.
_G0 = 1.0e-4


def dense_jacobian_bytes(batch: int, n_free: int) -> int:
    """Bytes of the dense ``(batch, N, N)`` float64 Jacobian stack.

    This is the single allocation that makes the dense backend quadratic
    in the free-node count; everything else in the solver is O(T·B).
    """
    return int(batch) * int(n_free) * int(n_free) * 8


def resolve_newton_method(
    options: SolverOptions, n_free: int, batch: int
) -> str:
    """Return the Newton backend, ``"newton"`` or ``"newton-sparse"``.

    Sparse when the system is large — the free-node count reaches
    :attr:`~repro.spice.solver.SolverOptions.newton_sparse_threshold` or
    the dense stack would exceed
    :attr:`~repro.spice.solver.SolverOptions.newton_dense_memory_limit` —
    and dense otherwise, so small cells keep the batched-LAPACK fast path.
    """
    if (
        n_free >= options.newton_sparse_threshold
        or dense_jacobian_bytes(batch, n_free)
        > options.newton_dense_memory_limit
    ):
        return "newton-sparse"
    return "newton"


class _NewtonAssembler:
    """Pre-indexed scatter structures for residual and Jacobian assembly.

    Newton evaluates the whole transistor grid in one pass, so this helper
    pre-computes the flat scatter indices that take the
    ``(4, T, B)`` terminal currents into the ``(N, B)`` free-node residual
    and the ``(4, 4, T, B)`` device Jacobians into the ``(N * N, B)`` flat
    circuit Jacobian.
    """

    __slots__ = (
        "free_rows",
        "n_free",
        "rows",
        "slots",
        "res_target",
        "res_source",
        "jac_target",
        "jac_source",
        "injection",
    )

    def __init__(self, solver: BatchedDcSolver) -> None:
        rows = solver._transistor_rows  # (4, T) node rows per terminal
        self.rows = rows
        self.slots = rows.shape[1]
        self.free_rows = np.array(solver._free_rows, dtype=int)
        self.n_free = self.free_rows.size
        free_position = {row: k for k, row in enumerate(solver._free_rows)}

        res_target, res_source = [], []
        jac_target, jac_source = [], []
        for i in range(4):
            for t in range(self.slots):
                fi = free_position.get(int(rows[i, t]))
                if fi is None:
                    continue
                res_target.append(fi)
                res_source.append(i * self.slots + t)
                for j in range(4):
                    fj = free_position.get(int(rows[j, t]))
                    if fj is None:
                        continue
                    jac_target.append(fi * self.n_free + fj)
                    jac_source.append((i * 4 + j) * self.slots + t)
        self.res_target = np.array(res_target, dtype=int)
        self.res_source = np.array(res_source, dtype=int)
        self.jac_target = np.array(jac_target, dtype=int)
        self.jac_source = np.array(jac_source, dtype=int)
        #: ``(N, B)`` injected currents, in free-row order.
        self.injection = solver._injection

    def _scatter_currents(self, currents, grid_shape) -> np.ndarray:
        stacked = np.stack(
            [np.broadcast_to(c, grid_shape) for c in currents]
        ).reshape(4 * self.slots, grid_shape[1])
        out = np.zeros((self.n_free, grid_shape[1]))
        np.add.at(out, self.res_target, stacked[self.res_source])
        return out

    def residual(self, packed, voltages: np.ndarray, injection) -> np.ndarray:
        """Free-node KCL residuals ``(N, columns)`` at ``voltages``.

        Matches the residual convention of the scalar oracle
        :meth:`repro.oracle.DcSolver.residual`: summed terminal currents
        flowing *into* the attached devices, minus the injection.
        """
        g, d, s, b = (voltages[r] for r in self.rows)
        currents = packed.kcl_currents(g, d, s, b)
        return self._scatter_currents(currents, g.shape) - injection

    def jacobian(
        self, packed, voltages: np.ndarray, injection
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and dense circuit Jacobians at ``voltages``.

        Returns ``(residual, matrices)`` with ``residual`` as in
        :meth:`residual` (the device evaluation is shared, not repeated)
        and ``matrices`` of shape ``(columns, N, N)``:
        ``matrices[b, i, j] = dF_i/dV_j`` over the free nodes.
        """
        g, d, s, b = (voltages[r] for r in self.rows)
        currents, flat = packed.kcl_jacobian_flat(g, d, s, b)
        columns = g.shape[1]
        out = np.zeros((self.n_free * self.n_free, columns))
        np.add.at(out, self.jac_target, flat[self.jac_source])
        matrices = np.ascontiguousarray(
            out.reshape(self.n_free, self.n_free, columns).transpose(2, 0, 1)
        )
        residual = self._scatter_currents(currents, g.shape) - injection
        return residual, matrices


def _solve_steps(matrices: np.ndarray, residual: np.ndarray):
    """Solve ``J dv = -F`` per column; returns ``(steps, singular)``.

    ``steps`` has shape ``(N, columns)``; exactly singular columns get a
    zero step and a True ``singular`` flag.  ``np.linalg.solve`` factorizes
    each stacked matrix independently, so a column's step is bitwise
    identical whether it is solved alone or inside a larger stack; the
    per-column retry below (taken only when the batched call trips over a
    singular member) therefore reproduces the non-singular columns exactly.
    """
    columns = matrices.shape[0]
    rhs = -residual.T[..., None]
    singular = np.zeros(columns, dtype=bool)
    try:
        return np.linalg.solve(matrices, rhs)[..., 0].T, singular
    except np.linalg.LinAlgError:
        steps = np.zeros((matrices.shape[1], columns))
        for k in range(columns):
            try:
                steps[:, k] = np.linalg.solve(matrices[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return steps, singular


class _DenseNewtonBackend:
    """Dense linear-algebra backend (``"newton"``).

    Scatters the device Jacobians into a dense ``(columns, N, N)`` stack
    and factorizes every column in one batched ``np.linalg.solve`` call.
    """

    name = "newton"

    def __init__(self, assembler: _NewtonAssembler) -> None:
        self.assembler = assembler

    def linearize(
        self, packed, voltages: np.ndarray, injection: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residuals ``(N, columns)`` and the ``(columns, N, N)`` Jacobians."""
        return self.assembler.jacobian(packed, voltages, injection)

    def solve(
        self,
        matrices: np.ndarray,
        residual: np.ndarray,
        held: np.ndarray | None = None,
        shift: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve ``(J + shift·I) dv = -F`` per column; ``(step, singular)``.

        ``held`` marks ``(N, columns)`` rows replaced by the identity (the
        caller has zeroed their residuals, so their steps are 0) and
        ``shift`` adds a ``(columns,)`` conductance to every diagonal
        entry.  ``step`` is ``(N, columns)``; ``singular`` flags columns
        whose Jacobian could not be factorized (their step is 0).
        """
        if shift is not None:
            diagonal = np.arange(self.assembler.n_free)
            matrices[:, diagonal, diagonal] += shift[:, None]
        if held is not None:
            columns, rows = np.nonzero(held.T)
            matrices[columns, rows] = 0.0
            matrices[columns, rows, rows] = 1.0
        return _solve_steps(matrices, residual)


class _Solve:
    """One batched solve's per-column state and its two iterations.

    ``voltages`` is the full ``(nodes, B)`` matrix, updated in place; each
    iteration takes the absolute batch columns it runs on and leaves every
    other column untouched.
    """

    def __init__(self, solver: BatchedDcSolver, assembler, backend, voltages):
        self.solver = solver
        self.options = solver.options
        self.assembler = assembler
        self.backend = backend
        self.voltages = voltages
        batch = solver.batch
        self.converged = np.zeros(batch, dtype=bool)
        self.iterations = np.zeros(batch, dtype=int)
        self.max_update = np.full(batch, np.inf)
        #: ``(N, B)`` nodes held in each column's latest iteration; built
        #: when a node is first held.
        self.pinned: np.ndarray | None = None

    def _bind(self, active: np.ndarray):
        """Device pack, injections, upper band limit and voltages of ``active``."""
        solver = self.solver
        whole = active.size == solver.batch
        packed = solver.packed if whole else solver.packed.take_columns(active)
        return (
            packed,
            self.assembler.injection[:, active],
            solver._hi_limit[active],
            self.voltages[:, active],
        )

    def _hold(self, v_free, hi_limit, residual, active) -> np.ndarray | None:
        """Apply the hold rule to one linearization of the ``active`` columns.

        A free node on the upper band edge with a negative residual, or on
        the lower edge with a positive one, is held: its residual is zeroed
        in place and the ``(N, columns)`` held mask returned (None when no
        node is held).
        """
        upper = v_free >= hi_limit
        lower = v_free <= self.solver._lo_limit
        if upper.any() or lower.any():
            held = (upper & (residual < 0.0)) | (lower & (residual > 0.0))
            if held.any():
                residual[held] = 0.0
                if self.pinned is None:
                    self.pinned = np.zeros(
                        (self.assembler.n_free, self.solver.batch), dtype=bool
                    )
                self.pinned[:, active] = held
                return held
        if self.pinned is not None:
            self.pinned[:, active] = False
        return None

    def _solve(self, system, residual, held, norm, shift=None):
        """One backend solve under the hold rule; ``(step, bad)``.

        ``bad`` flags columns with a singular Jacobian or a non-finite step
        or residual norm; their step is 0.
        """
        step, singular = self.backend.solve(system, residual, held, shift)
        if held is not None:
            step[held] = 0.0  # exactly, whatever the pivot order
        bad = singular | ~np.isfinite(step).all(axis=0) | ~np.isfinite(norm)
        step[:, bad] = 0.0
        return step, bad

    def newton(self, live: np.ndarray) -> None:
        """Run the plain damped-Newton loop on the columns ``live``.

        Each column iterates until its step falls below ``voltage_tol``
        (converged), its line search fails, or the iteration budget runs
        out; the last two leave it open.
        """
        options = self.options
        assembler = self.assembler
        free = assembler.free_rows
        lo_limit = self.solver._lo_limit

        for _ in range(options.newton_max_iterations):
            if live.size == 0:
                break
            active = live
            packed, injection, hi_limit, v_active = self._bind(active)
            v_free = v_active[free]

            residual, system = self.backend.linearize(packed, v_active, injection)
            held = self._hold(v_free, hi_limit, residual, active)
            norm = np.sqrt(np.sum(residual * residual, axis=0))
            step, bad = self._solve(system, residual, held, norm)
            raw_size = np.abs(step).max(axis=0)

            accepted = np.zeros(active.size, dtype=bool)
            new_free = v_free.copy()

            def line_search(candidate_step, open_mask):
                """Backtracking Armijo search, per column; accepts into
                ``new_free``/``accepted`` (closure state)."""
                alpha = np.ones(active.size)
                for _ in range(options.newton_backtracks + 1):
                    open_cols = np.flatnonzero(open_mask & ~accepted)
                    if open_cols.size == 0:
                        return
                    trial_free = np.clip(
                        v_free[:, open_cols]
                        + alpha[open_cols] * candidate_step[:, open_cols],
                        lo_limit,
                        hi_limit[open_cols],
                    )
                    trial = v_active[:, open_cols].copy()
                    trial[free] = trial_free
                    trial_packed = (
                        packed
                        if open_cols.size == active.size
                        else packed.take_columns(open_cols)
                    )
                    trial_residual = assembler.residual(
                        trial_packed, trial, injection[:, open_cols]
                    )
                    if held is not None:
                        trial_residual[held[:, open_cols]] = 0.0
                    trial_norm = np.sqrt(
                        np.sum(trial_residual * trial_residual, axis=0)
                    )
                    improved = np.isfinite(trial_norm) & (
                        trial_norm
                        <= (1.0 - _ARMIJO * alpha[open_cols]) * norm[open_cols]
                    )
                    taken = open_cols[improved]
                    new_free[:, taken] = trial_free[:, improved]
                    accepted[taken] = True
                    alpha[open_cols[~improved]] *= 0.5

            # Columns whose full Newton step is already below the voltage
            # tolerance are at the root: apply the step without a line
            # search (whose sufficient-decrease test is meaningless at a
            # ~zero residual) and mark them converged.
            small = ~bad & (raw_size < options.voltage_tol)
            if small.any():
                new_free[:, small] = np.clip(
                    v_free[:, small] + step[:, small],
                    lo_limit,
                    hi_limit[small],
                )
                accepted[small] = True

            # First pass: the component-wise clipped step.  Far from the
            # solution this moves every node up to step_limit towards its
            # own target at once — the fastest globalization on the rail-
            # dominated leakage states — but clipping changes the Newton
            # direction, so it is not guaranteed to descend.
            clipped = np.clip(
                step, -options.newton_step_limit, options.newton_step_limit
            )
            line_search(clipped, ~bad & ~small)

            # Rescue pass: columns the clipped direction stranded retry
            # along the *scaled* step (the whole column shrunk so its
            # largest component is step_limit).  A positive multiple of
            # -J^-1 F is always a descent direction for ||F||^2, so this
            # pass succeeds whenever the Jacobian is sound; only degenerate
            # columns are left open for the continuation retry.
            rescue = ~accepted & ~bad & (raw_size > options.newton_step_limit)
            if rescue.any():
                scale = options.newton_step_limit / np.where(
                    raw_size > 0.0, raw_size, 1.0
                )
                line_search(step * scale, rescue)

            applied = np.flatnonzero(accepted)
            absolute = active[applied]
            self.voltages[np.ix_(free, absolute)] = new_free[:, applied]
            self.iterations[active] += 1
            self.max_update[absolute] = np.abs(
                new_free[:, applied] - v_free[:, applied]
            ).max(axis=0)
            self.converged[active[small]] = True
            live = active[accepted & ~small]

    def continuation(self, live: np.ndarray) -> None:
        """Pseudo-transient continuation on the columns ``live``.

        Up to ``newton_max_iterations`` steps of ``(J + g·I) dv = -F`` with
        ``g = G0·‖F‖/‖F₀‖``, each clipped to ``newton_step_limit`` per node
        and to the band, under the hold rule.  A column stops once its
        update falls below ``voltage_tol``.
        """
        options = self.options
        free = self.assembler.free_rows
        lo_limit = self.solver._lo_limit
        first_norm = np.ones(self.solver.batch)

        for index in range(options.newton_max_iterations):
            if live.size == 0:
                break
            active = live
            packed, injection, hi_limit, v_active = self._bind(active)
            v_free = v_active[free]

            residual, system = self.backend.linearize(packed, v_active, injection)
            held = self._hold(v_free, hi_limit, residual, active)
            norm = np.sqrt(np.sum(residual * residual, axis=0))
            if index == 0:
                first_norm[active] = np.where(norm > 0.0, norm, 1.0)
            step, _bad = self._solve(
                system, residual, held, norm, _G0 * norm / first_norm[active]
            )
            new_free = np.clip(
                v_free
                + np.clip(
                    step, -options.newton_step_limit, options.newton_step_limit
                ),
                lo_limit,
                hi_limit,
            )
            self.voltages[np.ix_(free, active)] = new_free
            self.iterations[active] += 1
            update = np.abs(new_free - v_free).max(axis=0)
            self.max_update[active] = update
            live = active[update >= options.voltage_tol]


def solve_newton(
    solver: BatchedDcSolver, voltages: np.ndarray
) -> BatchedOperatingPoint:
    """Damped-Newton solve of ``solver``'s batch, in place on ``voltages``.

    Called by :meth:`BatchedDcSolver.solve`; see the module docstring for
    the scheme, the backend split, the hold rule and the retry.
    ``voltages`` is the full ``(nodes, B)`` initial matrix and is updated
    in place.
    """
    options = solver.options
    batch = solver.batch
    assembler = _NewtonAssembler(solver)
    free = assembler.free_rows
    resolved = resolve_newton_method(options, assembler.n_free, batch)
    retried = np.zeros(batch, dtype=bool)
    pinned = np.zeros(voltages.shape, dtype=bool)

    if assembler.n_free == 0:
        # No free nodes: nothing to solve.
        converged = np.ones(batch, dtype=bool)
        iterations = np.zeros(batch, dtype=int)
        max_update = np.zeros(batch)
    else:
        if resolved == "newton-sparse":
            from repro.spice.sparse import SparseNewtonBackend

            backend: SparseNewtonBackend | _DenseNewtonBackend = (
                SparseNewtonBackend(assembler)
            )
        else:
            backend = _DenseNewtonBackend(assembler)

        initial = voltages.copy()  # retried columns restart from here
        run = _Solve(solver, assembler, backend, voltages)
        run.newton(np.arange(batch))

        retried = ~run.converged
        if retried.any():
            columns = np.flatnonzero(retried)
            voltages[:, columns] = initial[:, columns]
            run.continuation(columns)
            run.newton(columns)
        if run.pinned is not None:
            pinned[free] = run.pinned
        converged, iterations, max_update = (
            run.converged,
            run.iterations,
            run.max_update,
        )

    return BatchedOperatingPoint(
        node_index=solver.node_index,
        voltages=voltages,
        temperature_k=solver.temperature_k,
        converged=converged,
        max_update=max_update,
        method=resolved,
        newton_iterations=iterations,
        fallback=retried,
        pinned=pinned,
    )
