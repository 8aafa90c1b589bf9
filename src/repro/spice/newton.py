"""Batched damped-Newton DC operating-point solver.

This module is the solve behind
:meth:`repro.spice.batched.BatchedDcSolver.solve`.  Where the Gauss–Seidel
sweeps of :mod:`repro.spice.batched` relax one node at a time — tens to
hundreds of sweeps, each performing one bracketed 1-D root find per free
node — the Newton solver treats the whole free-node Kirchhoff system per
batch column at once:

1. evaluate every device of the packed ``(T, B)`` grid *once* to get the
   full residual vector ``F`` and, through the analytic model derivatives
   (:meth:`repro.device.batched.PackedMosfets.kcl_jacobian`), the
   per-column Jacobian ``J``;
2. solve ``J dv = -F`` for all columns;
3. damp the step with a per-column clamp and a per-column backtracking
   (Armijo) line search on the residual 2-norm, then apply it inside the
   admissible voltage band.

Near the solution the iteration converges quadratically, so the whole
solve finishes in ~5–15 iterations from a cold start and 1–4 from a warm
start — against up to ``max_sweeps`` relaxation sweeps at tight
tolerances.

Linear-algebra backends
-----------------------
Steps 1–2 are the only stage whose cost scales super-linearly with the
free-node count, so exactly that stage is abstracted behind a backend
object (one ``steps(packed, voltages, injection)`` call per iteration);
the globalization loop — damping, line search, convergence masking and the
Gauss–Seidel fallback — is shared verbatim by every backend:

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

Robustness — the Gauss–Seidel fallback
--------------------------------------
Newton's superlinear speed comes without the bracketed solver's
unconditional robustness, so every failure is handed back, per column, to
the relaxation path: a rank-deficient Jacobian, a non-finite step, a line
search that cannot reduce the residual at any damping (the classic case:
a pinned node whose KCL equation has no root in the admissible band), or
an exhausted iteration budget all mark the column for fallback.  Fallback
columns restart from their *initial* voltages and run the unmodified
Gauss–Seidel sweeps (:meth:`BatchedDcSolver._solve_gauss_seidel` on the
failed column subset), so their results are bitwise identical to a pure
relaxation solve of the same columns (the test oracle
:func:`repro.oracle.solve_gauss_seidel`).

Batch-composition invariance
----------------------------
Every step of the iteration is per-column masked: residuals and Jacobians
are element-wise in the column axis, ``np.linalg.solve`` factorizes each
stacked matrix independently, the line search tracks one damping factor
per column and accepts each column at its own step, and converged columns
freeze (they are never re-evaluated).  A column's trajectory — and its
solved voltages, bit for bit — is therefore independent of which other
columns share the batch, exactly like the Gauss–Seidel path.  The
characterization, reference-campaign and Monte-Carlo drivers rely on this
to stay reproducible across chunkings and worker counts.
"""

from __future__ import annotations

import numpy as np

from repro.spice.batched import BatchedDcSolver, BatchedOperatingPoint
from repro.spice.solver import SolverOptions

#: Armijo sufficient-decrease constant of the backtracking line search.
_ARMIJO = 1.0e-4


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

    The Gauss–Seidel path indexes devices *per node* (it relaxes one node
    at a time); Newton evaluates the whole transistor grid in one pass, so
    this helper pre-computes the flat scatter indices that take the
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

        # Injections in free-node order; the problems list is built from the
        # same FREE-filtered node iteration as _free_rows.
        assert [p.row for p in solver._problems] == list(solver._free_rows)
        self.injection = np.stack([p.injection for p in solver._problems])

    def _scatter_currents(self, currents, grid_shape) -> np.ndarray:
        stacked = np.stack(
            [np.broadcast_to(c, grid_shape) for c in currents]
        ).reshape(4 * self.slots, grid_shape[1])
        out = np.zeros((self.n_free, grid_shape[1]))
        np.add.at(out, self.res_target, stacked[self.res_source])
        return out

    def residual(self, packed, voltages: np.ndarray, injection) -> np.ndarray:
        """Free-node KCL residuals ``(N, columns)`` at ``voltages``.

        Matches the Gauss–Seidel residual convention: summed terminal
        currents flowing *into* the attached devices, minus the injection.
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

    def steps(
        self, packed, voltages: np.ndarray, injection: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One linearization: ``(residual, step, singular)`` per column.

        ``residual`` is ``(N, columns)`` as in
        :meth:`_NewtonAssembler.residual`, ``step`` is the ``(N, columns)``
        undamped Newton step solving ``J dv = -F``, and ``singular`` flags
        columns whose Jacobian could not be factorized (their step is 0).
        """
        residual, matrices = self.assembler.jacobian(
            packed, voltages, injection
        )
        step, singular = _solve_steps(matrices, residual)
        return residual, step, singular


def solve_newton(
    solver: BatchedDcSolver, voltages: np.ndarray
) -> BatchedOperatingPoint:
    """Damped-Newton solve of ``solver``'s batch, in place on ``voltages``.

    Called by :meth:`BatchedDcSolver.solve`; see the module docstring for
    the scheme and the backend split.
    ``voltages`` is the full ``(nodes, B)`` initial matrix and is updated
    in place.
    """
    options = solver.options
    batch = solver.batch
    assembler = _NewtonAssembler(solver)
    free = assembler.free_rows
    resolved = resolve_newton_method(options, assembler.n_free, batch)

    converged = np.zeros(batch, dtype=bool)
    failed = np.zeros(batch, dtype=bool)
    iterations = np.zeros(batch, dtype=int)
    max_update = np.full(batch, np.inf)

    if assembler.n_free == 0:
        # No free nodes: nothing to solve (mirrors a zero-update GS sweep).
        converged[:] = True
        max_update[:] = 0.0
    else:
        if resolved == "newton-sparse":
            from repro.spice.sparse import SparseNewtonBackend

            backend: SparseNewtonBackend | _DenseNewtonBackend = (
                SparseNewtonBackend(assembler)
            )
        else:
            backend = _DenseNewtonBackend(assembler)

        initial = voltages.copy()  # fallback columns restart from here
        lo_limit = solver._lo_limit

        for iteration in range(1, options.newton_max_iterations + 1):
            active = np.flatnonzero(~converged & ~failed)
            if active.size == 0:
                break
            whole = active.size == batch
            packed = solver.packed if whole else solver.packed.take_columns(active)
            injection = assembler.injection[:, active]
            hi_limit = solver._hi_limit[active]
            v_active = voltages[:, active]

            residual, step, singular = backend.steps(
                packed, v_active, injection
            )
            norm = np.sqrt(np.sum(residual * residual, axis=0))
            bad = singular | ~np.isfinite(step).all(axis=0) | ~np.isfinite(norm)
            step[:, bad] = 0.0
            raw_size = np.abs(step).max(axis=0)

            v_free = v_active[free]
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
            # pass succeeds whenever the Jacobian is sound; only genuinely
            # rootless/degenerate columns proceed to the fallback.
            rescue = ~accepted & ~bad & (raw_size > options.newton_step_limit)
            if rescue.any():
                scale = options.newton_step_limit / np.where(
                    raw_size > 0.0, raw_size, 1.0
                )
                line_search(step * scale, rescue)

            applied = np.flatnonzero(accepted)
            absolute = active[applied]
            voltages[np.ix_(free, absolute)] = new_free[:, applied]
            iterations[active] = iteration
            max_update[absolute] = np.abs(
                new_free[:, applied] - v_free[:, applied]
            ).max(axis=0)
            converged[active[small]] = True
            failed[active[~accepted]] = True

        # Whatever is still open after the iteration budget falls back too.
        failed |= ~converged & ~failed

        fallback = failed
        sweeps = np.zeros(batch, dtype=int)
        if fallback.any():
            columns = np.flatnonzero(fallback)
            voltages[:, columns] = initial[:, columns]
            gs_converged, gs_sweeps, gs_update = solver._solve_gauss_seidel(
                voltages, columns=columns
            )
            converged[columns] = gs_converged
            sweeps[columns] = gs_sweeps
            max_update[columns] = gs_update

        return BatchedOperatingPoint(
            node_index=solver.node_index,
            voltages=voltages,
            temperature_k=solver.temperature_k,
            converged=converged,
            sweeps=np.where(fallback, sweeps, iterations),
            max_update=max_update,
            method=resolved,
            newton_iterations=iterations,
            fallback=fallback,
        )

    return BatchedOperatingPoint(
        node_index=solver.node_index,
        voltages=voltages,
        temperature_k=solver.temperature_k,
        converged=converged,
        sweeps=iterations,
        max_update=max_update,
        method=resolved,
        newton_iterations=iterations,
        fallback=failed,
    )
