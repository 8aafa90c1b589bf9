"""Sparse linear-algebra backend for the batched damped-Newton solver.

This module implements the ``"newton-sparse"`` backend of
:func:`repro.spice.newton.solve_newton`, which it picks for systems at or
above :attr:`~repro.spice.solver.SolverOptions.newton_sparse_threshold`
free nodes.  The dense backend materializes a
``(columns, N, N)`` Jacobian stack — 200 MB per column at N = 5,000 free
nodes, before LAPACK's O(N³) factorization even starts — which makes it a
hard wall at ISCAS scale.  Circuit Jacobians are, however, extremely
sparse: node *i* couples to node *j* only where a transistor touches both,
so the number of structural nonzeros grows linearly with the transistor
count (a handful of entries per row regardless of N).

:class:`SparseNewtonBackend` exploits exactly that:

* **One shared sparsity pattern.**  The scatter triplets that
  :class:`repro.spice.newton._NewtonAssembler` precomputes for the dense
  path (``jac_target`` = flattened ``(fi, fj)`` coordinates,
  ``jac_source`` = flattened device-derivative index) double as COO
  coordinates.  The constructor deduplicates them once into a CSC pattern
  — ``indices``/``indptr`` plus an ``entry_slot`` map taking each device
  triplet to its CSC slot — because the circuit *topology* is shared by
  every Newton iteration and every batch column.  Per iteration only the
  numeric values change: one ``np.add.at`` scatter fills the ``(nnz,
  columns)`` value block for all columns at once.
* **SuperLU per column.**  Each column's matrix is factorized
  independently with :func:`scipy.sparse.linalg.splu` (CSC is SuperLU's
  native layout; the column ordering is recomputed from the same pattern
  with the same fixed ``permc_spec``, so it is identical for every
  column).  Per-column factorization is what preserves the solver's
  bitwise batch-composition invariance — a column's step never depends on
  which other columns share the batch — and exactly singular columns are
  reported through the same ``singular`` flag the dense backend uses, so
  the shared globalization loop hands them to the Gauss–Seidel fallback
  unchanged.
* **A symmetric ordering.**  The pattern is structurally symmetric with a
  full diagonal: free node *i* couples to free node *j* exactly where one
  transistor touches both, and every free node carries its own
  conductance.  That is the case KLU orders with a symmetric minimum
  degree on the pattern of A+Aᵀ (Davis & Palamadai Natarajan, "Algorithm
  907: KLU", ACM TOMS 37(3), 2010), so the pinned ordering is SuperLU's
  ``MMD_AT_PLUS_A``.  COLAMD, SuperLU's default, orders the columns of an
  unsymmetric A and fills far more on these matrices.  First Newton
  Jacobian of each circuit (``benchmarks/bench_sparse_crossover.py``):

  ===========  ==========  ===========  =============  ===============
  circuit      free nodes  L+U, COLAMD  L+U, A+Aᵀ MMD  factorize (ms)
  ===========  ==========  ===========  =============  ===============
  alu88               490        3,558          2,829     0.54 → 0.41
  s838                984       40,145         15,022     4.33 → 2.43
  synth600          1,363       99,723         28,508    10.72 → 4.47
  synth2400         5,395    1,877,258        377,461   591.7 → 70.7
  ===========  ==========  ===========  =============  ===============

Memory is O(nnz · columns) for the values plus SuperLU's fill-in — on
layered logic netlists a few dozen bytes per transistor per column — so
systems far beyond the dense wall stay cheap.  The trade-off is the
per-column Python-loop factorization, which loses to one batched LAPACK
call on small systems; the backend rule in
:func:`repro.spice.newton.resolve_newton_method` keeps the characterizer's
cells, and any system below the measured crossover of
:attr:`~repro.spice.solver.SolverOptions.newton_sparse_threshold` free
nodes, on the dense path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.spice.newton import _NewtonAssembler

#: Fixed SuperLU column-permutation strategy: minimum degree on the
#: pattern of A+Aᵀ, because circuit Jacobians are structurally symmetric
#: with a full diagonal (see the module docstring's fill table).  Pinning
#: it makes the factorization a pure function of the (shared) sparsity
#: pattern and the column's values, keeping solves reproducible across
#: SciPy defaults.
_PERMC_SPEC = "MMD_AT_PLUS_A"


class SparseNewtonBackend:
    """CSC/SuperLU backend (``"newton-sparse"``).

    Mirrors the ``steps`` interface of
    :class:`repro.spice.newton._DenseNewtonBackend`; see the module
    docstring for the scheme.
    """

    name = "newton-sparse"

    __slots__ = ("assembler", "nnz", "indices", "indptr", "entry_slot")

    def __init__(self, assembler: _NewtonAssembler) -> None:
        self.assembler = assembler
        n = assembler.n_free
        # jac_target encodes row-major (fi, fj); re-key column-major so the
        # sorted unique keys enumerate entries in CSC order.
        fi = assembler.jac_target // n
        fj = assembler.jac_target % n
        keys, entry_slot = np.unique(fj * n + fi, return_inverse=True)
        self.nnz = int(keys.size)
        self.entry_slot = entry_slot
        self.indices = np.ascontiguousarray(keys % n)  # CSC row indices
        self.indptr = np.searchsorted(
            keys // n, np.arange(n + 1)
        )  # CSC column pointers

    def steps(
        self, packed, voltages: np.ndarray, injection: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One linearization: ``(residual, step, singular)`` per column.

        Same contract as
        :meth:`repro.spice.newton._DenseNewtonBackend.steps`: ``residual``
        and ``step`` are ``(N, columns)``, ``singular`` flags columns whose
        factorization failed (their step is 0 and the globalization loop
        routes them to the Gauss–Seidel fallback).
        """
        assembler = self.assembler
        g, d, s, b = (voltages[r] for r in assembler.rows)
        currents, flat = packed.kcl_jacobian_flat(g, d, s, b)
        columns = g.shape[1]

        # Column-major so each column's value vector is contiguous for the
        # zero-copy csc_matrix construction below.
        data = np.zeros((self.nnz, columns), order="F")
        np.add.at(data, self.entry_slot, flat[assembler.jac_source])
        residual = (
            assembler._scatter_currents(currents, g.shape) - injection
        )

        n = assembler.n_free
        step = np.zeros((n, columns))
        singular = np.zeros(columns, dtype=bool)
        for k in range(columns):
            values = data[:, k]
            if not np.isfinite(values).all():
                singular[k] = True
                continue
            matrix = csc_matrix(
                (values, self.indices, self.indptr), shape=(n, n)
            )
            try:
                step[:, k] = splu(matrix, permc_spec=_PERMC_SPEC).solve(
                    -residual[:, k]
                )
            except RuntimeError:  # SuperLU: factor is exactly singular
                singular[k] = True
        return residual, step, singular
