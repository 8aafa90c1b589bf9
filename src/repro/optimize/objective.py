"""Batched leakage objective for the vector-search optimizers.

The optimizers of :mod:`repro.optimize.search` never look at individual
reports — they only need the circuit total of whole candidate *populations*.
:class:`LeakageObjective` wraps a :class:`~repro.engine.compile.CompiledCircuit`
behind exactly that interface: candidates are 0/1 bit rows (one row per
candidate, columns in ``circuit.primary_inputs`` order) and one call answers
the entire population through :func:`repro.engine.campaign.run_totals` — one
leakage evaluation per batch, not per vector.

The objective also owns the evaluation ledger.  Every optimizer result
reports how many candidate vectors it charged to the objective, which is the
budget currency the optimizer-vs-random benchmarks compare at ("equal
evaluation budget" means equal ledger totals, nothing hidden).
"""

from __future__ import annotations

import numpy as np

from repro.engine.campaign import DEFAULT_CHUNK_SIZE, run_totals
from repro.engine.compile import CompiledCircuit


class LeakageObjective:
    """Total circuit leakage of candidate input vectors, answered in batches.

    Parameters
    ----------
    compiled:
        The compiled circuit (carries the characterized LUT arrays; no
        library reference, so instances ship cleanly to worker processes).
    include_loading:
        Whether candidates are scored with the loading-aware totals
        (default) or the traditional no-loading accumulation.
    chunk_size:
        Peak-memory bound forwarded to :func:`run_totals`; never changes
        results (totals are bitwise chunking-independent).
    lint:
        Netlist pre-flight policy (:func:`repro.analysis.preflight_circuit`)
        applied to the compiled circuit at construction.  Compiled circuits
        are normally linted at compile time already; the knob exists so an
        objective built around a hand-assembled or cache-restored
        :class:`CompiledCircuit` gets the same edge check (``"off"`` skips).
    """

    def __init__(
        self,
        compiled: CompiledCircuit,
        include_loading: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lint: str = "raise",
    ) -> None:
        from repro.analysis import preflight_circuit

        preflight_circuit(compiled.circuit, lint=lint)
        self.compiled = compiled
        self.include_loading = include_loading
        self.chunk_size = chunk_size
        self.evaluations = 0

    @property
    def n_inputs(self) -> int:
        """Return the number of primary inputs (candidate bit width)."""
        return len(self.compiled.circuit.primary_inputs)

    def totals(self, bits: np.ndarray) -> np.ndarray:
        """Return the total leakage (A) of each candidate row of ``bits``.

        ``bits`` is ``(n_candidates, n_inputs)`` with 0/1 entries; the whole
        population is one :func:`run_totals` array pass.  The call charges
        ``n_candidates`` to :attr:`evaluations`.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n_inputs:
            raise ValueError(
                f"bits must have shape (n_candidates, {self.n_inputs}), "
                f"got {bits.shape}"
            )
        # Validate before the uint8 cast: casting would silently truncate
        # e.g. a float 0.9 to 0 and score a different vector than asked.
        if bits.size and np.any((bits != 0) & (bits != 1)):
            raise ValueError("candidate bits must be exactly 0 or 1")
        bits = bits.astype(np.uint8)
        self.evaluations += bits.shape[0]
        return run_totals(
            self.compiled,
            bits.T,
            include_loading=self.include_loading,
            chunk_size=self.chunk_size,
        )

    def assignment(self, bits: np.ndarray) -> dict[str, int]:
        """Return the primary-input assignment dict of one candidate row."""
        bits = np.asarray(bits).reshape(-1)
        if bits.size != self.n_inputs:
            raise ValueError(
                f"candidate has {bits.size} bits, circuit has {self.n_inputs} inputs"
            )
        return {
            net: int(bit)
            for net, bit in zip(self.compiled.circuit.primary_inputs, bits)
        }
