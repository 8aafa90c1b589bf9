"""Batched campaign evaluation over a :class:`CompiledCircuit`.

One call of :func:`run_compiled` answers an entire vector set:

1. logic values propagate for all vectors at once — per logic level one
   gather + truth-table lookup updates a ``(net, vector)`` bit matrix;
2. per-pin injections are gathered from the compiled LUT arrays and
   summed per net in pin order, the order ``np.add.at`` would use;
3. per-pin loading currents (input loading excludes the injection of *all*
   of the gate's own pins on the net — a gate never loads itself, even with
   tied inputs — and primary-input nets are ideal) feed a batched piecewise-linear
   interpolation over the characterized response curves — the vectorized
   equivalent of the scalar per-pin ``np.interp`` calls — that gathers only
   the two grid points bracketing each lookup;
4. per-gate components are clamped at zero and summed into circuit totals.

The arithmetic matches the per-gate walk's lookup path step for step
(zero loading contributes an exactly-zero delta, per-gate clamping happens
before circuit accumulation), so batched totals agree with the oracle
:class:`repro.oracle.PerGateEstimator` to rounding error — the regression
tests pin the two paths against each other.

Vectors are processed in bounded chunks so peak *temporary* memory stays
flat; the per-gate output arrays still scale with the vector count, which is
why the exhaustive search of :mod:`repro.optimize` scores its ``2**n``
candidates through the totals-only :func:`run_totals` one chunk at a time
and keeps only the running minimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.engine.compile import N_COMPONENTS, CompiledCircuit, GateTypeTable
from repro.gates.lut import enforce_injection_range
from repro.spice.analysis import ComponentBreakdown

#: Vector-chunk size bounding the engine's peak memory (the widest per-chunk
#: temporary is one gate type's gathered bracketing pairs:
#: gates x chunk x pins x 2 x 3).
DEFAULT_CHUNK_SIZE = 512


@dataclass
class BatchedCampaignRun:
    """Raw arrays of one batched campaign over a compiled circuit.

    Attributes
    ----------
    compiled:
        The compiled circuit the run was evaluated on.
    method:
        Estimation method label (``loading-aware`` / ``no-loading``).
    assignments:
        The evaluated primary-input assignments, in order.
    per_gate:
        ``(n_gates, n_vectors, 3)`` clamped leakage components (A).
    vec_index:
        ``(n_gates, n_vectors)`` packed input vector of every gate.
    input_loading / output_loading:
        ``(n_gates, n_vectors)`` summed loading currents attributed to each
        gate's input pins / output net (zero for no-loading runs).
    runtime_s:
        Wall-clock of the batched evaluation (compile time excluded).
    """

    compiled: CompiledCircuit
    method: str
    assignments: list[dict[str, int]]
    per_gate: np.ndarray
    vec_index: np.ndarray
    input_loading: np.ndarray
    output_loading: np.ndarray
    runtime_s: float

    @property
    def vector_count(self) -> int:
        """Return the number of evaluated vectors."""
        return len(self.assignments)

    def component_totals(self) -> dict[str, np.ndarray]:
        """Return circuit totals per vector for every report component."""
        sums = self.per_gate.sum(axis=0)
        totals = {
            "subthreshold": sums[:, 0],
            "gate": sums[:, 1],
            "btbt": sums[:, 2],
        }
        totals["total"] = sums.sum(axis=1)
        return totals

    def report(self, v: int) -> CircuitLeakageReport:
        """Materialize the full scalar-compatible report of vector ``v``."""
        compiled = self.compiled
        per_gate: dict[str, GateLeakage] = {}
        for g, name in enumerate(compiled.gate_names):
            table = compiled.table_of_gate(g)
            per_gate[name] = GateLeakage(
                gate_name=name,
                gate_type_name=table.name,
                vector=compiled.unpack_vector(g, self.vec_index[g, v]),
                breakdown=ComponentBreakdown(
                    subthreshold=float(self.per_gate[g, v, 0]),
                    gate=float(self.per_gate[g, v, 1]),
                    btbt=float(self.per_gate[g, v, 2]),
                ),
                input_loading=float(self.input_loading[g, v]),
                output_loading=float(self.output_loading[g, v]),
            )
        count = max(self.vector_count, 1)
        return CircuitLeakageReport(
            circuit_name=compiled.circuit.name,
            method=self.method,
            input_assignment=dict(self.assignments[v]),
            per_gate=per_gate,
            temperature_k=compiled.temperature_k,
            vdd=compiled.vdd,
            metadata={
                "runtime_s": self.runtime_s / count,
                "gate_count": compiled.n_gates,
                "engine": "batched",
            },
        )


class LazyReports(Sequence):
    """Sequence view materializing :class:`CircuitLeakageReport` on demand.

    Campaign statistics read circuit totals straight from the run arrays;
    the full per-gate reports are only built (and memoized) when code
    actually indexes into ``campaign.reports`` — e.g. the cross-check tests
    comparing batched and scalar per-gate breakdowns.
    """

    def __init__(self, run: BatchedCampaignRun) -> None:
        self._run = run
        self._cache: dict[int, CircuitLeakageReport] = {}

    def __len__(self) -> int:
        return self._run.vector_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        report = self._cache.get(index)
        if report is None:
            report = self._run.report(index)
            self._cache[index] = report
        return report


def run_compiled(
    compiled: CompiledCircuit,
    assignments: list[dict[str, int]],
    include_loading: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> BatchedCampaignRun:
    """Evaluate every assignment on a compiled circuit in array passes."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    start = time.perf_counter()
    assignments = list(assignments)
    pi_bits = compiled.validate_assignments(assignments)
    n_vectors = len(assignments)

    per_gate = np.zeros((compiled.n_gates, n_vectors, 3))
    vec_index = np.zeros((compiled.n_gates, n_vectors), dtype=np.int64)
    input_loading = np.zeros((compiled.n_gates, n_vectors))
    output_loading = np.zeros((compiled.n_gates, n_vectors))

    for lo in range(0, n_vectors, chunk_size):
        hi = min(lo + chunk_size, n_vectors)
        _run_chunk(
            compiled,
            pi_bits[:, lo:hi],
            include_loading,
            per_gate[:, lo:hi],
            vec_index[:, lo:hi],
            input_loading[:, lo:hi],
            output_loading[:, lo:hi],
        )

    return BatchedCampaignRun(
        compiled=compiled,
        method="loading-aware" if include_loading else "no-loading",
        assignments=assignments,
        per_gate=per_gate,
        vec_index=vec_index,
        input_loading=input_loading,
        output_loading=output_loading,
        runtime_s=time.perf_counter() - start,
    )


def run_totals(
    compiled: CompiledCircuit,
    pi_bits: np.ndarray,
    include_loading: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Return the circuit total leakage (A) per vector of a bit matrix.

    ``pi_bits`` is a ``(n_primary_inputs, n_vectors)`` 0/1 matrix whose rows
    follow ``compiled.circuit.primary_inputs`` order — the same layout
    :meth:`CompiledCircuit.validate_assignments` produces.  This is the
    totals-only fast path of :func:`run_compiled` for callers that never
    materialize reports (the vector-search optimizers of
    :mod:`repro.optimize` evaluate whole candidate populations through it):
    per-gate outputs live only per chunk, so peak memory is bounded by
    ``chunk_size`` regardless of how many candidates are asked about.

    Each vector's total is computed column-independently (every array pass
    reduces over gates/pins, never across vectors), so results are bitwise
    identical whatever the batch composition or chunking — the property the
    optimizers' serial-vs-island reproducibility contract rests on.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    pi_bits = np.ascontiguousarray(pi_bits, dtype=np.uint8)
    n_pi = len(compiled.circuit.primary_inputs)
    if pi_bits.ndim != 2 or pi_bits.shape[0] != n_pi:
        raise ValueError(
            f"pi_bits must have shape (n_primary_inputs={n_pi}, n_vectors), "
            f"got {pi_bits.shape}"
        )
    if pi_bits.size and pi_bits.max() > 1:
        raise ValueError("pi_bits entries must be 0 or 1")
    n_vectors = pi_bits.shape[1]
    totals = np.zeros(n_vectors)
    for lo in range(0, n_vectors, chunk_size):
        hi = min(lo + chunk_size, n_vectors)
        n = hi - lo
        per_gate = np.zeros((compiled.n_gates, n, 3))
        vec_index = np.zeros((compiled.n_gates, n), dtype=np.int64)
        # Distinct throwaway loading buffers: _run_chunk currently only
        # writes them, but sharing one array would silently break if a
        # future change ever reads or accumulates across the two.
        input_loading = np.zeros((compiled.n_gates, n))
        output_loading = np.zeros((compiled.n_gates, n))
        _run_chunk(
            compiled,
            pi_bits[:, lo:hi],
            include_loading,
            per_gate,
            vec_index,
            input_loading,
            output_loading,
        )
        # Same reduction order as BatchedCampaignRun.component_totals
        # (gates first, then components) so the two paths agree bitwise.
        totals[lo:hi] = per_gate.sum(axis=0).sum(axis=1)
    return totals


def _run_chunk(
    compiled: CompiledCircuit,
    pi_bits: np.ndarray,
    include_loading: bool,
    per_gate: np.ndarray,
    vec_index: np.ndarray,
    input_loading: np.ndarray,
    output_loading: np.ndarray,
) -> None:
    """Evaluate one vector chunk, writing into the output array slices."""
    n_vectors = pi_bits.shape[1]

    # 1. propagate logic values as a (net, vector) bit matrix -------------- #
    # The extra last row is the always-zero net padding narrow gates.
    net_values = np.zeros((compiled.n_nets + 1, n_vectors), dtype=np.uint8)
    net_values[compiled.pi_indices] = pi_bits
    for level in compiled.levels:
        packed = (net_values[level.input_nets] * level.weights).sum(axis=1)  # (n, V)
        vec_index[level.gates] = packed
        net_values[level.output_nets] = compiled.truth[packed + level.truth_offset]

    packed_of = [vec_index[group.gate_indices] for group in compiled.type_groups]
    if not include_loading:
        for group, packed in zip(compiled.type_groups, packed_of):
            table = compiled.tables[group.type_index]
            per_gate[group.gate_indices] = np.maximum(table.nominal[packed], 0.0)
        return

    # 2. per-pin injections, accumulated per net -------------------------- #
    pin_injection = np.zeros((compiled.n_pins, n_vectors))
    for group, packed in zip(compiled.type_groups, packed_of):
        table = compiled.tables[group.type_index]
        inj = table.pin_injection[packed]  # (n, V, k)
        pin_injection[group.pin_slice] = np.swapaxes(inj, 1, 2).reshape(
            -1, n_vectors
        )
    net_injection = _accumulate(compiled.net_rounds, pin_injection, compiled.n_nets)

    # 3. per-pin loading: everyone else's injection on my net -------------- #
    # "Everyone else" excludes every pin of the pin's own gate on that net,
    # not just the pin itself: with tied inputs the (gate, net) group sum
    # keeps a gate from loading itself through its other pin (mirrors the
    # per-gate walk's own-injection subtraction).  Without tied inputs
    # every group holds one pin and the group sum IS the pin injection, so
    # the common case skips the second accumulation.
    if compiled.has_tied_inputs:
        own_injection = _accumulate(
            compiled.group_rounds, pin_injection, compiled.n_pin_groups
        )
        pin_loading = (
            net_injection[compiled.pin_net] - own_injection[compiled.pin_group]
        )
    else:
        pin_loading = net_injection[compiled.pin_net] - pin_injection
    pin_loading[compiled.pin_on_pi] = 0.0

    # 4. LUT lookup per (gate, pin), clamped accumulation ------------------ #
    for group, packed in zip(compiled.type_groups, packed_of):
        table = compiled.tables[group.type_index]
        n = group.gate_indices.size
        k = table.num_inputs
        loading = np.empty((k + 1, n, n_vectors))
        loading[:k] = pin_loading[group.pin_slice].reshape(n, k, n_vectors).transpose(1, 0, 2)
        loading[k] = net_injection[group.output_nets]

        components = _lookup_components(table, packed, loading)
        for c in range(N_COMPONENTS):
            per_gate[group.gate_indices, :, c] = components[c]
        input_loading[group.gate_indices] = loading[:k].sum(axis=0)
        output_loading[group.gate_indices] = loading[k]


def _lookup_components(
    table: GateTypeTable, packed: np.ndarray, loading: np.ndarray
) -> np.ndarray:
    """Return the clamped ``(3, n, V)`` leakage components of one type's gates.

    ``packed`` is the ``(n, V)`` packed input vector of every gate and
    ``loading`` the ``(k+1, n, V)`` loading current at every pin (input pins
    first, output pin last).  Arrays are pin-major and component-major,
    ``(3, k+1, n, V)``, so every pass runs over long contiguous rows.
    """
    k = table.num_inputs
    grid = table.grid
    inactive = loading == 0.0

    if not table.complete:
        missing = ~inactive & np.take(~table.has_response.T, packed, axis=1)
        if np.any(missing):
            # First offender in (gate, vector, pin) order.
            g_bad, v_bad, p_bad = np.argwhere(missing.transpose(1, 2, 0))[0]
            raise KeyError(
                f"pin index {int(p_bad)} of {table.name} has no characterized "
                f"response but sees a nonzero loading current"
            )

    # The same out-of-range policy as the oracle's per-record lookup: the
    # engine interpolates baked arrays directly, so it reports clamped
    # lookups itself (warn once per gate type and direction).  A zero
    # loading is no lookup, but the grid brackets zero (compile checks it),
    # so the extremes of all loadings are the extremes of the lookups.
    low, high = float(grid[0]), float(grid[-1])
    lowest, highest = float(loading.min()), float(loading.max())
    if lowest < low:
        enforce_injection_range(
            f"gate type {table.name!r}", lowest, low, high,
            dedup_key=("engine", table.name),
        )
    if highest > high:
        enforce_injection_range(
            f"gate type {table.name!r}", highest, low, high,
            dedup_key=("engine", table.name),
        )

    # Piecewise-linear interpolation with flat extrapolation (np.interp
    # semantics; a query on a grid point returns that exact sample).  Only
    # the pair of grid points bracketing each lookup is gathered.
    left = np.searchsorted(grid, loading, side="right")
    left -= 1
    np.clip(left, 0, grid.size - 2, out=left)
    x0 = grid[left]
    t = loading - x0
    t /= grid[left + 1] - x0
    np.clip(t, 0.0, 1.0, out=t)
    segments = grid.size - 1
    pin_offset = np.arange(k + 1)[:, None, None] * (segments << k)
    rows = packed * segments + pin_offset  # (pin, vector, segment) column
    rows += left
    pair = np.take(table.pairs, rows, axis=1)  # (6, k+1, n, V)
    v0, interpolated = pair[:N_COMPONENTS], pair[N_COMPONENTS:]
    interpolated -= v0  # in place: v0 + t * (v1 - v0)
    interpolated *= t
    interpolated += v0

    # A zero loading contributes an exactly-zero delta; components are
    # clamped at zero per gate before any circuit accumulation.
    nominal = np.take(table.nominal.T, packed, axis=1)  # (3, n, V)
    delta = interpolated
    delta -= nominal[:, None]
    np.copyto(delta, 0.0, where=inactive)
    components = delta.sum(axis=1)
    components += nominal
    return np.maximum(components, 0.0, out=components)


def _accumulate(
    rounds: list[tuple[np.ndarray, np.ndarray]], values: np.ndarray, n_rows: int
) -> np.ndarray:
    """Sum rows of ``values`` into ``n_rows`` targets, round by round.

    Equals ``np.add.at(zeros, targets, values)`` bitwise for the rounds of
    :func:`repro.engine.compile._accumulation_rounds`.
    """
    out = np.zeros((n_rows, values.shape[1]))
    for targets, sources in rounds:
        out[targets] += values[sources]
    return out
