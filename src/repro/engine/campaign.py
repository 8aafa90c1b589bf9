"""Batched campaign evaluation over a :class:`CompiledCircuit`.

One call of :func:`run_compiled` answers an entire vector set:

1. logic values propagate for all vectors at once — per logic level one
   gather + truth-table lookup updates a ``(net, vector)`` bit matrix;
2. per-pin injections are gathered from the compiled LUT arrays and
   summed per net in pin order, the order ``np.add.at`` would use;
3. the loading current of every (gate, pin) slot of the circuit's
   :class:`~repro.engine.compile.LookupPlan` (input loading excludes the
   injection of *all* of the gate's own pins on the net — a gate never
   loads itself, even with tied inputs — and primary-input nets are ideal)
   feeds one batched piecewise-linear interpolation over the concatenated
   response curves of every gate type — the vectorized equivalent of the
   scalar per-pin ``np.interp`` calls — that gathers only the two grid
   points bracketing each lookup.  It runs in tiles of consecutive gates
   sized by :data:`LOOKUP_TILE_ELEMENTS`, so a one-vector query is a single
   pass of array calls and a wide chunk still works within cache;
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
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.engine.compile import N_COMPONENTS, CompiledCircuit, LookupPlan
from repro.gates.lut import enforce_injection_range
from repro.spice.analysis import ComponentBreakdown

#: Vector-chunk size bounding the engine's peak memory.  The widest
#: per-chunk arrays are the per-slot loading currents and table rows,
#: (gates + pins) x chunk each; the lookup's temporaries are per tile.
DEFAULT_CHUNK_SIZE = 512

#: Slot x vector elements one lookup tile holds at most (a tile is at least
#: one gate).  2**16 keeps a tile's gathered pairs (6 x 8 bytes per
#: element) within a core's cache; 2**14 and 2**18 were both slower.
LOOKUP_TILE_ELEMENTS = 2**16


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
    :meth:`CompiledCircuit.validate_assignments` produces; any other shape
    or entry raises ``ValueError`` (:meth:`CompiledCircuit.validate_pi_bits`).
    This is the totals-only fast path of :func:`run_compiled` for callers
    that never materialize reports (the vector-search optimizers of
    :mod:`repro.optimize` evaluate whole candidate populations through it):
    per-gate outputs live only per chunk and no loading arrays are kept, so
    peak memory is bounded by ``chunk_size`` regardless of how many
    candidates are asked about.

    Each vector's total is computed column-independently (every array pass
    reduces over gates/pins, never across vectors), so results are bitwise
    identical whatever the batch composition or chunking — the property the
    optimizers' serial-vs-island reproducibility contract rests on.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    pi_bits = compiled.validate_pi_bits(pi_bits)
    n_vectors = pi_bits.shape[1]
    totals = np.zeros(n_vectors)
    for lo in range(0, n_vectors, chunk_size):
        hi = min(lo + chunk_size, n_vectors)
        n = hi - lo
        per_gate = np.empty((compiled.n_gates, n, 3))
        vec_index = np.empty((compiled.n_gates, n), dtype=np.int64)
        _run_chunk(compiled, pi_bits[:, lo:hi], include_loading, per_gate, vec_index)
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
    input_loading: np.ndarray | None = None,
    output_loading: np.ndarray | None = None,
) -> None:
    """Evaluate one vector chunk, writing into the output array slices.

    The loading arrays are filled only when given (totals-only passes
    skip them).
    """
    n_vectors = pi_bits.shape[1]

    # 1. propagate logic values as a (net, vector) bit matrix -------------- #
    # The extra last row is the always-zero net padding narrow gates.
    net_values = np.zeros((compiled.n_nets + 1, n_vectors), dtype=np.uint8)
    net_values[compiled.pi_indices] = pi_bits
    for level in compiled.levels:
        packed = (net_values[level.input_nets] * level.weights).sum(axis=1)  # (n, V)
        vec_index[level.gates] = packed
        net_values[level.output_nets] = compiled.truth[packed + level.truth_offset]

    plan = compiled.plan
    # Row gathers use np.take: fancy indexing pays per row at small widths.
    packed = np.take(vec_index, plan.gates, axis=0)  # (gates, V) in plan order
    if not include_loading:
        packed += plan.nominal_row[:, None]
        nominal = np.take(plan.nominal, packed, axis=1)  # (3, gates, V)
        per_gate[plan.gates] = np.maximum(nominal, 0.0, out=nominal).transpose(1, 2, 0)
        return

    # 2. per-slot injections (zero on output slots), accumulated per net --- #
    rows = plan.slot_rows(packed)
    injection = plan.pin_injection[rows]  # (slots, V)
    net_injection = _accumulate(compiled.net_rounds, injection, compiled.n_nets)

    # 3. per-slot loading: everyone else's injection on my net ------------- #
    # "Everyone else" excludes every pin of the slot's own gate on that net,
    # not just the pin itself: with tied inputs the (gate, net) group sum
    # keeps a gate from loading itself through its other pin (mirrors the
    # per-gate walk's own-injection subtraction).  Without tied inputs
    # every group holds one pin and the group sum IS the pin injection, so
    # the common case skips the second accumulation.  An output slot
    # injects nothing, so it reads its net's whole injection.
    if compiled.has_tied_inputs:
        own = _accumulate(compiled.group_rounds, injection, compiled.n_pin_groups + 1)
        own = np.take(own, compiled.slot_group, axis=0)
    else:
        own = injection
    loading = np.take(net_injection, compiled.slot_net, axis=0)
    loading -= own
    loading[compiled.slot_pi] = 0.0

    # 4. one LUT lookup over every slot, clamped per gate ------------------ #
    _lookup(plan, packed, rows, loading, per_gate)
    if input_loading is None or output_loading is None:
        return
    # Input pins summed position by position, i.e. in pin order.
    counts, offsets = plan.counts, plan.offsets
    inputs = loading[: counts[0]].copy()
    for p in range(1, len(counts) - 1):
        inputs[: counts[p + 1]] += loading[offsets[p] : offsets[p] + counts[p + 1]]
    input_loading[plan.gates] = inputs
    output_loading[plan.gates] = np.take(loading, plan.output_slot, axis=0)


def _lookup(
    plan: LookupPlan,
    packed: np.ndarray,
    rows: np.ndarray,
    loading: np.ndarray,
    per_gate: np.ndarray,
) -> None:
    """Write every gate's clamped components into ``per_gate`` (levelized order).

    ``packed`` is the ``(gates, V)`` packed input vector in plan order,
    ``rows`` the :meth:`LookupPlan.slot_rows` of it and ``loading`` the
    ``(slots, V)`` loading current of every slot.  The range checks see
    the whole chunk; the interpolation runs in tiles of consecutive plan
    gates holding at most :data:`LOOKUP_TILE_ELEMENTS` slot-vector
    elements (but at least one gate).
    """
    _check_lookups(plan, rows, loading)
    counts, offsets = plan.counts, plan.offsets
    n_gates, n_vectors = packed.shape
    nominal_rows = packed + plan.nominal_row[:, None]
    tile = max(1, LOOKUP_TILE_ELEMENTS // (n_vectors * len(counts)))
    for first in range(0, n_gates, tile):
        last = min(first + tile, n_gates)
        # The tile's slots at each position it reaches, as slot ranges.
        pieces = [
            (offset + first, offset + min(last, count))
            for offset, count in zip(offsets, counts)
            if count > first
        ]
        components = _interpolate(
            plan,
            nominal_rows[first:last],
            _gather(rows, pieces),
            _gather(loading, pieces),
            [stop - start for start, stop in pieces],
        )
        per_gate[plan.gates[first:last]] = components.transpose(1, 2, 0)


def _gather(array: np.ndarray, pieces: list[tuple[int, int]]) -> np.ndarray:
    """Return the rows of ``array`` in ``pieces``, a view when they adjoin."""
    if all(stop == start for (_, stop), (start, _) in zip(pieces, pieces[1:])):
        return array[pieces[0][0] : pieces[-1][1]]
    return np.concatenate([array[start:stop] for start, stop in pieces])


def _interpolate(
    plan: LookupPlan,
    nominal_rows: np.ndarray,
    rows: np.ndarray,
    loading: np.ndarray,
    sizes: list[int],
) -> np.ndarray:
    """Return the clamped ``(3, n, V)`` components of a tile of ``n`` gates.

    ``nominal_rows`` are the tile's ``(n, V)`` columns of ``plan.nominal``;
    ``rows`` and ``loading`` hold the tile's slots position by position,
    ``sizes[p]`` of them at position ``p`` (the tile's first gates).
    Arrays are component-major, ``(3, slots, V)``, so every pass runs over
    long contiguous rows.
    """
    grid = plan.grid
    segments = grid.size - 1
    inactive = loading == 0.0

    # Piecewise-linear interpolation with flat extrapolation (np.interp
    # semantics; a query on a grid point returns that exact sample).  A
    # search of the inner grid points finds np.interp's segment, already
    # clamped to the first and last, and only the pair of grid points
    # bracketing each lookup is gathered.
    left = np.searchsorted(grid[1:-1], loading, side="right")
    t = loading - grid[left]
    t /= np.diff(grid)[left]
    np.clip(t, 0.0, 1.0, out=t)
    columns = rows * segments
    columns += left
    pair = np.take(plan.pairs, columns, axis=1)  # (6, slots, V)
    v0, interpolated = pair[:N_COMPONENTS], pair[N_COMPONENTS:]
    interpolated -= v0  # in place: v0 + t * (v1 - v0)
    interpolated *= t
    interpolated += v0

    # A zero loading contributes an exactly-zero delta; the deltas add up
    # position by position (pin order), and components are clamped at zero
    # per gate before any circuit accumulation.
    nominal = np.take(plan.nominal, nominal_rows, axis=1)  # (3, n, V)
    delta = interpolated
    starts = list(accumulate(sizes, initial=0))
    for start, size in zip(starts, sizes):
        delta[:, start : start + size] -= nominal[:, :size]
    np.copyto(delta, 0.0, where=inactive)
    components = delta[:, : sizes[0]]
    for start, size in zip(starts[1:], sizes[1:]):
        components[:, :size] += delta[:, start : start + size]
    components += nominal
    return np.maximum(components, 0.0, out=components)


def _check_lookups(plan: LookupPlan, rows: np.ndarray, loading: np.ndarray) -> None:
    """Refuse missing responses and apply the out-of-range policy, per type.

    The same checks, in the same order, as one lookup per gate type in
    type order: a nonzero loading on a missing response raises
    ``KeyError`` (first offender in (gate, vector, pin) order), then
    :func:`enforce_injection_range` sees the type's lowest loading if it
    is below the grid and its highest if above.  The engine interpolates
    baked arrays directly, so it reports clamped lookups itself (warn once
    per gate type and direction).  A zero loading is no lookup, but the
    grid brackets zero (compile checks it), so the extremes of all
    loadings are the extremes of the lookups.  Per-type extremes are
    reduced only when a global one is out of range.
    """
    missing = None
    if not plan.complete:
        missing = (loading != 0.0) & ~plan.has_response[rows]
        if not missing.any():
            missing = None
    low, high = float(plan.grid[0]), float(plan.grid[-1])
    if missing is None and low <= loading.min() and loading.max() <= high:
        return
    # A run of one (position, type) is one contiguous stretch of the array.
    flat = loading.ravel()
    starts = plan.run_start * loading.shape[1]
    lowest = np.full(len(plan.tables), np.inf)
    highest = np.full(len(plan.tables), -np.inf)
    np.minimum.at(lowest, plan.run_type, np.minimum.reduceat(flat, starts))
    np.maximum.at(highest, plan.run_type, np.maximum.reduceat(flat, starts))
    for t, table in enumerate(plan.tables):
        first, last = plan.type_spans[t]
        if missing is not None:
            pins = plan.offsets[: table.num_inputs + 1]
            found = np.stack(
                [missing[offset + first : offset + last] for offset in pins], axis=-1
            )  # (gate, vector, pin)
            if found.any():
                pin = int(np.argwhere(found)[0][2])
                raise KeyError(
                    f"pin index {pin} of {table.name} has no characterized "
                    f"response but sees a nonzero loading current"
                )
        if lowest[t] < low:
            enforce_injection_range(
                f"gate type {table.name!r}", float(lowest[t]), low, high,
                dedup_key=("engine", table.name),
            )
        if highest[t] > high:
            enforce_injection_range(
                f"gate type {table.name!r}", float(highest[t]), low, high,
                dedup_key=("engine", table.name),
            )


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
