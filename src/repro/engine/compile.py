"""Circuit + library compilation for the batched campaign engine.

The gate-by-gate Fig. 13 walk (the oracle
:class:`repro.oracle.PerGateEstimator`) re-walks the gate-level netlist and
re-queries the characterized library for every single input vector.  For campaign workloads (Fig. 12 runs 100 vectors per circuit,
minimum-leakage-vector search evaluates hundreds to thousands) nearly all of
that work is vector-independent: the topological order, the pin wiring, and
the characterized LUT grids never change.  Compilation hoists it out:

* every gate type present in the circuit is flattened into a
  :class:`GateTypeTable` — truth table, nominal components, per-pin
  injections and per-pin response curves as dense NumPy arrays indexed by the
  packed input vector;
* every response curve is re-laid out as bracketing pairs, so a lookup
  gathers only the two grid points it interpolates between;
* the circuit is levelized and every level gets padded input-net, bit-weight
  and truth-table-offset arrays, so logic values propagate for a whole
  campaign at once with one bit-matrix gather per level;
* all receiver pins are laid out as flat arrays so per-net loading currents
  accumulate in a few duplicate-free array adds instead of a Python dict
  walk per vector.

The resulting :class:`CompiledCircuit` answers an entire vector set in a few
array passes (see :mod:`repro.engine.campaign`) and is cached per
(circuit structure, library) by :func:`compile_circuit`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.circuit.graph import levelize
from repro.circuit.netlist import Circuit
from repro.gates.characterize import GateLibrary
from repro.gates.lut import COMPONENT_NAMES

#: Number of leakage components tracked per gate (sub, gate, btbt).
N_COMPONENTS = len(COMPONENT_NAMES)


@dataclass(frozen=True)
class GateTypeTable:
    """Flattened characterization of one gate type (all input vectors).

    Attributes
    ----------
    name:
        Lowercase gate-type name.
    num_inputs:
        Number of input pins ``k``; tables are indexed by the packed vector
        ``sum(bit[i] << (k - 1 - i))`` (first pin is the most significant
        bit, matching :meth:`GateSpec.all_vectors` order).
    truth:
        ``(2**k,)`` output bit per packed vector.
    nominal:
        ``(2**k, 3)`` unloaded leakage components.
    pin_injection:
        ``(2**k, k)`` signed current each input pin injects into its net (A).
    grid:
        ``(G,)`` shared signed injection grid of the response curves.
    response:
        ``(2**k, k + 1, G, 3)`` leakage components versus injected current,
        per packed vector and per pin (input pins first, output pin last).
        Rows without a characterized response are zero-filled and flagged in
        ``has_response``.
    has_response:
        ``(2**k, k + 1)`` mask of characterized (vector, pin) responses.
    pairs:
        ``(6, (k + 1) * 2**k * (G - 1))`` bracketing pairs of ``response``,
        one column per (pin, packed vector, grid segment ``g``) in that
        order: rows 0-2 hold the three components at grid point ``g`` and
        rows 3-5 at ``g + 1``, so one gather fetches both ends of the
        segment a lookup interpolates on, one contiguous row per component.
    complete:
        True when every (vector, pin) has a response, so no lookup can
        miss one.
    """

    name: str
    num_inputs: int
    truth: np.ndarray
    nominal: np.ndarray
    pin_injection: np.ndarray
    grid: np.ndarray
    response: np.ndarray
    has_response: np.ndarray
    pairs: np.ndarray
    complete: bool


def _build_type_table(library: GateLibrary, gate_type_name: str) -> GateTypeTable:
    """Flatten every vector of one gate type into a :class:`GateTypeTable`."""
    spec = library.spec(gate_type_name)
    k = spec.num_inputs
    vectors = spec.all_vectors()
    n_vectors = len(vectors)
    pins = list(spec.inputs) + [spec.output]

    truth = np.zeros(n_vectors, dtype=np.uint8)
    nominal = np.zeros((n_vectors, N_COMPONENTS))
    pin_injection = np.zeros((n_vectors, k))
    has_response = np.zeros((n_vectors, len(pins)), dtype=bool)

    grid: np.ndarray | None = None
    curves: dict[tuple[int, int], np.ndarray] = {}
    for index, vector in enumerate(vectors):
        record = library.characterization(spec.gate_type, vector)
        truth[index] = spec.evaluate(vector)
        nominal[index] = record.nominal_array()
        for j, pin in enumerate(spec.inputs):
            pin_injection[index, j] = record.pin_injection[pin]
        for p, pin in enumerate(pins):
            curve = record.responses.get(pin)
            if curve is None:
                continue
            if grid is None:
                grid = curve.injections
            elif not np.array_equal(grid, curve.injections):
                raise ValueError(
                    f"engine requires a shared injection grid per gate type; "
                    f"{spec.name} vector {record.vector_label} pin {pin!r} differs"
                )
            curves[(index, p)] = curve.component_matrix()
            has_response[index, p] = True

    if grid is None:
        # No characterized responses at all (only possible with exotic
        # characterization options); keep a valid 2-point dummy grid.
        grid = np.array([-1.0, 1.0])
    if not grid[0] <= 0.0 <= grid[-1]:
        # A zero loading is no lookup; the campaign's range check relies
        # on it lying inside the grid (curve_grid() always contains 0.0).
        raise ValueError(
            f"engine requires an injection grid that brackets zero; "
            f"{spec.name} spans [{grid[0]:.3e}, {grid[-1]:.3e}] A"
        )
    response = np.zeros((n_vectors, len(pins), grid.size, N_COMPONENTS))
    for (index, p), matrix in curves.items():
        response[index, p] = matrix

    return GateTypeTable(
        name=spec.name,
        num_inputs=k,
        truth=truth,
        nominal=nominal,
        pin_injection=pin_injection,
        grid=np.asarray(grid, dtype=float),
        response=response,
        has_response=has_response,
        pairs=bracketing_pairs(response),
        complete=bool(has_response.all()),
    )


def _accumulation_rounds(targets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split ``np.add.at(out, targets, values)`` into duplicate-free rounds.

    Round ``r`` pairs every target with its ``r``-th source in source order,
    as ``(targets, sources)`` index arrays.  Adding the rounds one after the
    other into zeros sums each target's sources left to right, the order
    ``np.add.at`` uses, so the sums are bitwise the same; every round is a
    plain fancy-index add, which is much faster than ``np.add.at``.
    """
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets)
    rank = np.empty(targets.size, dtype=np.intp)
    rank[order] = np.arange(targets.size) - (np.cumsum(counts) - counts)[targets[order]]
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    for r in range(int(rank.max()) + 1 if rank.size else 0):
        sources = np.flatnonzero(rank == r)
        rounds.append((targets[sources], sources))
    return rounds


def bracketing_pairs(response: np.ndarray) -> np.ndarray:
    """Return the :attr:`GateTypeTable.pairs` layout of a response tensor."""
    by_pin = np.transpose(response, (3, 1, 0, 2))  # (3, k+1, 2**k, G)
    return np.concatenate(
        [by_pin[..., :-1].reshape(N_COMPONENTS, -1), by_pin[..., 1:].reshape(N_COMPONENTS, -1)]
    )


@dataclass(frozen=True)
class _Level:
    """Gates of one logic level, propagated with one gather.

    Levelized gate numbering makes a level's gates the contiguous range
    ``gates``.  ``input_nets`` pads every gate to the level's widest arity
    with the always-zero dummy net and ``weights`` holds each pin's bit
    weight (zero on padding), so the packed input vector of every gate is
    one weighted sum; ``truth_offset`` places each gate's row block in the
    concatenated truth table :attr:`CompiledCircuit.truth`.
    """

    gates: slice
    input_nets: np.ndarray
    weights: np.ndarray
    truth_offset: np.ndarray
    output_nets: np.ndarray


@dataclass(frozen=True)
class _GateGroup:
    """Gates of one type processed together (one gather per array pass).

    ``pin_slice`` addresses the group's input pins inside the compiled
    flat pin arrays (all ``len(gates) * k`` of them, gate-major).
    """

    type_index: int
    gate_indices: np.ndarray
    input_nets: np.ndarray
    output_nets: np.ndarray
    pin_slice: slice


class CompiledCircuit:
    """A circuit + characterized library flattened for batched evaluation.

    Instances are built by :func:`compile_circuit`; the heavy lifting of a
    campaign run lives in :meth:`repro.engine.campaign.run_compiled`, which
    consumes the arrays assembled here.
    """

    def __init__(
        self, circuit: Circuit, library: GateLibrary, lint: str = "raise"
    ) -> None:
        # Pre-flight: reject a malformed circuit (floating nets, cycles,
        # arity mismatches, ...) with the full structured finding list
        # before any table is built or solver touched.  ``lint="warn"``
        # downgrades to warnings, ``lint="off"`` restores the bare
        # ``validate()`` behavior.
        from repro.analysis import preflight_circuit

        preflight_circuit(circuit, lint=lint)
        circuit.validate()
        self.circuit = circuit
        self.vdd = library.vdd
        self.temperature_k = library.temperature_k

        # --- net numbering ------------------------------------------------ #
        self.net_names: list[str] = circuit.nets()
        self.net_index: dict[str, int] = {
            name: i for i, name in enumerate(self.net_names)
        }
        self.n_nets = len(self.net_names)
        self.pi_indices = np.array(
            [self.net_index[net] for net in circuit.primary_inputs], dtype=np.intp
        )
        self.pi_mask = np.zeros(self.n_nets, dtype=bool)
        self.pi_mask[self.pi_indices] = True

        # --- gate numbering (levelized order) ----------------------------- #
        levels = levelize(circuit)
        self.gate_names: list[str] = sorted(
            circuit.gates, key=lambda name: (levels[name], name)
        )
        gate_order = {name: g for g, name in enumerate(self.gate_names)}
        self.n_gates = len(self.gate_names)

        # --- per-type LUT tables ------------------------------------------ #
        type_names = sorted(
            {gate.gate_type.value for gate in circuit.gates.values()}
        )
        self.tables: list[GateTypeTable] = [
            _build_type_table(library, name) for name in type_names
        ]
        type_of = {table.name: t for t, table in enumerate(self.tables)}

        self.gate_type_index = np.zeros(self.n_gates, dtype=np.intp)
        self.gate_output_net = np.zeros(self.n_gates, dtype=np.intp)
        for name, gate in circuit.gates.items():
            g = gate_order[name]
            self.gate_type_index[g] = type_of[gate.gate_type.value]
            self.gate_output_net[g] = self.net_index[gate.output]

        # --- per-level logic arrays ---------------------------------------- #
        #: Concatenated truth tables of every type (row offsets per type).
        self.truth = np.concatenate([table.truth for table in self.tables])
        type_offset = np.cumsum([0] + [table.truth.size for table in self.tables])
        #: Row ``n_nets`` of the campaign's bit matrix is an always-zero net
        #: that pads the narrower gates of a level.
        dummy_net = self.n_nets
        by_level: dict[int, list[str]] = {}
        for name in self.gate_names:
            by_level.setdefault(levels[name], []).append(name)
        self.levels: list[_Level] = []
        first = 0
        for level in sorted(by_level):
            gates = [circuit.gates[name] for name in by_level[level]]
            width = max(len(gate.inputs) for gate in gates)
            input_nets = np.full((len(gates), width), dummy_net, dtype=np.intp)
            weights = np.zeros((len(gates), width, 1), dtype=np.int64)
            for row, gate in enumerate(gates):
                k = len(gate.inputs)
                input_nets[row, :k] = [self.net_index[net] for net in gate.inputs]
                weights[row, :k, 0] = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
            self.levels.append(
                _Level(
                    gates=slice(first, first + len(gates)),
                    input_nets=input_nets,
                    weights=weights,
                    truth_offset=type_offset[
                        self.gate_type_index[first : first + len(gates)]
                    ][:, None],
                    output_nets=self.gate_output_net[first : first + len(gates)],
                )
            )
            first += len(gates)

        # --- type groups for the LUT lookups ------------------------------ #
        by_type: dict[int, list[str]] = {}
        for name in self.gate_names:
            by_type.setdefault(type_of[circuit.gates[name].gate_type.value], []).append(
                name
            )
        self.type_groups: list[_GateGroup] = []
        pin_base = 0
        for t in sorted(by_type):
            names = by_type[t]
            k = self.tables[t].num_inputs
            count = len(names) * k
            self.type_groups.append(
                _GateGroup(
                    type_index=t,
                    gate_indices=np.array([gate_order[n] for n in names], dtype=np.intp),
                    input_nets=np.array(
                        [[self.net_index[net] for net in circuit.gates[n].inputs] for n in names],
                        dtype=np.intp,
                    ).reshape(len(names), k),
                    output_nets=np.array(
                        [self.net_index[circuit.gates[n].output] for n in names], dtype=np.intp
                    ),
                    pin_slice=slice(pin_base, pin_base + count),
                )
            )
            pin_base += count
        self.n_pins = pin_base

        #: Net index of every flat input pin (gate-major inside each group).
        self.pin_net = np.zeros(self.n_pins, dtype=np.intp)
        #: Gate index of every flat input pin.
        self.pin_gate = np.zeros(self.n_pins, dtype=np.intp)
        for group in self.type_groups:
            self.pin_net[group.pin_slice] = group.input_nets.reshape(-1)
            k = self.tables[group.type_index].num_inputs
            self.pin_gate[group.pin_slice] = np.repeat(group.gate_indices, k)
        #: Flat pins sitting on primary-input nets carry no loading.
        self.pin_on_pi = self.pi_mask[self.pin_net]
        #: Dense (gate, net) group id per flat pin: pins of one gate tied to
        #: one net share a group, so the loading computation can subtract a
        #: gate's *whole* own injection on the net (a gate must never appear
        #: as loading on itself, even with tied inputs).
        _, self.pin_group = np.unique(
            self.pin_gate * np.intp(self.n_nets) + self.pin_net, return_inverse=True
        )
        self.n_pin_groups = int(self.pin_group.max()) + 1 if self.n_pins else 0
        #: With no tied inputs every group holds exactly one pin and the
        #: campaign keeps the cheaper per-pin subtraction.
        self.has_tied_inputs = self.n_pin_groups != self.n_pins
        #: The per-net and per-group sums of pin injections, as rounds of
        #: duplicate-free adds (see :func:`_accumulation_rounds`).
        self.net_rounds = _accumulation_rounds(self.pin_net)
        self.group_rounds = (
            _accumulation_rounds(self.pin_group) if self.has_tied_inputs else []
        )

    # ------------------------------------------------------------------ #
    # queries used by campaign running and report materialization
    # ------------------------------------------------------------------ #
    def table_of_gate(self, g: int) -> GateTypeTable:
        """Return the LUT table of gate index ``g``."""
        return self.tables[self.gate_type_index[g]]

    def unpack_vector(self, g: int, packed: int) -> tuple[int, ...]:
        """Return the input-bit tuple of gate ``g`` for a packed vector."""
        k = self.table_of_gate(g).num_inputs
        return tuple((int(packed) >> (k - 1 - j)) & 1 for j in range(k))

    def validate_assignments(
        self, assignments: list[dict[str, int]]
    ) -> np.ndarray:
        """Return the primary-input bit matrix ``(n_pi, n_vectors)``.

        Mirrors the checks of :func:`repro.circuit.logic.propagate`: every
        primary input must be assigned and no extra nets may appear.
        """
        pi_set = set(self.circuit.primary_inputs)
        bits = np.zeros((len(pi_set), len(assignments)), dtype=np.uint8)
        for v, assignment in enumerate(assignments):
            missing = [pi for pi in self.circuit.primary_inputs if pi not in assignment]
            if missing:
                raise KeyError(f"unassigned primary inputs: {missing[:10]}")
            extra = [net for net in assignment if net not in pi_set]
            if extra:
                raise KeyError(f"assignment names non-primary-input nets: {extra[:10]}")
            for i, pi in enumerate(self.circuit.primary_inputs):
                bits[i, v] = 1 if assignment[pi] else 0
        return bits


def _fingerprint(circuit: Circuit) -> tuple:
    """Return a structural key of ``circuit`` (stable across copies)."""
    return (
        circuit.name,
        tuple(circuit.primary_inputs),
        tuple(
            (gate.name, gate.gate_type.value, gate.inputs, gate.output)
            for gate in circuit.gates.values()
        ),
    )


#: Default entry bound of a :class:`CompileCache`.  Compiled circuits carry
#: dense response tensors (every gate type's full (vector, pin, grid, 3)
#: table), so the bound exists to keep a long-lived session from growing
#: without limit — 128 distinct (circuit, library) pairs is far beyond any
#: current workload while still capping worst-case memory.
DEFAULT_COMPILE_CACHE_SIZE = 128


@dataclass(frozen=True)
class CompileCacheInfo:
    """Counters of one :class:`CompileCache` (``functools.cache_info`` style).

    ``hits``/``misses`` count lookups, ``evictions`` counts entries dropped
    — by the LRU bound or because their library was garbage-collected — and
    ``entries``/``maxsize`` describe the current occupancy.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    maxsize: int

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dict (stats/JSON surfaces)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "maxsize": self.maxsize,
        }


class CompileCache:
    """Bounded LRU of :class:`CompiledCircuit` keyed by (library, structure).

    The cache the sessions of :mod:`repro.service` are built around: a
    long-lived object owning the compiled-circuit store that used to be a
    module-level detail, with ``cache_info()`` counters so its behavior is
    observable.  Keys pair the *identity* of a :class:`GateLibrary` (held
    weakly — dropping a library frees its compiled circuits) with the
    structural circuit fingerprint, so structural copies share one entry.

    All operations are serialized by an internal lock, including the
    compile itself: concurrent lookups of the same key must not
    characterize the same (gate type, vector) twice through
    ``GateLibrary``'s non-thread-safe lazy cache, and a compile is far too
    expensive to risk duplicating.  This is what lets the coalescing
    front-end of :class:`repro.service.EstimationSession` accept requests
    from many threads.
    """

    def __init__(self, maxsize: int = DEFAULT_COMPILE_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self._maxsize = int(maxsize)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[int, tuple], CompiledCircuit] = OrderedDict()
        #: Keep one weak reference per live library so its entries are
        #: purged when the library is collected (the old WeakKeyDictionary
        #: semantics, preserved under the flat LRU keying).
        self._library_refs: dict[int, weakref.ref] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> int:
        """Return the LRU entry bound."""
        return self._maxsize

    def cache_info(self) -> CompileCacheInfo:
        """Return a snapshot of the hit/miss/eviction/occupancy counters."""
        with self._lock:
            return CompileCacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                maxsize=self._maxsize,
            )

    def get_or_compile(
        self, circuit: Circuit, library: GateLibrary, lint: str = "raise"
    ) -> CompiledCircuit:
        """Return the cached compile of ``(circuit, library)``, building it once.

        A hit returns the previously linted instance as-is; a miss compiles
        under the cache lock (see the class docstring for why) and may
        evict the least-recently-used entry once the bound is reached.
        """
        key = (id(library), _fingerprint(circuit))
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return compiled
            self._misses += 1
            compiled = CompiledCircuit(circuit, library, lint=lint)
            self._remember_library(library)
            self._entries[key] = compiled
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            return compiled

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._library_refs.clear()
            self._hits = self._misses = self._evictions = 0

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _remember_library(self, library: GateLibrary) -> None:
        """Register a purge-on-collect weak reference for ``library``."""
        library_id = id(library)
        if library_id in self._library_refs:
            return

        def _purge(_ref: weakref.ref, cache: "CompileCache" = self) -> None:
            with cache._lock:
                cache._library_refs.pop(library_id, None)
                stale = [k for k in cache._entries if k[0] == library_id]
                for k in stale:
                    del cache._entries[k]
                    cache._evictions += 1

        self._library_refs[library_id] = weakref.ref(library, _purge)


#: Process-default compile cache shared by :func:`compile_circuit` callers
#: and :func:`repro.service.default_session`, so legacy direct compiles and
#: session-routed estimation hit the same warm entries.
_DEFAULT_CACHE = CompileCache()


def default_compile_cache() -> CompileCache:
    """Return the process-default :class:`CompileCache`."""
    return _DEFAULT_CACHE


def compile_circuit(
    circuit: Circuit, library: GateLibrary, lint: str = "raise"
) -> CompiledCircuit:
    """Return the process-default cache's compile of ``(circuit, library)``.

    The cache key is the circuit *structure* (name, primary inputs, gate
    list), so structural copies reuse the same compiled arrays.  Compiling
    characterizes every input vector of every gate type present in the
    circuit — the one-time "characterize once, answer campaigns as lookups"
    cost.  A fresh compile (e.g. after mutating a library's records in
    place) is ``CompiledCircuit(circuit, library)``; another cache answers
    through its own :meth:`CompileCache.get_or_compile`.

    ``lint`` is the netlist pre-flight policy
    (:func:`repro.analysis.preflight_circuit`): ``"raise"`` (default)
    rejects malformed circuits with a structured
    :class:`~repro.analysis.NetlistLintError` before any compilation work,
    ``"warn"`` downgrades findings to warnings, ``"off"`` skips linting.
    The pre-flight runs when a circuit is actually compiled; a cache hit
    returns the previously linted instance as-is.
    """
    return _DEFAULT_CACHE.get_or_compile(circuit, library, lint=lint)


def clear_compile_cache() -> None:
    """Drop every entry of the default cache and reset its counters."""
    _DEFAULT_CACHE.clear()
