"""Gate leakage characterization under loading.

This module produces the lookup tables the circuit-level estimator consumes.
For every (gate type, input vector) it builds a small characterization cell:

* the device under test (DUT), built from the transistor templates;
* one nominal-size inverter *driver* per DUT input, so input nets are real
  (finite-conductance) nets whose voltage a loading current can actually
  perturb — exactly the situation of Fig. 1 of the paper;
* the DUT output left floating except for the DUT's own pull network, so an
  injected current perturbs it the same way fanout gate-tunneling does.

The cell is solved once without loading (the nominal record) and once per
(pin, injection) grid point, giving the per-pin response curves of
:class:`~repro.gates.lut.GateVectorCharacterization`.  A gate type has one
cell topology; a vector only sets the rails of the driver inputs, and a
loading current is an injection into a pin's net, so every cell of a gate
type is a column of numbers bound to that topology.  All cells of a
(gate type, vector), or of a whole gate type, are one
:class:`~repro.spice.batched.BatchedDcSolver` call: the nominal cells solve
first, then every (pin, injection) cell solves in a single batch
warm-started from its vector's nominal operating point.  A single cell with
arbitrary pin injections (the Figs. 5-9 sweeps) solves through
:meth:`GateCharacterizer.solve_cell` as a one-column batch.  The scalar
Gauss–Seidel cell solve and the one-cell-at-a-time characterization are the
test oracles :func:`repro.oracle.scalar_cell_solve` and
:func:`repro.oracle.characterize_per_cell`.

:class:`GateLibrary` wraps the characterizer with caching so a circuit-level
run characterizes each (gate type, vector) at most once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.device.params import TechnologyParams
from repro.gates.library import GateSpec, GateType, gate_spec
from repro.gates.lut import GateVectorCharacterization, ResponseCurve
from repro.gates.templates import build_gate_transistors
from repro.spice.analysis import ComponentBreakdown
from repro.spice.batched import BatchedDcSolver, BatchedOperatingPoint
from repro.spice.netlist import TransistorNetlist
from repro.spice.solver import SolverOptions

#: Owner tag used for the device under test inside characterization cells.
_DUT = "dut"

#: Net of the DUT output inside a characterization cell.
_OUTPUT_NET = "net_y"

#: Default signed loading-current grid (A): +/- 3.2 uA covers the 0-3000 nA
#: range of the paper's Fig. 5-8 sweeps with headroom for large fanouts.
DEFAULT_INJECTION_GRID = tuple(np.linspace(-3.2e-6, 3.2e-6, 9))


def _pin_net(spec: GateSpec, pin: str) -> str:
    """Return the cell net of DUT pin ``pin``."""
    return _OUTPUT_NET if pin == spec.output else f"net_{pin}"


def _listing(columns: np.ndarray, describe: Callable[[int], str]) -> str:
    """Describe the first five of ``columns``, then count the rest."""
    shown = ", ".join(describe(int(column)) for column in columns[:5])
    if columns.size > 5:
        shown += f", ... ({columns.size - 5} more)"
    return shown


class CharacterizationConvergenceWarning(UserWarning):
    """A characterization cell's DC solve ended off a DC solution.

    Emitted when :attr:`CharacterizationOptions.on_nonconverged` is
    ``"warn"`` — the default — once per solve for its columns that did not
    converge (naming the gate type, the offending cells and the worst final
    voltage update), and once per solve for its columns with a node pinned
    on the admissible-band edge (naming the cells and the pinned nets).  A
    record built from such an operating point can carry silently wrong
    leakage numbers; set ``on_nonconverged="raise"`` to turn either
    condition into a hard error.
    """


@dataclass(frozen=True)
class CharacterizationOptions:
    """Options controlling the characterization cells.

    Attributes
    ----------
    injection_grid:
        Signed loading currents (A) characterized at every pin.
    solver:
        DC solver options used for every cell solve.
    on_nonconverged:
        Policy for cell solves that end without converging, or with a node
        pinned on the admissible-band edge because a loading current has no
        DC solution inside it: ``"warn"`` (default) emits a
        :class:`CharacterizationConvergenceWarning` naming the gate type
        and the offending cells; ``"raise"`` turns the condition into a
        ``RuntimeError``.  Applies to every cell solve,
        :meth:`GateCharacterizer.solve_cell` included — a record built from
        such an operating point would otherwise silently carry wrong
        leakage.  The record keeps its values either way under ``"warn"``.
    """

    injection_grid: tuple[float, ...] = DEFAULT_INJECTION_GRID
    solver: SolverOptions = field(default_factory=SolverOptions)
    on_nonconverged: str = "warn"

    def __post_init__(self) -> None:
        grid = tuple(float(x) for x in self.injection_grid)
        if len(grid) < 2:
            raise ValueError("injection_grid needs at least two points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("injection_grid must be strictly increasing")
        object.__setattr__(self, "injection_grid", grid)
        if self.on_nonconverged not in ("warn", "raise"):
            raise ValueError(
                f"on_nonconverged must be 'warn' or 'raise', "
                f"got {self.on_nonconverged!r}"
            )

    def curve_grid(self) -> list[float]:
        """Return the response-curve abscissae: the grid with 0.0 included.

        The batched characterization and its per-cell oracle build their
        :class:`ResponseCurve` objects on exactly this grid (the zero point
        reuses the nominal solve), so sharing the construction here keeps
        their records structurally identical.
        """
        grid = list(self.injection_grid)
        if 0.0 not in grid:
            grid = sorted(grid + [0.0])
        return grid


@dataclass
class CellSolution:
    """Result of solving one characterization cell."""

    dut_breakdown: ComponentBreakdown
    output_voltage: float
    converged: bool


class GateCharacterizer:
    """Builds and solves characterization cells for library gates."""

    def __init__(
        self,
        technology: TechnologyParams,
        temperature_k: float | None = None,
        options: CharacterizationOptions | None = None,
    ) -> None:
        self.technology = technology
        self.temperature_k = (
            technology.temperature_k if temperature_k is None else float(temperature_k)
        )
        self.options = options or CharacterizationOptions()
        #: Aggregate DC-solve statistics, updated by every cell solve and
        #: read by the benchmarks: the BENCH trajectory tracks convergence
        #: cost (iterations per solve), not just wall clock.  ``iterations``
        #: counts each cell's Newton iterations, continuation steps
        #: included; ``fallbacks`` counts the cells plain Newton could not
        #: finish, retried by pseudo-transient continuation; ``pinned``
        #: counts the cells with a node held on the admissible-band edge.
        #: ``methods`` counts the solved cells per Newton backend, dense
        #: ``"newton"`` or ``"newton-sparse"``.
        self.solve_stats: dict[str, object] = {
            "solves": 0,
            "iterations": 0,
            "max_iterations": 0,
            "fallbacks": 0,
            "pinned": 0,
            "methods": {},
        }

    # ------------------------------------------------------------------ #
    # cell construction and solving
    # ------------------------------------------------------------------ #
    def solve_cell(
        self,
        gate_type: GateType | str,
        vector: tuple[int, ...],
        injections: dict[str, float] | None = None,
    ) -> CellSolution:
        """Build and solve one characterization cell as a one-column batch.

        Parameters
        ----------
        gate_type / vector:
            The DUT and its input vector.
        injections:
            Optional loading currents (A) injected at DUT pins; keys are pin
            names (``a``, ``b``, ..., ``y``).
        """
        spec = gate_spec(gate_type)
        vector = self._check_vector(spec, vector)
        injections = dict(injections or {})
        unknown = set(injections) - set(spec.inputs) - {spec.output}
        if unknown:
            raise ValueError(f"unknown pins for {spec.name}: {sorted(unknown)}")

        netlist, fixed, initial = self._cell(spec, [vector])
        solver = BatchedDcSolver(
            netlist,
            self.temperature_k,
            self.options.solver,
            fixed=fixed,
            injection={_pin_net(spec, pin): amps for pin, amps in injections.items()},
        )
        op = solver.solve(initial_voltages=initial)
        self._record_batched_solve(op)
        detail = f" with injections {injections}" if injections else ""
        self._check_batched_convergence(
            spec, op, lambda column: f"vector {vector}{detail}"
        )
        return CellSolution(
            dut_breakdown=solver.leakage_by_owner(op)[_DUT].at(0),
            output_voltage=float(op.voltage(_OUTPUT_NET)[0]),
            converged=bool(op.converged[0]),
        )

    def _cell(
        self, spec: GateSpec, vectors: list[tuple[int, ...]]
    ) -> tuple[TransistorNetlist, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Build the cell topology of ``spec`` and bind it to ``vectors``.

        One topology serves every vector and injection: an inverter driver
        per DUT input, the DUT and a floating output net.  Returns it with
        the ``(B,)`` rails of the driver inputs — fixed nodes at the
        complement of their DUT input bit — and the free-node seeds: input
        nets at their bit's rail, the output and the DUT's internal nodes at
        the output's rail.  Loading currents are the solver's ``injection``
        into the pin nets.
        """
        vdd = self.technology.vdd
        netlist = TransistorNetlist(vdd=vdd)
        pins: dict[str, str] = {}
        for pin in spec.inputs:
            pins[pin] = _pin_net(spec, pin)
            netlist.add_node(f"drv_{pin}_in", fixed_voltage=0.0)
            netlist.add_node(pins[pin])
            self._build_driver(netlist, f"drv_{pin}", f"drv_{pin}_in", pins[pin])
        pins[spec.output] = _OUTPUT_NET
        netlist.add_node(_OUTPUT_NET)
        build_gate_transistors(
            netlist, self.technology, spec.gate_type, _DUT, pins, owner=_DUT
        )

        bits = np.array(vectors, dtype=float)
        output = vdd * np.array([spec.evaluate(v) for v in vectors], dtype=float)
        fixed: dict[str, np.ndarray] = {}
        initial = {name: output for name in netlist.free_nodes()}
        for k, pin in enumerate(spec.inputs):
            fixed[f"drv_{pin}_in"] = vdd * (1 - bits[:, k])
            initial[pins[pin]] = vdd * bits[:, k]
        return netlist, fixed, initial

    def characterize(
        self, gate_type: GateType | str, vector: tuple[int, ...]
    ) -> GateVectorCharacterization:
        """Return the full characterization record for (gate type, vector)."""
        spec = gate_spec(gate_type)
        vector = self._check_vector(spec, vector)
        return self._characterize_batched(spec, [vector])[vector]

    def characterize_type(
        self,
        gate_type: GateType | str,
        vectors: list[tuple[int, ...]] | None = None,
    ) -> dict[tuple[int, ...], GateVectorCharacterization]:
        """Characterize several vectors of one gate type in one pass.

        This is the fastest path through the characterizer: the nominal
        cells of every vector solve as one batch, then the whole (vector,
        pin, injection) sweep solves as a second batch warm-started from the
        nominal operating points.
        """
        spec = gate_spec(gate_type)
        if vectors is None:
            vectors = spec.all_vectors()
        vectors = [self._check_vector(spec, vector) for vector in vectors]
        if len(set(vectors)) != len(vectors):
            raise ValueError("duplicate vectors in characterize_type")
        if not vectors:
            return {}
        return self._characterize_batched(spec, vectors)

    def _characterize_batched(
        self, spec: GateSpec, vectors: list[tuple[int, ...]]
    ) -> dict[tuple[int, ...], GateVectorCharacterization]:
        """Characterize ``vectors`` of one gate type with the batched solver.

        Both phases bind one cell topology.  Phase one solves the nominal
        (no-injection) cell of every vector as one batch and reads the
        nominal breakdowns, node voltages and pin injections from it.  Phase
        two binds every (vector, pin, injection) column — its vector's
        driver rails and one pin's injection — warm-starts each from its
        vector's solved nominal operating point, and solves them all as a
        second batch.
        """
        options = self.options
        grid = options.curve_grid()
        nonzero = [amps for amps in grid if amps != 0.0]
        pins = list(spec.inputs) + [spec.output]

        netlist, fixed, initial = self._cell(spec, vectors)

        # Phase one: nominal cells, one column per vector.
        nominal_solver = BatchedDcSolver(
            netlist, self.temperature_k, options.solver, fixed=fixed
        )
        nominal_op = nominal_solver.solve(initial_voltages=initial)
        self._record_batched_solve(nominal_op)
        self._check_batched_convergence(
            spec, nominal_op, lambda column: f"vector {vectors[column]}"
        )
        nominal_leakage = nominal_solver.leakage_by_owner(nominal_op)[_DUT]
        injection_at_pin = {
            pin: nominal_solver.gate_injection_at_node(nominal_op, _pin_net(spec, pin))
            for pin in spec.inputs
        }

        # Phase two: the full (vector, pin, injection) sweep in one batch,
        # warm-started from the nominal voltages of each cell's vector.
        tasks = [
            (index, pin, amps)
            for index in range(len(vectors))
            for pin in pins
            for amps in nonzero
        ]
        task_vector = np.array([index for index, _pin, _amps in tasks])
        injection = {_pin_net(spec, pin): np.zeros(len(tasks)) for pin in pins}
        for column, (_index, pin, amps) in enumerate(tasks):
            injection[_pin_net(spec, pin)][column] = amps
        injection_solver = BatchedDcSolver(
            netlist,
            self.temperature_k,
            options.solver,
            fixed={name: rails[task_vector] for name, rails in fixed.items()},
            injection=injection,
        )
        warm = nominal_op.voltages[:, task_vector]
        injection_op = injection_solver.solve(
            initial_voltages={
                name: warm[row] for name, row in nominal_op.node_index.items()
            }
        )
        self._record_batched_solve(injection_op)
        self._check_batched_convergence(
            spec,
            injection_op,
            lambda column: (
                f"vector {vectors[tasks[column][0]]} pin "
                f"{tasks[column][1]!r} injection {tasks[column][2]:.2e} A"
            ),
        )
        injection_leakage = injection_solver.leakage_by_owner(injection_op)[_DUT]
        breakdown_of_task = {
            task: injection_leakage.at(column) for column, task in enumerate(tasks)
        }

        records: dict[tuple[int, ...], GateVectorCharacterization] = {}
        for index, vector in enumerate(vectors):
            nominal = nominal_leakage.at(index)
            responses: dict[str, ResponseCurve] = {}
            for pin in pins:
                values = [
                    nominal if amps == 0.0 else breakdown_of_task[(index, pin, amps)]
                    for amps in grid
                ]
                responses[pin] = ResponseCurve(
                    pin=pin,
                    injections=np.asarray(grid),
                    subthreshold=np.array([b.subthreshold for b in values]),
                    gate=np.array([b.gate for b in values]),
                    btbt=np.array([b.btbt for b in values]),
                )
            records[vector] = GateVectorCharacterization(
                gate_type_name=spec.name,
                vector=vector,
                nominal=nominal,
                output_voltage=float(nominal_op.voltage(_OUTPUT_NET)[index]),
                input_voltages={
                    pin: float(nominal_op.voltage(_pin_net(spec, pin))[index])
                    for pin in spec.inputs
                },
                pin_injection={
                    pin: float(array[index])
                    for pin, array in injection_at_pin.items()
                },
                responses=responses,
            )
        return records

    def _record_batched_solve(self, op: BatchedOperatingPoint) -> None:
        stats = self.solve_stats
        stats["solves"] += int(op.batch)
        stats["iterations"] += int(op.newton_iterations.sum())
        stats["max_iterations"] = max(
            stats["max_iterations"], int(op.newton_iterations.max())
        )
        stats["fallbacks"] += int(op.fallback.sum())
        stats["pinned"] += int(op.pinned.any(axis=0).sum())
        methods = stats["methods"]
        assert isinstance(methods, dict)
        methods[op.method] = methods.get(op.method, 0) + int(op.batch)

    def _report_nonconverged(self, message: str) -> None:
        """Apply the ``on_nonconverged`` policy to a convergence failure."""
        if self.options.on_nonconverged == "raise":
            raise RuntimeError(message)
        warnings.warn(message, CharacterizationConvergenceWarning, stacklevel=3)

    def _check_batched_convergence(
        self,
        spec: GateSpec,
        op: BatchedOperatingPoint,
        describe: Callable[[int], str],
    ) -> None:
        """Apply the ``on_nonconverged`` policy to a batched solve.

        Columns that did not converge and columns with a node pinned on the
        admissible-band edge are reported, each kind once per solve.
        ``describe`` renders one batch column as a human-readable cell
        identity (vector, pin, injection); the first few offending columns
        are listed so the message stays bounded for wide batches.
        """
        bad = np.flatnonzero(~op.converged)
        if bad.size:
            worst = float(op.max_update[bad].max())
            self._report_nonconverged(
                f"{bad.size} of {op.batch} characterization cells for "
                f"{spec.name} did not converge (worst final voltage update "
                f"{worst:.3e} V): {_listing(bad, describe)}"
            )
        pinned = np.flatnonzero(op.pinned.any(axis=0))
        if pinned.size:
            names = list(op.node_index)

            def describe_pinned(column: int) -> str:
                nets = np.flatnonzero(op.pinned[:, column])
                return f"{describe(column)} at {', '.join(names[row] for row in nets)}"

            self._report_nonconverged(
                f"{pinned.size} of {op.batch} characterization cells for "
                f"{spec.name} have no DC solution inside the admissible "
                f"voltage band; a net is pinned on its edge: "
                f"{_listing(pinned, describe_pinned)}"
            )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _build_driver(
        self, netlist: TransistorNetlist, instance: str, input_net: str, output_net: str
    ) -> None:
        from repro.device.mosfet import Mosfet
        from repro.spice.netlist import GROUND, SUPPLY

        netlist.add_transistor(
            name=f"{instance}.mn",
            mosfet=Mosfet(self.technology.nmos),
            gate=input_net,
            drain=output_net,
            source=GROUND,
            bulk=GROUND,
            owner=f"__{instance}",
        )
        netlist.add_transistor(
            name=f"{instance}.mp",
            mosfet=Mosfet(self.technology.pmos),
            gate=input_net,
            drain=output_net,
            source=SUPPLY,
            bulk=SUPPLY,
            owner=f"__{instance}",
        )

    @staticmethod
    def _check_vector(spec: GateSpec, vector: tuple[int, ...]) -> tuple[int, ...]:
        vector = tuple(int(bool(b)) for b in vector)
        if len(vector) != spec.num_inputs:
            raise ValueError(
                f"{spec.name} expects {spec.num_inputs} input bits, got {len(vector)}"
            )
        return vector


class GateLibrary:
    """A characterized gate library bound to one technology and temperature.

    The library characterizes lazily: the first request for a
    (gate type, input vector) runs the characterization cells, subsequent
    requests hit the in-memory cache.  :meth:`precharacterize` warms the
    cache for a set of gate types, one batch per type; compiling a circuit
    for the campaign engine calls it for every gate type of the circuit.
    """

    def __init__(
        self,
        technology: TechnologyParams,
        temperature_k: float | None = None,
        options: CharacterizationOptions | None = None,
    ) -> None:
        self.technology = technology
        self.characterizer = GateCharacterizer(technology, temperature_k, options)
        self._cache: dict[tuple[str, tuple[int, ...]], GateVectorCharacterization] = {}

    @property
    def temperature_k(self) -> float:
        """Return the characterization temperature in kelvin."""
        return self.characterizer.temperature_k

    @property
    def vdd(self) -> float:
        """Return the library supply voltage in volts."""
        return self.technology.vdd

    def spec(self, gate_type: GateType | str) -> GateSpec:
        """Return the :class:`GateSpec` for ``gate_type``."""
        return gate_spec(gate_type)

    def characterization(
        self, gate_type: GateType | str, vector: tuple[int, ...]
    ) -> GateVectorCharacterization:
        """Return (characterizing on first use) the record for (type, vector)."""
        spec = gate_spec(gate_type)
        key = (spec.name, tuple(int(bool(b)) for b in vector))
        record = self._cache.get(key)
        if record is None:
            record = self.characterizer.characterize(spec.gate_type, key[1])
            self._cache[key] = record
        return record

    def precharacterize(self, gate_types: list[GateType | str]) -> int:
        """Characterize every vector of the given gate types; return the count.

        Uncached vectors of a gate type are characterized together through
        :meth:`GateCharacterizer.characterize_type`, so a whole type costs
        two batched DC solves instead of two per vector.  Batch columns
        solve independently, so the records are bitwise those of
        one-vector calls; cells that do not converge are reported once per
        type batch.
        """
        count = 0
        for gate_type in gate_types:
            spec = gate_spec(gate_type)
            missing = [
                vector
                for vector in spec.all_vectors()
                if (spec.name, vector) not in self._cache
            ]
            count += len(spec.all_vectors())
            if not missing:
                continue
            for vector, record in self.characterizer.characterize_type(
                spec.gate_type, missing
            ).items():
                self._cache[(spec.name, vector)] = record
        return count

    def cached_records(self) -> list[GateVectorCharacterization]:
        """Return every record currently in the cache."""
        return list(self._cache.values())

    def load_records(self, records: list[GateVectorCharacterization]) -> None:
        """Seed the cache with previously characterized records."""
        for record in records:
            key = (record.gate_type_name, tuple(record.vector))
            self._cache[key] = record
