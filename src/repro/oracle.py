"""Per-item reference paths, kept only as test oracles.

Each solve layer has one production path: the batched characterization of
:class:`~repro.gates.characterize.GateCharacterizer`, the array-bound
Monte-Carlo blocks of :mod:`repro.variation.montecarlo`, the batched
reference of :meth:`~repro.core.reference.ReferenceSimulator.estimate_batch`
and the compiled LUT campaigns of :mod:`repro.engine`.  Single-item
requests ride those paths as batches of one.  This module keeps the
one-item-at-a-time implementations they replaced, so tests and benchmarks
can hold the production paths to them:

* :class:`DcSolver` — the scalar Gauss–Seidel operating-point solver
  (bracketed per-node KCL solves plus a conducting-cluster supernode
  pass), with its analysis helpers :func:`transistor_currents`,
  :func:`leakage_by_owner` and :func:`gate_injection_at_node`;
* :class:`ScalarReference` — one :class:`DcSolver` relaxation per vector,
  the oracle of :meth:`~repro.core.reference.ReferenceSimulator.estimate_batch`;
* :class:`PerGateEstimator` — the Fig. 13 walk, one LUT lookup per gate
  and pin, the oracle of the compiled campaign engine;
* :func:`scalar_cell_solve` and :func:`characterize_per_cell` — one
  scalar cell solve per (pin, injection) grid point, the oracle of the
  batched characterization;
* :func:`monte_carlo_per_sample` — each sample flattened under its own
  shifted technology and solved by :class:`DcSolver`;
* :func:`per_vector_campaign` — one ``estimator.estimate`` call per vector;
* :func:`solve_gauss_seidel` — a :class:`~repro.spice.batched.BatchedDcSolver`
  batch relaxed by Gauss–Seidel sweeps alone, the batched twin of
  :class:`DcSolver` that the damped-Newton production solve is checked
  against.

No module under ``repro`` imports this one (contract RC107), so an oracle
can never turn back into a production path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np
from scipy.optimize import brentq

from repro.circuit.flatten import flatten
from repro.circuit.graph import topological_order
from repro.circuit.logic import propagate
from repro.circuit.netlist import Circuit
from repro.core.reference import ReferenceSimulator, _missing_owner_error
from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.core.vectors import VectorCampaignResult
from repro.device.mosfet import MosfetCurrents
from repro.gates.characterize import _DUT, GateCharacterizer, GateLibrary
from repro.gates.library import GateType, gate_spec
from repro.gates.lut import GateVectorCharacterization, ResponseCurve
from repro.spice.analysis import ComponentBreakdown
from repro.spice.batched import BatchedDcSolver, BatchedOperatingPoint
from repro.spice.netlist import NodeKind, TransistorNetlist
from repro.spice.solver import SolverOptions
from repro.variation.montecarlo import (
    _TARGET_GATE,
    MonteCarloSample,
    SampleTask,
    _check_draws,
    _keep_converged,
    _raise_nonconverged,
    _study_circuits,
)
from repro.variation.qmc import ParameterDraws
from repro.variation.spec import apply_inter_die


# --------------------------------------------------------------------- #
# scalar Gauss–Seidel DC solver
# --------------------------------------------------------------------- #
@dataclass
class OperatingPoint:
    """Result of a :class:`DcSolver` solve.

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
    """Gauss–Seidel DC operating-point solver for a :class:`TransistorNetlist`.

    Nodes are visited repeatedly and each node's Kirchhoff current equation
    is solved as a bracketed one-dimensional problem with all other node
    voltages held at their latest values.  In the leakage state each net
    is held close to a rail by an on transistor and the inter-gate coupling
    through gate tunneling is weak, so a handful of sweeps reaches
    microvolt-level self-consistency, and the bracketed scalar solves can
    never make the iteration diverge.  ``options`` uses the Gauss–Seidel
    fields of :class:`~repro.spice.solver.SolverOptions`.
    """

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

    def solve(self, initial_voltages: dict[str, float] | None = None) -> OperatingPoint:
        """Solve for the DC operating point.

        ``initial_voltages`` optionally seeds free nodes (e.g. the rail
        implied by the logic value); unlisted free nodes start from their
        stored voltage (zero by default).
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


def transistor_currents(
    netlist: TransistorNetlist, op: OperatingPoint
) -> dict[str, MosfetCurrents]:
    """Return the solved :class:`MosfetCurrents` of every transistor instance."""
    result: dict[str, MosfetCurrents] = {}
    voltages = op.voltages
    for transistor in netlist.transistors:
        result[transistor.name] = transistor.mosfet.terminal_currents(
            voltages[transistor.gate],
            voltages[transistor.drain],
            voltages[transistor.source],
            voltages[transistor.bulk],
            op.temperature_k,
        )
    return result


def leakage_by_owner(
    netlist: TransistorNetlist, op: OperatingPoint
) -> dict[str, ComponentBreakdown]:
    """Return the leakage breakdown aggregated per owner (logic gate).

    The scalar twin of :meth:`BatchedDcSolver.leakage_by_owner`, summing
    in transistor order; transistors without an owner tag are aggregated
    under the empty-string key so nothing is silently dropped.
    """
    per_owner: dict[str, ComponentBreakdown] = {}
    for transistor, currents in zip(
        netlist.transistors, transistor_currents(netlist, op).values()
    ):
        breakdown = ComponentBreakdown(
            subthreshold=currents.i_subthreshold,
            gate=currents.i_gate,
            btbt=currents.i_btbt,
        )
        key = transistor.owner
        if key in per_owner:
            per_owner[key] = per_owner[key] + breakdown
        else:
            per_owner[key] = breakdown
    return per_owner


def gate_injection_at_node(
    netlist: TransistorNetlist,
    op: OperatingPoint,
    node: str,
    exclude_owners: set[str] | frozenset[str] = frozenset(),
) -> float:
    """Return the signed gate-tunneling current receivers inject into ``node``.

    The sum of the gate terminal currents of every transistor whose *gate*
    connects to ``node`` (optionally excluding some owners' transistors).
    Positive values mean the receivers inject current into the node (node
    at logic '0'); negative values mean they draw current from it.
    """
    voltages = op.voltages
    injection = 0.0
    for transistor in netlist.transistors:
        if transistor.gate != node:
            continue
        if transistor.owner in exclude_owners:
            continue
        currents = transistor.mosfet.terminal_currents(
            voltages[transistor.gate],
            voltages[transistor.drain],
            voltages[transistor.source],
            voltages[transistor.bulk],
            op.temperature_k,
        )
        # ``ig`` is the current flowing from the node into the gate terminal;
        # the injection *into* the node is its negation.
        injection -= currents.ig
    return injection


# --------------------------------------------------------------------- #
# per-vector circuit estimates
# --------------------------------------------------------------------- #
class LeakageEstimator(Protocol):
    """Anything that can produce a :class:`CircuitLeakageReport` for a vector."""

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:  # pragma: no cover - protocol definition
        ...


class ScalarReference(ReferenceSimulator):
    """The transistor-level reference, one :class:`DcSolver` relaxation per vector.

    The Gauss–Seidel oracle of
    :meth:`~repro.core.reference.ReferenceSimulator.estimate_batch`: same
    constructor, same pre-flight, same report layout, with each vector's
    flattened netlist solved on its own.
    """

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:
        """Return the reference leakage report for one input assignment."""
        self._preflight(circuit)
        start = time.perf_counter()
        flattened = flatten(circuit, self.technology, input_assignment)
        solver = DcSolver(flattened.netlist, self.temperature_k, self.solver_options)
        op = solver.solve(initial_voltages=flattened.initial_voltages())
        per_owner = leakage_by_owner(flattened.netlist, op)

        net_values = propagate(circuit, input_assignment)
        per_gate: dict[str, GateLeakage] = {}
        for name, gate in circuit.gates.items():
            breakdown = per_owner.get(name)
            if breakdown is None:
                raise _missing_owner_error(gate, per_owner)
            per_gate[name] = GateLeakage(
                gate_name=name,
                gate_type_name=gate.gate_type.value,
                vector=tuple(net_values[net] for net in gate.inputs),
                breakdown=breakdown,
            )

        return CircuitLeakageReport(
            circuit_name=circuit.name,
            method=self.method_name,
            input_assignment=dict(input_assignment),
            per_gate=per_gate,
            temperature_k=self.temperature_k,
            vdd=self.technology.vdd,
            metadata={
                "runtime_s": time.perf_counter() - start,
                "gate_count": len(per_gate),
                "transistors": flattened.transistor_count,
                "solver_sweeps": op.sweeps,
                "solver_converged": op.converged,
                "solver_method": "gauss-seidel",
                "engine": "scalar",
            },
        )


class PerGateEstimator:
    """The Fig. 13 algorithm walked gate by gate, one LUT lookup per pin.

    The oracle of the compiled campaign engine (:mod:`repro.engine`), which
    must match it to 1e-12 relative.  Per gate in topological order it
    reads the characterized record of (gate type, input vector), sums the
    pin injections per net, turns them into per-pin loading currents (a
    gate never loads itself, primary-input nets are ideal) and looks the
    loaded breakdown up with
    :meth:`~repro.gates.lut.GateVectorCharacterization.leakage_with_loading`.
    ``include_loading=False`` accumulates the unloaded records instead.
    """

    method_name = "loading-aware"

    def __init__(self, library: GateLibrary, include_loading: bool = True) -> None:
        self.library = library
        self.include_loading = include_loading

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:
        """Return the leakage report of ``circuit`` under ``input_assignment``."""
        circuit.validate()
        start = time.perf_counter()
        order = topological_order(circuit)
        net_values = propagate(circuit, input_assignment)
        records = {
            name: self.library.characterization(
                circuit.gates[name].gate_type,
                tuple(net_values[net] for net in circuit.gates[name].inputs),
            )
            for name in order
        }

        # Signed injection of every (gate, input pin) into its net, summed
        # per net and per (gate, net): the second sum is what a gate with
        # several pins tied to one net must subtract so it never loads
        # itself through its other pin.
        net_injection: dict[str, float] = {}
        own_injection: dict[tuple[str, str], float] = {}
        for name, gate in circuit.gates.items():
            for pin, net in zip(gate.spec.inputs, gate.inputs):
                value = records[name].pin_injection[pin]
                net_injection[net] = net_injection.get(net, 0.0) + value
                own_injection[(name, net)] = own_injection.get((name, net), 0.0) + value

        per_gate: dict[str, GateLeakage] = {}
        for name in order:
            gate = circuit.gates[name]
            loading: dict[str, float] = {}
            input_total = 0.0
            output_total = 0.0
            if self.include_loading:
                for pin, net in zip(gate.spec.inputs, gate.inputs):
                    if circuit.is_primary_input(net):
                        continue
                    others = net_injection.get(net, 0.0) - own_injection[(name, net)]
                    if others != 0.0:
                        loading[pin] = others
                        input_total += others
                output_total = net_injection.get(gate.output, 0.0)
                if output_total != 0.0:
                    loading[gate.spec.output] = output_total
            record = records[name]
            per_gate[name] = GateLeakage(
                gate_name=name,
                gate_type_name=gate.gate_type.value,
                vector=record.vector,
                breakdown=record.leakage_with_loading(loading),
                input_loading=input_total,
                output_loading=output_total,
            )

        return CircuitLeakageReport(
            circuit_name=circuit.name,
            method=self.method_name if self.include_loading else "no-loading",
            input_assignment=dict(input_assignment),
            per_gate=per_gate,
            temperature_k=self.library.temperature_k,
            vdd=self.library.vdd,
            metadata={
                "runtime_s": time.perf_counter() - start,
                "gate_count": len(per_gate),
            },
        )


def per_vector_campaign(
    estimator: LeakageEstimator, circuit: Circuit, vectors: Iterable[dict[str, int]]
) -> VectorCampaignResult:
    """Run ``estimator.estimate`` once per vector, whatever the estimator.

    With a :class:`PerGateEstimator` it is the oracle of
    :func:`repro.core.vectors.run_vector_campaign`; with a
    :class:`ScalarReference`, of
    :func:`repro.core.reference.run_reference_campaign`.
    """
    reports = [estimator.estimate(circuit, vector) for vector in vectors]
    method = reports[0].method if reports else getattr(estimator, "method_name", "?")
    return VectorCampaignResult(
        circuit_name=circuit.name, method=method, reports=reports
    )


# --------------------------------------------------------------------- #
# characterization cells
# --------------------------------------------------------------------- #
@dataclass
class ScalarCellSolution:
    """One characterization cell solved by :class:`DcSolver`."""

    netlist: TransistorNetlist
    op: OperatingPoint
    dut_breakdown: ComponentBreakdown
    input_nets: dict[str, str]
    output_net: str


def scalar_cell_solve(
    characterizer: GateCharacterizer,
    gate_type: GateType | str,
    vector: tuple[int, ...],
    injections: dict[str, float] | None = None,
) -> ScalarCellSolution:
    """Build one characterization cell and relax it by Gauss–Seidel.

    The oracle of :meth:`GateCharacterizer.solve_cell`: the same cell
    (:meth:`GateCharacterizer._build_cell`), solved by :class:`DcSolver`
    under the characterizer's solver options and ``on_nonconverged``
    policy.
    """
    spec = gate_spec(gate_type)
    vector = characterizer._check_vector(spec, vector)
    cell = characterizer._build_cell(spec, vector, dict(injections or {}))
    op = DcSolver(
        cell.netlist, characterizer.temperature_k, characterizer.options.solver
    ).solve(initial_voltages=cell.initial)
    if not op.converged:
        characterizer._report_nonconverged(
            f"scalar characterization cell for {spec.name} vector {vector} "
            f"did not converge within {characterizer.options.solver.max_sweeps} "
            f"sweeps; largest final voltage update {op.max_update:.3e} V"
        )
    return ScalarCellSolution(
        netlist=cell.netlist,
        op=op,
        dut_breakdown=leakage_by_owner(cell.netlist, op)[_DUT],
        input_nets=cell.input_nets,
        output_net=cell.output_net,
    )


def characterize_per_cell(
    characterizer: GateCharacterizer,
    gate_type: GateType | str,
    vector: tuple[int, ...],
) -> GateVectorCharacterization:
    """Characterize (gate type, vector) one scalar cell solve at a time.

    The oracle of :meth:`GateCharacterizer.characterize`: the nominal cell
    and every (pin, injection) cell of the characterizer's grid solve
    separately through :func:`scalar_cell_solve`.
    """
    spec = gate_spec(gate_type)
    nominal_cell = scalar_cell_solve(characterizer, spec.gate_type, vector)
    nominal = nominal_cell.dut_breakdown
    grid = characterizer.options.curve_grid()
    responses: dict[str, ResponseCurve] = {}
    for pin in list(spec.inputs) + [spec.output]:
        values = [
            nominal
            if amps == 0.0
            else scalar_cell_solve(
                characterizer, spec.gate_type, vector, {pin: amps}
            ).dut_breakdown
            for amps in grid
        ]
        responses[pin] = ResponseCurve(
            pin=pin,
            injections=np.asarray(grid),
            subthreshold=np.array([b.subthreshold for b in values]),
            gate=np.array([b.gate for b in values]),
            btbt=np.array([b.btbt for b in values]),
        )
    op = nominal_cell.op
    return GateVectorCharacterization(
        gate_type_name=spec.name,
        vector=tuple(int(bool(b)) for b in vector),
        nominal=nominal,
        output_voltage=op.voltage(nominal_cell.output_net),
        input_voltages={
            pin: op.voltage(net) for pin, net in nominal_cell.input_nets.items()
        },
        pin_injection={
            pin: gate_injection_at_node(nominal_cell.netlist, op, net)
            for pin, net in nominal_cell.input_nets.items()
        },
        responses=responses,
    )


# --------------------------------------------------------------------- #
# Monte-Carlo samples
# --------------------------------------------------------------------- #
def _solve_structure(circuit, task: SampleTask, technology, assignment, intra_vth):
    """Flatten under ``technology``, apply the Vth shifts, solve, return gate g."""
    flattened = flatten(circuit, technology, assignment)
    for transistor in flattened.netlist.transistors:
        shift = intra_vth.get(transistor.name)
        if shift is not None:
            transistor.mosfet.vth_shift = shift
    solver = DcSolver(flattened.netlist, task.temperature_k, task.solver_options)
    op = solver.solve(initial_voltages=flattened.initial_voltages())
    if not op.converged:
        _raise_nonconverged(
            task.on_nonconverged,
            f"Monte-Carlo solve of {circuit.name!r} did not converge within "
            f"{task.solver_options.max_sweeps} sweeps; largest final voltage "
            f"update {op.max_update:.3e} V",
        )
    return leakage_by_owner(flattened.netlist, op)[_TARGET_GATE], bool(op.converged)


def monte_carlo_per_sample(
    task: SampleTask, draws: ParameterDraws
) -> list[MonteCarloSample]:
    """Solve each drawn sample on its own, flattening under its shifted technology.

    The oracle of :func:`repro.variation.montecarlo.simulate_batch_from_draws`:
    same draws, same non-convergence policy, one scalar solve per structure
    and sample instead of two array-bound batches.
    """
    _check_draws(task, draws)
    loaded_circuit, unloaded_circuit, assignment, names = _study_circuits(task)
    samples = []
    for index in range(draws.sample_count):
        shifted = apply_inter_die(task.technology, draws.inter_die(index))
        intra = dict(zip(names, draws.intra_vth(index)))
        with_loading, loaded_ok = _solve_structure(
            loaded_circuit, task, shifted, assignment, intra
        )
        without_loading, unloaded_ok = _solve_structure(
            unloaded_circuit, task, shifted, assignment, intra
        )
        samples.append(
            MonteCarloSample(with_loading, without_loading, loaded_ok and unloaded_ok)
        )
    return _keep_converged(task, samples)


# --------------------------------------------------------------------- #
# batched relaxation
# --------------------------------------------------------------------- #
def solve_gauss_seidel(
    solver: BatchedDcSolver,
    initial_voltages: Mapping[str, float | np.ndarray]
    | Sequence[Mapping[str, float]]
    | None = None,
) -> BatchedOperatingPoint:
    """Relax every column of ``solver``'s batch by Gauss–Seidel sweeps alone.

    The oracle of :meth:`BatchedDcSolver.solve`: the same sweeps the
    Newton solve hands its fallback columns to, run on every column, so a
    fallback column is bitwise this solve's column.  ``initial_voltages``
    takes the same forms as in :meth:`BatchedDcSolver.solve`.
    """
    voltages = solver._initial_matrix(initial_voltages)
    converged, sweeps, max_update = solver._solve_gauss_seidel(voltages)
    return BatchedOperatingPoint(
        node_index=solver.node_index,
        voltages=voltages,
        temperature_k=solver.temperature_k,
        converged=converged,
        sweeps=sweeps,
        max_update=max_update,
        method="gauss-seidel",
        newton_iterations=np.zeros(solver.batch, dtype=int),
        fallback=np.ones(solver.batch, dtype=bool),
    )
