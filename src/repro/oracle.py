"""Per-item reference paths, kept only as test oracles.

Each solve layer has one production path: the batched characterization of
:class:`~repro.gates.characterize.GateCharacterizer`, the array-bound
Monte-Carlo blocks of :mod:`repro.variation.montecarlo`, the batched
reference of :meth:`~repro.core.reference.ReferenceSimulator.estimate_batch`
and the compiled LUT campaigns of :mod:`repro.engine`.  This module keeps
the one-item-at-a-time implementations those paths replaced, so tests and
benchmarks can hold the production paths to them:

* :func:`characterize_per_cell` — one scalar Gauss–Seidel cell solve per
  (pin, injection) grid point;
* :func:`monte_carlo_per_sample` — each sample flattened under its own
  shifted technology and solved by the scalar
  :class:`~repro.spice.solver.DcSolver`;
* :func:`per_vector_campaign` — one ``estimator.estimate`` call per vector;
  with a :class:`~repro.core.reference.ReferenceSimulator` it is the
  Gauss–Seidel reference oracle;
* :func:`solve_gauss_seidel` — a :class:`~repro.spice.batched.BatchedDcSolver`
  batch relaxed by Gauss–Seidel sweeps alone, the batched twin of the
  scalar :class:`~repro.spice.solver.DcSolver` that the damped-Newton
  production solve is checked against.

No module under ``repro`` imports this one (contract RC107), so an oracle
can never turn back into a production path.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from repro.circuit.flatten import flatten
from repro.circuit.netlist import Circuit
from repro.core.report import CircuitLeakageReport
from repro.core.vectors import VectorCampaignResult
from repro.gates.characterize import GateCharacterizer
from repro.gates.library import GateType, gate_spec
from repro.gates.lut import GateVectorCharacterization, ResponseCurve
from repro.spice.analysis import gate_injection_at_node, leakage_by_owner
from repro.spice.batched import BatchedDcSolver, BatchedOperatingPoint
from repro.spice.solver import DcSolver
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


class LeakageEstimator(Protocol):
    """Anything that can produce a :class:`CircuitLeakageReport` for a vector."""

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:  # pragma: no cover - protocol definition
        ...


def characterize_per_cell(
    characterizer: GateCharacterizer,
    gate_type: GateType | str,
    vector: tuple[int, ...],
) -> GateVectorCharacterization:
    """Characterize (gate type, vector) one scalar cell solve at a time.

    The oracle of :meth:`GateCharacterizer.characterize`: the nominal cell
    and every (pin, injection) cell of the characterizer's grid solve
    separately through :meth:`GateCharacterizer.solve_cell`, so the
    characterizer's ``solve_stats`` count every relaxation.
    """
    spec = gate_spec(gate_type)
    nominal_cell = characterizer.solve_cell(spec.gate_type, vector)
    nominal = nominal_cell.dut_breakdown
    grid = characterizer.options.curve_grid()
    responses: dict[str, ResponseCurve] = {}
    for pin in list(spec.inputs) + [spec.output]:
        values = [
            nominal
            if amps == 0.0
            else characterizer.solve_cell(spec.gate_type, vector, {pin: amps}).dut_breakdown
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


def per_vector_campaign(
    estimator: LeakageEstimator, circuit: Circuit, vectors: Iterable[dict[str, int]]
) -> VectorCampaignResult:
    """Run ``estimator.estimate`` once per vector, whatever the estimator.

    The oracle of :func:`repro.core.vectors.run_vector_campaign` for
    library-backed estimators and, with a
    :class:`~repro.core.reference.ReferenceSimulator`, of
    :func:`repro.core.reference.run_reference_campaign`.
    """
    reports = [estimator.estimate(circuit, vector) for vector in vectors]
    method = reports[0].method if reports else getattr(estimator, "method_name", "?")
    return VectorCampaignResult(
        circuit_name=circuit.name, method=method, reports=reports
    )


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
