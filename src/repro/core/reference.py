"""Transistor-level reference leakage analysis (the "SPICE" column).

The paper validates its estimator against HSPICE operating-point analyses of
the full circuit.  :class:`ReferenceSimulator` plays that role here: it
flattens the gate-level circuit into transistors
(:mod:`repro.circuit.flatten`), solves the coupled DC operating point with
the batched solver (:mod:`repro.spice.batched`), and aggregates per-gate
leakage components.  Because every net — including the nets *between*
gates — is solved against all attached transistors, the result contains the
full loading effect with no one-level approximation; the estimator's
accuracy is measured against it (Fig. 12a).

:meth:`ReferenceSimulator.estimate_batch` is the one solve path: the
circuit flattens *once* per chunk (:func:`repro.circuit.flatten.flatten_batch`)
and all vectors of the chunk solve together as one
:class:`~repro.spice.batched.BatchedDcSolver` batch, which is what makes
full-suite, many-vector reference validation campaigns
(:func:`run_reference_campaign`) feasible.  :meth:`ReferenceSimulator.estimate`
answers one vector as a batch of one.  Chunks are memory-bounded and —
because every per-column update of the batched solver is independent of its
batch neighbours — the results are bitwise independent of how the vector set
is chunked.  The per-vector Gauss–Seidel relaxation is the test oracle
:class:`repro.oracle.ScalarReference`.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.circuit.flatten import flatten_batch
from repro.circuit.logic import random_vectors
from repro.circuit.netlist import Circuit, Gate
from repro.core.report import CircuitLeakageReport, GateLeakage
from repro.core.vectors import VectorCampaignResult
from repro.device.params import TechnologyParams
from repro.spice.batched import BatchedDcSolver
from repro.spice.solver import SolverOptions
from repro.utils.rng import RngLike

#: Default vector-chunk size of the batched reference path.  Peak memory per
#: chunk scales with (netlist nodes x chunk), so the default keeps even the
#: largest suite circuits within tens of megabytes while still amortizing the
#: vectorized per-node root finds over a wide batch.
DEFAULT_REFERENCE_CHUNK_SIZE = 64


def _missing_owner_error(gate: Gate, owners_present: Iterable[str]) -> RuntimeError:
    """Build the diagnostic for a gate with no aggregated leakage.

    This happens when none of the flattened transistors carry the gate's
    name as owner tag — i.e. a miswired or misregistered transistor template
    filed the devices under another owner.  The message names the gate, its
    template, and the owners that *are* present so the offending template is
    identifiable without a debugger.
    """
    owners = sorted(owner for owner in owners_present if owner)
    shown = ", ".join(repr(owner) for owner in owners[:10]) or "<none>"
    if len(owners) > 10:
        shown += f", ... ({len(owners) - 10} more)"
    return RuntimeError(
        f"no leakage aggregated for gate {gate.name!r} (template "
        f"{gate.gate_type.value!r}): none of the flattened transistors carry "
        f"owner tag {gate.name!r}.  Owners present: {shown}.  This indicates "
        "a transistor template that registered its devices under a different "
        "owner."
    )


class ReferenceSimulator:
    """Full transistor-level leakage analysis of a gate-level circuit."""

    method_name = "reference"

    def __init__(
        self,
        technology: TechnologyParams,
        temperature_k: float | None = None,
        solver_options: SolverOptions | None = None,
        lint: str = "raise",
    ) -> None:
        self.technology = technology
        self.temperature_k = (
            technology.temperature_k if temperature_k is None else float(temperature_k)
        )
        # The batched solve picks its Newton backend per flattened system:
        # batched-LAPACK dense on small circuits, sparse SuperLU once the
        # free-node count or the dense-Jacobian memory estimate says the
        # dense stack is a bad idea (large suite circuits).  The backend is
        # recorded per report as metadata["solver_method"].
        self.solver_options = solver_options or SolverOptions()
        #: Netlist pre-flight policy ("raise" | "warn" | "off"); applied
        #: before every flatten so a malformed circuit is rejected with the
        #: full finding list instead of 30 s into a DC solve.
        self.lint = lint

    def _preflight(self, circuit: Circuit) -> None:
        from repro.analysis import preflight_circuit

        preflight_circuit(circuit, lint=self.lint)

    def estimate(
        self, circuit: Circuit, input_assignment: dict[str, int]
    ) -> CircuitLeakageReport:
        """Return the reference leakage report for one input assignment.

        A batch of one: its leakage values are bitwise those of the
        matching report of any :meth:`estimate_batch` call that contains
        ``input_assignment``.
        """
        return self.estimate_batch(circuit, [input_assignment])[0]

    def estimate_batch(
        self,
        circuit: Circuit,
        assignments: Iterable[dict[str, int]],
        chunk_size: int = DEFAULT_REFERENCE_CHUNK_SIZE,
    ) -> list[CircuitLeakageReport]:
        """Return one reference report per assignment, solved in batches.

        The circuit flattens once per chunk into a shared transistor
        topology (:func:`flatten_batch`); all vectors of the chunk solve as
        one :class:`BatchedDcSolver` batch and the per-owner leakage of the
        whole chunk is aggregated in one array pass.  Because every
        per-column solver update is independent of its batch neighbours,
        the reports are bitwise identical whatever ``chunk_size`` splits the
        assignment list — only peak memory changes.
        """
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self._preflight(circuit)
        assignments = list(assignments)
        reports: list[CircuitLeakageReport] = []
        for lo in range(0, len(assignments), chunk_size):
            reports.extend(
                self._estimate_chunk(circuit, assignments[lo : lo + chunk_size])
            )
        return reports

    def _estimate_chunk(
        self, circuit: Circuit, assignments: list[dict[str, int]]
    ) -> list[CircuitLeakageReport]:
        """Solve one memory-bounded chunk of assignments as a single batch."""
        start = time.perf_counter()
        flattened = flatten_batch(circuit, self.technology, assignments)
        solver = BatchedDcSolver(
            flattened.netlist_views(), self.temperature_k, self.solver_options
        )
        op = solver.solve(initial_voltages=flattened.initial_voltages())
        per_owner = solver.leakage_by_owner(op)

        batch = flattened.batch
        elapsed = time.perf_counter() - start
        per_vector = elapsed / batch

        gates = list(circuit.gates.values())
        breakdowns = []
        for gate in gates:
            batched = per_owner.get(gate.name)
            if batched is None:
                raise _missing_owner_error(gate, per_owner)
            breakdowns.append(batched)

        reports: list[CircuitLeakageReport] = []
        for index in range(batch):
            net_values = flattened.net_values[index]
            per_gate = {
                gate.name: GateLeakage(
                    gate_name=gate.name,
                    gate_type_name=gate.gate_type.value,
                    vector=tuple(net_values[net] for net in gate.inputs),
                    breakdown=batched.at(index),
                )
                for gate, batched in zip(gates, breakdowns)
            }
            metadata = {
                "runtime_s": per_vector,
                "gate_count": len(per_gate),
                "transistors": flattened.transistor_count,
                "solver_sweeps": int(op.sweeps[index]),
                "solver_converged": bool(op.converged[index]),
                "solver_method": op.method,
                "engine": "batched",
                "batch": batch,
                "newton_iterations": int(op.newton_iterations[index]),
                "solver_fallback": bool(op.fallback[index]),
            }
            reports.append(
                CircuitLeakageReport(
                    circuit_name=circuit.name,
                    method=self.method_name,
                    input_assignment=dict(assignments[index]),
                    per_gate=per_gate,
                    temperature_k=self.temperature_k,
                    vdd=self.technology.vdd,
                    metadata=metadata,
                )
            )
        return reports


def run_reference_campaign(
    circuit: Circuit,
    technology: TechnologyParams,
    vectors: Iterable[dict[str, int]] | None = None,
    count: int = 20,
    rng: RngLike = None,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    chunk_size: int = DEFAULT_REFERENCE_CHUNK_SIZE,
    lint: str = "raise",
) -> VectorCampaignResult:
    """Run the transistor-level reference solve over a whole vector set.

    The reference twin of :func:`repro.core.vectors.run_vector_campaign`:
    it produces a :class:`VectorCampaignResult` whose reports come from the
    full transistor-level solve instead of the LUT estimator, so the two
    campaign results compare directly (Fig. 12a).

    Parameters
    ----------
    vectors:
        Explicit vector set; when omitted, ``count`` random vectors are
        drawn using ``rng``.
    chunk_size:
        Vectors per :meth:`ReferenceSimulator.estimate_batch` solve; a
        memory bound with no effect on the results (chunking is
        bitwise-neutral).
    lint:
        Netlist pre-flight policy (``"raise"`` | ``"warn"`` | ``"off"``),
        forwarded to :class:`ReferenceSimulator`.
    """
    if vectors is None:
        vectors = list(random_vectors(circuit, count, rng))
    else:
        vectors = list(vectors)
    if not vectors:
        # An empty campaign would only surface later as NaN means.
        raise ValueError("no vectors to evaluate")
    simulator = ReferenceSimulator(technology, temperature_k, solver_options, lint=lint)
    return VectorCampaignResult(
        circuit_name=circuit.name,
        method=ReferenceSimulator.method_name,
        reports=simulator.estimate_batch(circuit, vectors, chunk_size=chunk_size),
    )
