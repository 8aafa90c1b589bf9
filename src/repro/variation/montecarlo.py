"""Monte-Carlo driver for the loaded-inverter variation study (Figs. 10-11).

Every sample

1. draws the inter-die shifts (L, Tox, Vth, VDD) shared by the die,
2. draws per-transistor intra-die Vth shifts for the transistors of the
   *loaded* structure,
3. solves two structures under those parameters:

   * the *loaded* inverter of Fig. 10 — an inverter ``g`` whose input net is
     shared with ``input_loads`` other inverters and whose output net feeds
     ``output_loads`` inverters, and
   * the *unloaded* twin — the same driver + inverter with no neighbours,
     whose transistors reuse the intra-die shifts of their loaded-structure
     counterparts, so the two solves differ only by the presence of loading,

4. records the leakage components of the inverter under study.

Each structure is flattened once with the nominal technology — variation
changes numbers, never topology — and every sample's parameters are bound
as arrays: per-sample supplies for the rails and seeds, per-sample
constants of the shifted device flavours, and a (transistor, sample)
Vth-shift matrix.  All loaded structures then solve as one
:class:`~repro.spice.batched.BatchedDcSolver` batch and all unloaded twins
as a second.  The one-sample-at-a-time path that flattens each sample under
its shifted technology is the test oracle
:func:`repro.oracle.monte_carlo_per_sample`.

Two *samplers* feed that solve (:func:`draw_parameters`): ``"mc"``
(default) draws pseudo-random parameters from per-sample
``SeedSequence.spawn`` streams; ``"qmc"`` draws the whole parameter block
from a scrambled Sobol sequence (:mod:`repro.variation.qmc`) with the same
marginal distributions — the variance-reduced path that reaches a given
Fig. 10/11 accuracy at a fraction of the sample budget.

Sample convergence is governed by ``on_nonconverged``: ``"warn"`` (default)
records the sample with ``converged=False`` and the run emits one
:class:`MonteCarloConvergenceWarning` naming the non-converged count,
pointed at the caller's line; ``"raise"`` turns a stalled solve into a hard
``RuntimeError``; and ``"drop"`` excludes the sample from the recorded
populations (the dropped count is reported in ``MonteCarloResult.metadata``)
— so a non-converged operating point can never silently bias the
Fig. 10/11 statistics.

The resulting paired samples are exactly what Fig. 10 histograms ("No
Loading" vs "with Loading") and Fig. 11 statistics (loading-induced change of
the mean and standard deviation) are computed from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.flatten import flatten
from repro.circuit.generators import loaded_inverter_cluster
from repro.device.batched import PackedMosfets
from repro.device.params import DeviceParams, TechnologyParams
from repro.spice.analysis import ComponentBreakdown
from repro.spice.batched import BatchedDcSolver
from repro.spice.solver import SolverOptions
from repro.utils.rng import RngLike, spawn_streams
from repro.variation.qmc import ParameterDraws, draw_qmc_parameters
from repro.variation.spec import (
    VariationSpec,
    _shift_device,
    sample_inter_die,
    sample_intra_die_vth,
    shifted_vdd,
)

#: Name of the inverter under study inside the generated cluster.
_TARGET_GATE = "g"

#: Valid parameter samplers.
SAMPLERS = ("mc", "qmc")

#: Valid non-convergence policies.
NONCONVERGED_POLICIES = ("warn", "raise", "drop")


class MonteCarloConvergenceWarning(UserWarning):
    """Samples of a Monte-Carlo run ended without converging.

    A sample recorded from a non-converged operating point can bias the
    Fig. 10/11 statistics; the warning names how many of the requested
    samples did not converge and the study configuration, and points at the
    line that started the run.  Emitted once per run under
    ``on_nonconverged="warn"`` (the default); ``"raise"`` turns the
    condition into a ``RuntimeError`` naming the structure and the worst
    final voltage update, and ``"drop"`` excludes the affected samples
    instead.
    """


@dataclass(frozen=True)
class MonteCarloSample:
    """Leakage of the studied inverter for one parameter sample."""

    with_loading: ComponentBreakdown
    without_loading: ComponentBreakdown
    #: True when both structure solves of this sample converged.
    converged: bool = True


@dataclass
class MonteCarloResult:
    """All samples of one Monte-Carlo run plus the configuration used."""

    spec: VariationSpec
    input_value: int
    input_loads: int
    output_loads: int
    samples: list[MonteCarloSample] = field(default_factory=list)
    #: Execution provenance (the sampler used and, under ``"drop"``, the
    #: count of samples dropped as non-converged); never feeds back into
    #: the sample values.
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def sample_count(self) -> int:
        """Return the number of recorded Monte-Carlo samples."""
        return len(self.samples)

    @property
    def converged_mask(self) -> np.ndarray:
        """Return the per-sample converged flags as a boolean array.

        Under ``on_nonconverged="drop"`` non-converged samples are never
        recorded, so the mask is all-True and
        ``metadata["dropped_nonconverged"]`` carries the dropped count;
        under ``"warn"`` the mask marks the suspect samples in place.
        """
        return np.array([s.converged for s in self.samples], dtype=bool)

    def values(self, component: str, loaded: bool = True) -> np.ndarray:
        """Return one component's samples in amperes.

        Parameters
        ----------
        component:
            ``subthreshold`` / ``gate`` / ``btbt`` / ``total``.
        loaded:
            True for the with-loading population, False for the unloaded one.
        """
        return np.array(
            [
                (s.with_loading if loaded else s.without_loading).component(component)
                for s in self.samples
            ]
        )


def _check_policy(on_nonconverged: str) -> str:
    if on_nonconverged not in NONCONVERGED_POLICIES:
        raise ValueError(
            f"on_nonconverged must be one of {NONCONVERGED_POLICIES}, "
            f"got {on_nonconverged!r}"
        )
    return on_nonconverged


def _raise_nonconverged(policy: str, message: str) -> None:
    """Apply the ``"raise"`` policy to a solve (or batch) that did not converge.

    ``"warn"`` is applied once per run by
    :func:`run_loaded_inverter_monte_carlo` and ``"drop"`` by
    :func:`_keep_converged`.
    """
    if policy == "raise":
        raise RuntimeError(message)


@dataclass(frozen=True)
class SampleTask:
    """Everything one Monte-Carlo sample needs, minus its random stream."""

    technology: TechnologyParams
    spec: VariationSpec
    input_value: int
    input_loads: int
    output_loads: int
    temperature_k: float
    solver_options: SolverOptions
    on_nonconverged: str = "warn"


def _loaded_flat_names(loaded_circuit) -> list[str]:
    """Return the flattened transistor names of the loaded structure."""
    return [
        f"{gate}.{suffix}"
        for gate in loaded_circuit.gates
        for suffix in ("mn1", "mp2")
    ]


def loaded_transistor_count(input_loads: int, output_loads: int) -> int:
    """Return the intra-die axis count of the Fig. 10 loaded structure.

    One Vth shift per flattened transistor — the Sobol dimension budget of
    the QMC sampler beyond the four inter-die axes.
    """
    return len(_loaded_flat_names(loaded_inverter_cluster(input_loads, output_loads)))


def _study_circuits(task: SampleTask):
    """Return (loaded circuit, unloaded twin, input assignment, flat names)."""
    loaded_circuit = loaded_inverter_cluster(task.input_loads, task.output_loads)
    unloaded_circuit = loaded_inverter_cluster(0, 0, name="unloaded_inverter")
    # The driver input is the complement of the studied inverter's input.
    assignment = {"in": 1 - task.input_value}
    return loaded_circuit, unloaded_circuit, assignment, _loaded_flat_names(loaded_circuit)


def _stream_draws(
    task: SampleTask, streams: Sequence[np.random.Generator]
) -> ParameterDraws:
    """Draw one sample's parameters from each stream, as one block.

    A stream is consumed in this order — the inter-die shifts first, then
    one intra-die Vth shift per transistor of the loaded structure.
    """
    count = loaded_transistor_count(task.input_loads, task.output_loads)
    inter, intra = [], []
    for rng in streams:
        inter.append(sample_inter_die(task.spec, rng))
        intra.append(sample_intra_die_vth(task.spec, rng, count))
    return ParameterDraws(
        spec=task.spec,
        delta_length_nm=np.array([sample.delta_length_nm for sample in inter]),
        delta_tox_nm=np.array([sample.delta_tox_nm for sample in inter]),
        delta_vth_v=np.array([sample.delta_vth_v for sample in inter]),
        delta_vdd_v=np.array([sample.delta_vdd_v for sample in inter]),
        intra_vth_v=np.array(intra).reshape(len(intra), count),
    )


def _check_draws(task: SampleTask, draws: ParameterDraws) -> None:
    """Reject a draw block whose intra-die axes do not fit the loaded structure."""
    count = loaded_transistor_count(task.input_loads, task.output_loads)
    if draws.transistor_count != count:
        raise ValueError(
            f"draws carry {draws.transistor_count} intra-die axes but the "
            f"loaded structure has {count} transistors"
        )


def draw_parameters(
    task: SampleTask, sampler: str, samples: int, rng: RngLike
) -> ParameterDraws:
    """Draw the parameter block of one ``samples``-sample run.

    ``"mc"`` consumes one ``SeedSequence.spawn`` stream per sample (sample
    ``i`` uses stream ``i``); ``"qmc"`` draws a scrambled Sobol block seeded
    through ``rng``.  The block is drawn before anything is solved, so how
    its columns are later batched never changes which parameters a sample
    gets.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLERS}")
    if sampler == "qmc":
        return draw_qmc_parameters(
            task.spec,
            samples,
            loaded_transistor_count(task.input_loads, task.output_loads),
            rng,
        )
    return _stream_draws(task, spawn_streams(rng, samples))


def _solve_parameter_sets(
    task: SampleTask, draws: ParameterDraws
) -> list[MonteCarloSample]:
    """Solve a block of parameter columns as two batched DC solves.

    The one batched solve behind :func:`simulate_batch_from_draws` (drawn
    columns) and :mod:`repro.variation.moments` (stencil columns).
    Variation changes numbers, never topology, so each structure is
    flattened once with the nominal technology and column ``b``'s
    parameters are bound as arrays:

    * supply — rails and seeds at :func:`~repro.variation.spec.shifted_vdd`,
      the clamped supply :func:`~repro.variation.spec.apply_inter_die` uses;
    * devices — each distinct slot device (the two flavours at unit width
      in the cluster) shifted by column ``b``'s inter-die sample, packed per
      kind and gathered per slot
      (:meth:`~repro.device.batched.PackedMosfets.from_kinds`); exact
      because ``_shift_device`` touches only L/Tox/Vth0 and ``scaled_width``
      only the width;
    * Vth — a (transistor, column) matrix of the loaded structure's
      intra-die shifts; the unloaded twin takes its transistors' shifts by
      name.

    Column ``b`` is therefore bitwise what flattening both structures under
    ``apply_inter_die(technology, draws.inter_die(b))`` would solve, and
    every per-column update of the batched solver is independent of the
    other columns, so the result is bitwise-identical however the columns
    are chunked.
    """
    loaded_circuit, unloaded_circuit, assignment, names = _study_circuits(task)
    flats = [
        flatten(circuit, task.technology, assignment)
        for circuit in (loaded_circuit, unloaded_circuit)
    ]
    inter = [draws.inter_die(b) for b in range(draws.sample_count)]
    devices = list(
        dict.fromkeys(t.mosfet.device for f in flats for t in f.netlist.transistors)
    )
    kinds = [[_shift_device(device, sample) for sample in inter] for device in devices]
    kind_of: dict[DeviceParams, int] = {device: k for k, device in enumerate(devices)}
    shift_row = {name: row for row, name in enumerate(names)}
    supply = shifted_vdd(task.technology.vdd, draws.delta_vdd_v)

    tables, converged = [], []
    for flattened, label in zip(flats, ("loaded-structure", "unloaded-structure")):
        transistors = flattened.netlist.transistors
        packed = PackedMosfets.from_kinds(
            kinds,
            [kind_of[t.mosfet.device] for t in transistors],
            draws.intra_vth_v[:, [shift_row[t.name] for t in transistors]].T,
            task.temperature_k,
        )
        batch = flattened.at_supplies(supply)
        solver = BatchedDcSolver(
            batch.netlist_views(), task.temperature_k, task.solver_options, packed
        )
        op = solver.solve(initial_voltages=batch.initial_voltages())
        if not op.all_converged:
            bad = np.flatnonzero(~op.converged)
            _raise_nonconverged(
                task.on_nonconverged,
                f"{bad.size} of {op.batch} Monte-Carlo {label} solves did "
                f"not converge (worst final voltage update "
                f"{float(op.max_update[bad].max()):.3e} V)",
            )
        tables.append(solver.leakage_by_owner(op)[_TARGET_GATE])
        converged.append(np.asarray(op.converged, bool))

    loaded, unloaded = tables
    both = converged[0] & converged[1]
    return [
        MonteCarloSample(
            with_loading=loaded.at(b),
            without_loading=unloaded.at(b),
            converged=bool(both[b]),
        )
        for b in range(draws.sample_count)
    ]


def _keep_converged(
    task: SampleTask, samples: list[MonteCarloSample]
) -> list[MonteCarloSample]:
    """Apply the ``"drop"`` policy: exclude non-converged samples."""
    if task.on_nonconverged != "drop":
        return samples
    return [sample for sample in samples if sample.converged]


def simulate_batch_from_draws(
    task: SampleTask, draws: ParameterDraws
) -> list[MonteCarloSample]:
    """Run one sample per pre-drawn parameter row, solving them as two batches.

    The parameters were drawn up front (:func:`draw_parameters`), and every
    per-column update of the batched solver is independent of the other
    columns, so solving :meth:`~repro.variation.qmc.ParameterDraws.slice`
    blocks of the rows gives bitwise the same samples as one block.
    """
    _check_draws(task, draws)
    return _keep_converged(task, _solve_parameter_sets(task, draws))


def build_sample_task(
    technology: TechnologyParams,
    spec: VariationSpec | None = None,
    input_value: int = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    on_nonconverged: str = "warn",
) -> SampleTask:
    """Validate the study parameters and return the shared :class:`SampleTask`."""
    if input_value not in (0, 1):
        raise ValueError("input_value must be 0 or 1")
    if input_loads < 0 or output_loads < 0:
        raise ValueError("load counts must be non-negative")
    return SampleTask(
        technology=technology,
        spec=spec or VariationSpec(),
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        temperature_k=(
            technology.temperature_k if temperature_k is None else float(temperature_k)
        ),
        solver_options=solver_options or SolverOptions(),
        on_nonconverged=_check_policy(on_nonconverged),
    )


def run_loaded_inverter_monte_carlo(
    technology: TechnologyParams,
    spec: VariationSpec | None = None,
    samples: int = 200,
    rng: RngLike = None,
    input_value: int = 0,
    input_loads: int = 6,
    output_loads: int = 6,
    temperature_k: float | None = None,
    solver_options: SolverOptions | None = None,
    sampler: str = "mc",
    on_nonconverged: str = "warn",
) -> MonteCarloResult:
    """Run the Fig. 10 Monte-Carlo study and return the paired samples.

    Parameters
    ----------
    technology:
        Nominal technology; each sample perturbs a copy of it.
    spec:
        Variation magnitudes (defaults to the paper's Fig. 11 values).
    samples:
        Number of Monte-Carlo samples (the paper uses 10,000; the default is
        sized for interactive runs and is a parameter precisely so the full
        count can be reproduced when time allows).  With ``sampler="qmc"``
        prefer powers of two (Sobol balance).
    input_value:
        Logic value applied to the studied inverter's input (the paper uses
        input '0', output '1').
    input_loads / output_loads:
        Number of inverters loading the input and output nets (6 and 6 in
        Fig. 10).
    sampler:
        ``"mc"`` (default) draws pseudo-random parameters from per-sample
        spawned streams; ``"qmc"`` draws the whole block from a scrambled
        Sobol sequence seeded through the same root rng (variance-reduced,
        same marginal distributions).
    on_nonconverged:
        ``"warn"`` (default) records non-converged samples and warns;
        ``"raise"`` errors out; ``"drop"`` excludes them (count reported in
        ``metadata["dropped_nonconverged"]``).

    With ``sampler="mc"`` each sample draws from its own
    ``SeedSequence.spawn``-derived stream (sample ``i`` uses stream ``i``);
    with ``sampler="qmc"`` the block comes from one Sobol sequence.  Either
    way the whole parameter block is drawn before any solve, and all
    samples solve as two batched DC solves.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    task = build_sample_task(
        technology,
        spec=spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        temperature_k=temperature_k,
        solver_options=solver_options,
        on_nonconverged=on_nonconverged,
    )
    collected = simulate_batch_from_draws(
        task, draw_parameters(task, sampler, samples, rng)
    )
    if task.on_nonconverged == "warn":
        failed = sum(not sample.converged for sample in collected)
        if failed:
            warnings.warn(
                f"{failed} of {samples} Monte-Carlo samples did not converge "
                f"(input {input_value}, {input_loads}+{output_loads} loads); "
                "they are recorded with converged=False",
                MonteCarloConvergenceWarning,
                stacklevel=2,
            )
    metadata: dict[str, object] = {"sampler": sampler}
    if task.on_nonconverged == "drop":
        metadata["dropped_nonconverged"] = samples - len(collected)
    return MonteCarloResult(
        spec=task.spec,
        input_value=input_value,
        input_loads=input_loads,
        output_loads=output_loads,
        samples=collected,
        metadata=metadata,
    )
