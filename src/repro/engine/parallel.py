"""Process-pool drivers for the transistor-level batch workloads.

Two campaign types distribute here:

* :class:`ParallelMonteCarlo` — the Fig. 10/11 Monte-Carlo variation study;
* :class:`ParallelReferenceCampaign` — transistor-level reference solves of
  whole vector sets (the Fig. 12a "SPICE" column), chunked into
  memory-bounded same-topology batches.

Every unit of work is an independent set of transistor-level DC solves —
embarrassingly parallel and CPU-bound, i.e. exactly the workload a process
pool (not threads: the solves are pure Python/NumPy) speeds up.

With the default ``engine="batched"`` the unit of distribution is a
*contiguous batch* of samples, not a single sample: each worker binds its
chunk's parameters to the two study structures and runs two
:class:`~repro.spice.batched.BatchedDcSolver` solves, so process-level
parallelism multiplies the batched solver's vectorization instead of
replacing it.  ``engine="scalar"`` distributes one sample per
pool task through the original reference path.

Reproducibility is the design constraint: both the serial driver and this
parallel one derive sample ``i``'s generator from the same
``SeedSequence.spawn`` tree (:func:`repro.utils.rng.spawn_streams`), and the
batched solver's per-column updates are independent of batch composition, so
a run is bitwise-identical for a given root seed and engine regardless of
worker count, chunking, or completion order.  The regression tests pin the
parallel samples against the serial driver's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.circuit.netlist import Circuit
from repro.core.reference import (
    DEFAULT_REFERENCE_CHUNK_SIZE,
    REFERENCE_ENGINES,
    ReferenceSimulator,
)
from repro.core.vectors import VectorCampaignResult
from repro.device.params import TechnologyParams
from repro.resilience import ResilienceOptions, checkpoint_fingerprint
from repro.spice.solver import SolverOptions
from repro.utils.rng import RngLike, rng_state_token, spawn_streams
from repro.variation.montecarlo import (
    SAMPLERS,
    MonteCarloResult,
    _keep_converged,
    _result_metadata,
    _simulate_batch_star,
    _simulate_draws_batch_star,
    _simulate_draws_scalar_star,
    _warn_nonconverged,
    build_sample_task,
    loaded_transistor_count,
    simulate_batch,
    simulate_batch_from_draws,
    simulate_sample,
    simulate_samples_from_draws,
)
from repro.variation.qmc import draw_qmc_parameters
from repro.variation.spec import VariationSpec


def default_workers(max_workers: int | None) -> int:
    """Resolve the worker count shared by both drivers (CPU count, capped)."""
    if max_workers is None:
        max_workers = min(os.cpu_count() or 1, 8)
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    return max_workers


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    resilience: ResilienceOptions | None,
    fingerprint_payload: Callable[[], dict[str, Any]],
) -> tuple[list[Any], dict[str, object]]:
    """Run a chunked pool map under resilience supervision.

    The shared pooled path of every chunked driver (both campaign classes
    here and the island fan-out of :mod:`repro.optimize.search`): builds
    the supervised executor from ``resilience`` (defaults apply when the
    caller passed ``None``), wires up the fingerprinted checkpoint and the
    resume set when configured, and returns ``(results, metadata)`` with
    the retry ledger under ``metadata["resilience"]``.

    ``fingerprint_payload`` is only called when a checkpoint is configured;
    it must return everything that can change a chunk result or the chunk
    layout (task definition, options, RNG state token, chunk count).
    """
    opts = resilience or ResilienceOptions()
    checkpoint = None
    completed = None
    if opts.checkpoint_path is not None:
        payload = fingerprint_payload()
        if payload.get("rng", "absent") is None:
            raise ValueError(
                "checkpointing requires a reproducible rng (an explicit seed "
                "or Generator); rng=None runs cannot be resumed bitwise"
            )
        checkpoint = opts.checkpoint(checkpoint_fingerprint(payload))
        if opts.resume:
            completed = checkpoint.load()
    results, ledger = opts.executor(workers).map(
        fn, items, checkpoint=checkpoint, completed=completed
    )
    resilience_meta = ledger.as_dict()
    if checkpoint is not None:
        resilience_meta["checkpoint_publishes"] = checkpoint.publishes
        if not opts.keep_checkpoint:
            checkpoint.complete()
    return results, {"resilience": resilience_meta}


def _simulate_scalar_chunk_star(args):
    """Process-pool adapter: run one contiguous chunk of scalar samples."""
    task, streams = args
    return _keep_converged(
        task, [simulate_sample(task, stream) for stream in streams]
    )


class ParallelMonteCarlo:
    """Fans Monte-Carlo samples of the Fig. 10 study across worker processes.

    Parameters
    ----------
    technology:
        Nominal technology; each sample perturbs a copy of it.
    spec / input_value / input_loads / output_loads / temperature_k /
    solver_options:
        Study configuration, identical in meaning to
        :func:`repro.variation.montecarlo.run_loaded_inverter_monte_carlo`.
    max_workers:
        Worker-process count; ``None`` uses the CPU count (capped at 8 —
        beyond that pool startup dominates for typical sample counts) and
        ``1`` runs in-process with no pool at all.
    engine:
        ``"batched"`` (default) ships contiguous stream chunks to workers,
        each solved as one batch; ``"scalar"`` ships contiguous sample
        chunks through the reference path one sample at a time.
    sampler:
        ``"mc"`` (default) spawns one pseudo-random stream per sample;
        ``"qmc"`` draws the whole scrambled-Sobol parameter block up front
        and ships :meth:`~repro.variation.qmc.ParameterDraws.slice` chunks
        — chunk boundaries choose *who* solves a sample, never *which*
        parameters it gets, so pooled runs stay bitwise serial-identical.
    on_nonconverged:
        Non-convergence policy forwarded to every sample solve (``"warn"``
        / ``"raise"`` / ``"drop"``); under ``"warn"`` :meth:`run` emits one
        warning in this process from the merged flags (workers stay
        quiet), and under ``"drop"`` the pooled result reports the dropped
        count in ``metadata["dropped_nonconverged"]`` — both exactly like
        the serial driver.
    resilience:
        Optional :class:`~repro.resilience.ResilienceOptions` — retry
        policy, per-chunk deadline, checkpoint/resume, fault injection.
        Providing it forces the supervised pool path even at one worker;
        pooled runs without it still get the default supervision
        (worker-death recovery with the stock retry policy).
    """

    def __init__(
        self,
        technology: TechnologyParams,
        spec: VariationSpec | None = None,
        input_value: int = 0,
        input_loads: int = 6,
        output_loads: int = 6,
        temperature_k: float | None = None,
        solver_options: SolverOptions | None = None,
        max_workers: int | None = None,
        engine: str = "batched",
        sampler: str = "mc",
        on_nonconverged: str = "warn",
        resilience: ResilienceOptions | None = None,
    ) -> None:
        self.task = build_sample_task(
            technology,
            spec=spec,
            input_value=input_value,
            input_loads=input_loads,
            output_loads=output_loads,
            temperature_k=temperature_k,
            solver_options=solver_options,
            on_nonconverged=on_nonconverged,
        )
        if engine not in ("batched", "scalar"):
            raise ValueError(f"unknown Monte-Carlo engine {engine!r}")
        if sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {sampler!r}; expected one of {SAMPLERS}"
            )
        self.max_workers = default_workers(max_workers)
        self.engine = engine
        self.sampler = sampler
        self.resilience = resilience

    def run(self, samples: int, rng: RngLike = None) -> MonteCarloResult:
        """Run ``samples`` Monte-Carlo samples and return the paired results.

        Samples keep their stream order in the result (worker completion
        order never matters), so ``run(n, seed)`` equals the serial
        ``run_loaded_inverter_monte_carlo(..., samples=n, rng=seed,
        engine=..., sampler=...)`` sample for sample — bitwise, for either
        engine and either sampler, and still under injected faults: a
        retried chunk re-runs from its original spawned streams (``"mc"``)
        or its pre-drawn parameter slice (``"qmc"``), which live untouched
        in this process.
        """
        if samples < 1:
            raise ValueError("samples must be at least 1")
        task = self.task
        rng_token = (
            rng_state_token(rng)
            if self.resilience is not None
            and self.resilience.checkpoint_path is not None
            else "absent"
        )
        draws = streams = None
        if self.sampler == "qmc":
            draws = draw_qmc_parameters(
                task.spec,
                samples,
                loaded_transistor_count(task.input_loads, task.output_loads),
                rng,
            )
        else:
            streams = spawn_streams(rng, samples)
        workers = min(self.max_workers, samples)
        metadata: dict[str, object] = {}
        if workers == 1 and self.resilience is None:
            if self.sampler == "qmc":
                simulate_draws = (
                    simulate_batch_from_draws
                    if self.engine == "batched"
                    else simulate_samples_from_draws
                )
                results = simulate_draws(task, draws)
            elif self.engine == "batched":
                results = simulate_batch(task, streams)
            else:
                results = _keep_converged(
                    task, [simulate_sample(task, stream) for stream in streams]
                )
        else:
            # Contiguous chunks, one pool task per chunk; order-preserving
            # supervised map + per-column solver independence keep results
            # identical to the serial run whatever the chunk boundaries,
            # worker count, or injected faults.
            if self.engine == "batched":
                chunk = -(-samples // workers)
                fn: Callable[[Any], Any] = (
                    _simulate_draws_batch_star
                    if self.sampler == "qmc"
                    else _simulate_batch_star
                )
            else:
                chunk = max(1, samples // (workers * 4))
                fn = (
                    _simulate_draws_scalar_star
                    if self.sampler == "qmc"
                    else _simulate_scalar_chunk_star
                )
            starts = range(0, samples, chunk)
            if self.sampler == "qmc":
                items = [(task, draws.slice(start, start + chunk)) for start in starts]
            else:
                items = [(task, streams[start : start + chunk]) for start in starts]
            batches, metadata = supervised_map(
                fn,
                items,
                workers,
                self.resilience,
                lambda: {
                    "kind": "monte-carlo",
                    "engine": self.engine,
                    "sampler": self.sampler,
                    "task": task,
                    "samples": samples,
                    "chunks": len(items),
                    "rng": rng_token,
                },
            )
            results = [sample for batch in batches for sample in batch]
        _warn_nonconverged(task, results, samples)
        metadata = {
            **_result_metadata(self.sampler, task, samples, len(results)),
            **metadata,
        }
        return MonteCarloResult(
            spec=task.spec,
            input_value=task.input_value,
            input_loads=task.input_loads,
            output_loads=task.output_loads,
            samples=results,
            metadata=metadata,
        )


@dataclass(frozen=True)
class _ReferenceChunkTask:
    """Everything a reference-campaign chunk needs, minus its vectors.

    Picklable (circuit, technology and solver options are plain
    dataclasses) so a process pool can ship one copy per worker.
    """

    circuit: Circuit
    technology: TechnologyParams
    temperature_k: float | None
    solver_options: SolverOptions | None
    engine: str


def _reference_chunk_star(args: tuple[_ReferenceChunkTask, list[dict[str, int]]]):
    """Process-pool adapter: solve one chunk of reference vectors."""
    task, chunk = args
    simulator = ReferenceSimulator(
        task.technology, task.temperature_k, task.solver_options
    )
    if task.engine == "batched":
        # The chunk already is the memory bound; solve it as one batch.
        return simulator.estimate_batch(task.circuit, chunk, chunk_size=len(chunk))
    return [simulator.estimate(task.circuit, vector) for vector in chunk]


class ParallelReferenceCampaign:
    """Fans transistor-level reference solves across worker processes.

    The reference twin of :class:`ParallelMonteCarlo`: a vector set splits
    into contiguous ``chunk_size`` batches, each worker flattens the circuit
    once and solves its chunk as one
    :class:`~repro.spice.batched.BatchedDcSolver` batch, and the reports are
    reassembled in vector order.  Because every per-column update of the
    batched solver is independent of its batch neighbours, the result is
    bitwise identical to the serial
    :func:`repro.core.reference.run_reference_campaign` whatever the chunk
    boundaries or worker count — chunking bounds peak memory, nothing else.

    Parameters
    ----------
    technology / temperature_k / solver_options:
        Reference-solve configuration, identical in meaning to
        :class:`~repro.core.reference.ReferenceSimulator`.
    max_workers:
        Worker-process count; ``None`` uses the CPU count (capped at 8) and
        ``1`` runs in-process with no pool at all.
    chunk_size:
        Vectors per batch (the per-worker memory bound).
    engine:
        ``"batched"`` (default) solves each chunk as one batch;
        ``"scalar"`` runs the oracle path vector by vector inside each
        chunk.
    resilience:
        Optional :class:`~repro.resilience.ResilienceOptions` — retry
        policy, per-chunk deadline, checkpoint/resume, fault injection.
        Providing it forces the supervised pool path even at one worker;
        pooled runs without it still get the default supervision.
    """

    def __init__(
        self,
        technology: TechnologyParams,
        temperature_k: float | None = None,
        solver_options: SolverOptions | None = None,
        max_workers: int | None = None,
        chunk_size: int = DEFAULT_REFERENCE_CHUNK_SIZE,
        engine: str = "batched",
        resilience: ResilienceOptions | None = None,
    ) -> None:
        if engine not in REFERENCE_ENGINES:
            raise ValueError(
                f"engine must be one of {REFERENCE_ENGINES}, got {engine!r}"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.technology = technology
        self.temperature_k = temperature_k
        self.solver_options = solver_options
        self.max_workers = default_workers(max_workers)
        self.chunk_size = chunk_size
        self.engine = engine
        self.resilience = resilience

    def run(
        self, circuit: Circuit, vectors: Iterable[dict[str, int]]
    ) -> VectorCampaignResult:
        """Solve every vector and return the campaign result in input order."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError("no vectors to evaluate")
        task = _ReferenceChunkTask(
            circuit=circuit,
            technology=self.technology,
            temperature_k=self.temperature_k,
            solver_options=self.solver_options,
            engine=self.engine,
        )
        chunks = [
            vectors[start : start + self.chunk_size]
            for start in range(0, len(vectors), self.chunk_size)
        ]
        workers = min(self.max_workers, len(chunks))
        metadata: dict[str, object] = {}
        if workers == 1 and self.resilience is None:
            chunk_reports = [_reference_chunk_star((task, chunk)) for chunk in chunks]
        else:
            chunk_reports, metadata = supervised_map(
                _reference_chunk_star,
                [(task, chunk) for chunk in chunks],
                workers,
                self.resilience,
                lambda: {
                    "kind": "reference-campaign",
                    "task": task,
                    "vectors": vectors,
                    "chunk_size": self.chunk_size,
                },
            )
        return VectorCampaignResult(
            circuit_name=circuit.name,
            method=ReferenceSimulator.method_name,
            reports=[report for chunk in chunk_reports for report in chunk],
            metadata=metadata,
        )
