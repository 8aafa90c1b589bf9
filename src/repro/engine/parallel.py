"""Process-pool driver for the Fig. 10/11 Monte-Carlo variation study.

:class:`ParallelMonteCarlo` fans the study's samples across worker
processes.  Every unit of work is an independent set of transistor-level DC
solves — embarrassingly parallel and CPU-bound, i.e. exactly the workload a
process pool (not threads: the solves are pure Python/NumPy) speeds up.

The unit of distribution is a *contiguous batch* of samples, not a single
sample: each worker binds its chunk's parameters to the two study
structures and runs two :class:`~repro.spice.batched.BatchedDcSolver`
solves, so process-level parallelism multiplies the batched solver's
vectorization instead of replacing it.

Reproducibility is the design constraint: the serial driver and this
parallel one draw the same parameter block
(:func:`repro.variation.montecarlo.draw_parameters`) and the batched
solver's per-column updates are independent of batch composition, so a run
is bitwise-identical for a given root seed and sampler regardless of worker
count, chunking, or completion order.  The regression tests pin the
parallel samples against the serial driver's.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

from repro.device.params import TechnologyParams
from repro.resilience import ResilienceOptions
from repro.spice.solver import SolverOptions
from repro.utils.rng import RngLike
from repro.variation.montecarlo import (
    SAMPLERS,
    MonteCarloResult,
    _result_metadata,
    _simulate_draws_batch_star,
    _warn_nonconverged,
    build_sample_task,
    draw_parameters,
    simulate_batch_from_draws,
)
from repro.variation.spec import VariationSpec


def default_workers(max_workers: int | None) -> int:
    """Resolve a pool's worker count (CPU count, capped at 8)."""
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
) -> tuple[list[Any], dict[str, object]]:
    """Run a chunked pool map under resilience supervision.

    The shared pooled path of every chunked driver (:class:`ParallelMonteCarlo`
    and the island fan-out of :mod:`repro.optimize.search`): builds
    the supervised executor from ``resilience`` (defaults apply when the
    caller passed ``None``) and returns ``(results, metadata)`` with the
    retry ledger under ``metadata["resilience"]``.
    """
    opts = resilience or ResilienceOptions()
    results, ledger = opts.executor(workers).map(fn, items)
    return results, {"resilience": ledger.as_dict()}


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
    sampler:
        ``"mc"`` (default) spawns one pseudo-random stream per sample;
        ``"qmc"`` draws a scrambled-Sobol block.  Either way the whole
        parameter block is drawn up front and workers receive contiguous
        :meth:`~repro.variation.qmc.ParameterDraws.slice` chunks, each
        solved as one batch — chunk boundaries choose *who* solves a
        sample, never *which* parameters it gets, so pooled runs stay
        bitwise serial-identical.
    on_nonconverged:
        Non-convergence policy forwarded to every sample solve (``"warn"``
        / ``"raise"`` / ``"drop"``); under ``"warn"`` :meth:`run` emits one
        warning in this process from the merged flags (workers stay
        quiet), and under ``"drop"`` the pooled result reports the dropped
        count in ``metadata["dropped_nonconverged"]`` — both exactly like
        the serial driver.
    resilience:
        Optional :class:`~repro.resilience.ResilienceOptions` — retry
        policy, per-chunk deadline, fault injection.
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
        if sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {sampler!r}; expected one of {SAMPLERS}"
            )
        self.max_workers = default_workers(max_workers)
        self.sampler = sampler
        self.resilience = resilience

    def run(self, samples: int, rng: RngLike = None) -> MonteCarloResult:
        """Run ``samples`` Monte-Carlo samples and return the paired results.

        Samples keep their stream order in the result (worker completion
        order never matters), so ``run(n, seed)`` equals the serial
        ``run_loaded_inverter_monte_carlo(..., samples=n, rng=seed,
        sampler=...)`` sample for sample — bitwise, for either sampler, and
        still under injected faults: a retried chunk re-runs from its
        pre-drawn parameter slice, which lives untouched in this process.
        """
        if samples < 1:
            raise ValueError("samples must be at least 1")
        task = self.task
        draws = draw_parameters(task, self.sampler, samples, rng)
        workers = min(self.max_workers, samples)
        metadata: dict[str, object] = {}
        if workers == 1 and self.resilience is None:
            results = simulate_batch_from_draws(task, draws)
        else:
            # Contiguous chunks, one pool task per chunk; order-preserving
            # supervised map + per-column solver independence keep results
            # identical to the serial run whatever the chunk boundaries,
            # worker count, or injected faults.
            chunk = -(-samples // workers)
            items = [
                (task, draws.slice(start, start + chunk))
                for start in range(0, samples, chunk)
            ]
            batches, metadata = supervised_map(
                _simulate_draws_batch_star, items, workers, self.resilience
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
