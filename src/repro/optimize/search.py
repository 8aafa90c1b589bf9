"""Minimum-leakage input-vector search at scale.

The paper's Sec. 6 observation — the standby vector that minimizes total
leakage can change once loading is considered — is the quantity
input-vector-control (IVC) techniques hunt for.  Exhaustive search dies at
~20 primary inputs (2**n vectors); this module turns the batched campaign
engine into an optimizer that handles the full Fig. 12 suite:

* :func:`greedy_minimize` — random-restart greedy bit-flip hill climbing.
  Every round evaluates the *entire* single-flip neighborhood of every
  active restart as one :class:`~repro.optimize.objective.LeakageObjective`
  batch (one engine array pass), moves each restart to its best strictly
  improving neighbor and retires restarts that reached a local minimum.
* :func:`genetic_minimize` — a population GA (elitism, tournament
  selection, uniform crossover, bit-flip mutation) whose offspring of each
  generation are scored as one batch.
* :func:`exhaustive_minimize` — the streaming oracle over all ``2**n``
  vectors, feasible only for small circuits; the parity bar the heuristics
  are tested against.

Reproducibility contract
------------------------
Randomness derives exclusively from ``SeedSequence``-spawned streams
(:func:`repro.utils.rng.spawn_streams`): greedy restart ``i`` draws its
start vector from stream ``i``, genetic island ``i`` drives its whole GA
from stream ``i`` — never from how many other units exist or where they
run.  Together with the engine's column-independent totals (batch
composition and chunking never change a candidate's score bitwise), this
makes every search bitwise identical whether its islands run serially
in-process or fan out over a supervised process pool — worker count is
purely a throughput knob, which the regression and resilience tests and
the vector-search benchmark assert.

Budget accounting
-----------------
Every candidate scored is charged to the objective's evaluation ledger and
reported in :class:`OptimizationResult.evaluations`; the
optimizer-vs-best-of-random comparisons give the random baseline exactly
that many draws, so "beats random at equal evaluation budget" is an
apples-to-apples claim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.campaign import DEFAULT_CHUNK_SIZE
from repro.engine.compile import CompiledCircuit
from repro.optimize.objective import LeakageObjective
from repro.resilience import ResilienceOptions
from repro.utils.rng import RngLike, spawn_streams
from repro.utils.tables import format_table

#: Strategies accepted by :func:`minimize_leakage`.
SEARCH_STRATEGIES = ("exhaustive", "greedy", "genetic")

#: Widest input count :func:`exhaustive_minimize` accepts before refusing
#: (2**24 candidate evaluations is already ~30 s of engine passes).
MAX_EXHAUSTIVE_INPUTS = 24


@dataclass(frozen=True)
class GreedyOptions:
    """Knobs of the random-restart greedy bit-flip hill climber.

    Attributes
    ----------
    restarts:
        Independent restarts; restart ``i`` starts from a vector drawn from
        spawned stream ``i``, so results never depend on the island split.
    max_rounds:
        Optional cap on improvement rounds per restart (each round costs one
        ``n_inputs``-candidate neighborhood batch per active restart); None
        runs every restart to a local minimum — guaranteed to terminate
        because every accepted move strictly lowers the total.
    """

    restarts: int = 8
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")


@dataclass(frozen=True)
class GeneticOptions:
    """Knobs of the per-island genetic search.

    Attributes
    ----------
    population:
        Individuals per island (every generation scores the non-elite
        offspring as one batch).
    generations:
        Hard cap on generations per island.
    elite:
        Individuals carried over unchanged each generation (never
        re-scored — their totals are already known).
    tournament:
        Tournament size of the parent selection.
    crossover_rate:
        Probability a child is produced by uniform crossover of two parents
        (otherwise it clones the first parent before mutation).
    mutation_rate:
        Per-bit flip probability of every child; None uses ``1/n_inputs``.
    stall_generations:
        Early stop: an island halts after this many consecutive generations
        without improving its best total (None disables).
    """

    population: int = 32
    generations: int = 40
    elite: int = 2
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    stall_generations: int | None = 12

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite must be in [0, population)")
        if self.tournament < 1:
            raise ValueError("tournament must be at least 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 < self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in (0, 1]")
        if self.stall_generations is not None and self.stall_generations < 1:
            raise ValueError("stall_generations must be at least 1")


@dataclass(frozen=True)
class IslandDiagnostics:
    """Per-island outcome of one search (picklable: workers return these).

    ``trajectory`` holds the island's best-so-far total after every batch
    pass it charged to the objective — the convergence curve the
    diagnostics tables and plots read.
    """

    index: int
    units: int
    rounds: int
    evaluations: int
    best_total: float
    best_bits: np.ndarray
    stop_reason: str
    trajectory: np.ndarray


@dataclass
class OptimizationResult:
    """Outcome of one minimum-leakage vector search.

    Attributes
    ----------
    strategy:
        ``"exhaustive"`` / ``"greedy"`` / ``"genetic"``.
    circuit_name / n_inputs / include_loading:
        What was searched and under which scoring.
    best_assignment / best_bits / best_total:
        The winning vector (assignment dict, 0/1 row in
        ``primary_inputs`` order) and its total leakage in amperes.
    evaluations:
        Candidate vectors charged to the objective across all islands —
        the budget currency of equal-budget comparisons.
    islands:
        Per-island diagnostics (restart groups for greedy, independent
        populations for genetic, a single pseudo-island for exhaustive).
    converged:
        True when every island stopped on its own convergence signal
        (greedy: all restarts at local minima; genetic: stalled) rather
        than on a round/generation cap.
    """

    strategy: str
    circuit_name: str
    n_inputs: int
    include_loading: bool
    best_assignment: dict[str, int]
    best_bits: np.ndarray
    best_total: float
    evaluations: int
    islands: list[IslandDiagnostics] = field(default_factory=list)
    converged: bool = True
    #: Execution provenance (e.g. the supervised pool's retry ledger under
    #: ``"resilience"``); never feeds back into the search outcome.
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def trajectory(self) -> np.ndarray:
        """Return the running best-so-far total across islands in order.

        Concatenates the island trajectories (island-major, the serial
        execution order) under a running minimum — a single monotone
        convergence curve over the whole evaluation budget.
        """
        parts = [island.trajectory for island in self.islands if island.trajectory.size]
        if not parts:
            return np.empty(0)
        return np.minimum.accumulate(np.concatenate(parts))

    def to_table(self) -> str:
        """Render the search outcome and per-island diagnostics."""
        rows = [
            ["strategy", self.strategy],
            ["circuit", self.circuit_name],
            ["primary inputs", self.n_inputs],
            ["scoring", "loading-aware" if self.include_loading else "no-loading"],
            ["best total [nA]", self.best_total * 1e9],
            ["evaluations", self.evaluations],
            ["islands", len(self.islands)],
            ["converged", self.converged],
        ]
        for island in self.islands:
            rows.append(
                [
                    f"island {island.index}",
                    f"{island.best_total * 1e9:.4f} nA after "
                    f"{island.evaluations} evals, {island.rounds} rounds "
                    f"({island.stop_reason})",
                ]
            )
        return format_table(
            ["quantity", "value"], rows, title="Minimum-leakage vector search"
        )


# --------------------------------------------------------------------------- #
# island execution (shared by the serial loop and the process pool)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _IslandTask:
    """Everything one island needs; picklable for the process pool.

    The compiled circuit carries only plain arrays and the gate-level
    netlist (no library reference), so shipping it is cheap and workers
    never re-characterize anything.
    """

    compiled: CompiledCircuit
    include_loading: bool
    chunk_size: int
    strategy: str
    options: GreedyOptions | GeneticOptions
    index: int
    streams: list[np.random.Generator]


def _run_island(task: _IslandTask) -> IslandDiagnostics:
    """Run one island in the current process and return its diagnostics."""
    objective = LeakageObjective(
        task.compiled,
        include_loading=task.include_loading,
        chunk_size=task.chunk_size,
    )
    if task.strategy == "greedy":
        return _greedy_island(objective, task)
    return _genetic_island(objective, task)


def _greedy_island(objective: LeakageObjective, task: _IslandTask) -> IslandDiagnostics:
    """Batched greedy bit-flip descent of one island's restart group."""
    options = task.options
    n = objective.n_inputs
    restarts = len(task.streams)
    bits = np.stack(
        [stream.integers(0, 2, size=n, dtype=np.uint8) for stream in task.streams]
    )
    totals = objective.totals(bits)
    trajectory = [float(totals.min())]

    flips = np.eye(n, dtype=np.uint8)
    active = np.ones(restarts, dtype=bool)
    rounds = 0
    while active.any():
        if options.max_rounds is not None and rounds >= options.max_rounds:
            break
        current = np.flatnonzero(active)
        # The whole single-flip neighborhood of every active restart is one
        # objective batch: (n_active * n) candidates, one engine array pass.
        neighbors = bits[current][:, None, :] ^ flips[None, :, :]
        scores = objective.totals(neighbors.reshape(-1, n)).reshape(len(current), n)
        best_flip = np.argmin(scores, axis=1)
        best_score = scores[np.arange(len(current)), best_flip]
        improved = best_score < totals[current]
        movers = current[improved]
        bits[movers] ^= flips[best_flip[improved]]
        totals[movers] = best_score[improved]
        active[current[~improved]] = False
        trajectory.append(float(totals.min()))
        rounds += 1

    best = int(np.argmin(totals))
    return IslandDiagnostics(
        index=task.index,
        units=restarts,
        rounds=rounds,
        evaluations=objective.evaluations,
        best_total=float(totals[best]),
        best_bits=bits[best].copy(),
        stop_reason="local-minima" if not active.any() else "max-rounds",
        trajectory=np.minimum.accumulate(np.array(trajectory)),
    )


def _genetic_island(
    objective: LeakageObjective, task: _IslandTask
) -> IslandDiagnostics:
    """One island's independent genetic search, driven by its own stream."""
    options = task.options
    n = objective.n_inputs
    (rng,) = task.streams
    population = options.population
    elite = options.elite
    mutation_rate = (
        options.mutation_rate if options.mutation_rate is not None else 1.0 / n
    )

    bits = rng.integers(0, 2, size=(population, n), dtype=np.uint8)
    totals = objective.totals(bits)
    trajectory = [float(totals.min())]
    best_total = float(totals.min())
    stall = 0
    stop_reason = "generations"
    generations = 0

    for _ in range(options.generations):
        if (
            options.stall_generations is not None
            and stall >= options.stall_generations
        ):
            stop_reason = "stalled"
            break
        order = np.argsort(totals, kind="stable")
        elites = bits[order[:elite]]
        n_children = population - elite

        # Tournament selection: two parents per child, the lower total wins
        # (stable argmin tie-break keeps the draw order deterministic).
        entrants = rng.integers(
            0, population, size=(2 * n_children, options.tournament)
        )
        winners = entrants[
            np.arange(2 * n_children),
            np.argmin(totals[entrants], axis=1),
        ]
        mothers = bits[winners[:n_children]]
        fathers = bits[winners[n_children:]]

        crossed = rng.random(n_children) < options.crossover_rate
        take_father = rng.random((n_children, n)) < 0.5
        children = np.where(crossed[:, None] & take_father, fathers, mothers)
        mutations = rng.random((n_children, n)) < mutation_rate
        children = (children ^ mutations).astype(np.uint8)

        child_totals = objective.totals(children)
        bits = np.concatenate([elites, children])
        totals = np.concatenate([totals[order[:elite]], child_totals])
        generations += 1

        generation_best = float(totals.min())
        if generation_best < best_total:
            best_total = generation_best
            stall = 0
        else:
            stall += 1
        trajectory.append(generation_best)

    best = int(np.argmin(totals))
    return IslandDiagnostics(
        index=task.index,
        units=population,
        rounds=generations,
        evaluations=objective.evaluations,
        best_total=float(totals[best]),
        best_bits=bits[best].copy(),
        stop_reason=stop_reason,
        trajectory=np.minimum.accumulate(np.array(trajectory)),
    )


def _run_islands(
    tasks: Sequence[_IslandTask],
    max_workers: int | None,
    resilience: ResilienceOptions | None,
) -> tuple[list[IslandDiagnostics], dict[str, object]]:
    """Run islands serially or over a supervised pool — identical results.

    ``max_workers=None`` uses the CPU count, capped at 8.  The pool path is
    an order-preserving :class:`~repro.resilience.ResilientExecutor` map
    over self-contained tasks whose randomness was spawned up front, so
    completion order, worker count and crash-and-retry recovery can never
    leak into the outcome; its retry ledger is returned under
    ``metadata["resilience"]``.  Passing ``resilience`` forces the pool
    even at one worker.
    """
    if max_workers is None:
        max_workers = min(os.cpu_count() or 1, 8)
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    workers = min(max_workers, len(tasks))
    if workers == 1 and resilience is None:
        return [_run_island(task) for task in tasks], {}
    executor = (resilience or ResilienceOptions()).executor(workers)
    results, ledger = executor.map(_run_island, tasks)
    return results, {"resilience": ledger.as_dict()}


def _merge_result(
    strategy: str,
    compiled: CompiledCircuit,
    include_loading: bool,
    islands: list[IslandDiagnostics],
    converged: bool,
    metadata: dict[str, object] | None = None,
) -> OptimizationResult:
    """Fold island diagnostics into the final result (deterministic ties)."""
    best = min(islands, key=lambda island: (island.best_total, island.index))
    primary_inputs = compiled.circuit.primary_inputs
    return OptimizationResult(
        strategy=strategy,
        circuit_name=compiled.circuit.name,
        n_inputs=len(primary_inputs),
        include_loading=include_loading,
        best_assignment={
            net: int(bit) for net, bit in zip(primary_inputs, best.best_bits)
        },
        best_bits=best.best_bits.copy(),
        best_total=best.best_total,
        evaluations=sum(island.evaluations for island in islands),
        islands=islands,
        converged=converged,
        metadata=metadata or {},
    )


def _split_contiguous(count: int, parts: int) -> list[slice]:
    """Split ``range(count)`` into ``parts`` contiguous, near-even slices."""
    base, extra = divmod(count, parts)
    slices = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices


# --------------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------------- #


def greedy_minimize(
    compiled: CompiledCircuit,
    include_loading: bool = True,
    options: GreedyOptions | None = None,
    rng: RngLike = None,
    islands: int = 1,
    max_workers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    resilience: ResilienceOptions | None = None,
) -> OptimizationResult:
    """Random-restart greedy bit-flip search for the minimum-leakage vector.

    Restart ``i`` draws its start vector from spawned stream ``i`` and then
    descends deterministically, so the outcome is bitwise independent of
    the island split *and* of the worker count: ``islands``/``max_workers``
    only spread the restart groups over processes (supervised via
    ``resilience`` — worker death, deadlines).
    """
    options = options or GreedyOptions()
    if islands < 1:
        raise ValueError("islands must be at least 1")
    streams = spawn_streams(rng, options.restarts)
    parts = min(islands, options.restarts)
    tasks = [
        _IslandTask(
            compiled=compiled,
            include_loading=include_loading,
            chunk_size=chunk_size,
            strategy="greedy",
            options=options,
            index=i,
            streams=streams[piece],
        )
        for i, piece in enumerate(_split_contiguous(options.restarts, parts))
    ]
    results, metadata = _run_islands(tasks, max_workers, resilience)
    converged = all(island.stop_reason == "local-minima" for island in results)
    return _merge_result(
        "greedy", compiled, include_loading, results, converged, metadata
    )


def genetic_minimize(
    compiled: CompiledCircuit,
    include_loading: bool = True,
    options: GeneticOptions | None = None,
    rng: RngLike = None,
    islands: int = 1,
    max_workers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    resilience: ResilienceOptions | None = None,
) -> OptimizationResult:
    """Island-model genetic search for the minimum-leakage vector.

    Each island runs an independent GA of ``options.population``
    individuals driven entirely by its own spawned stream; the final
    answer is the best across islands.  Serial execution, the supervised
    pool, and a crash-retried run all see identical streams in identical
    order, so the result is bitwise identical either way (asserted by the
    regression and resilience tests).
    """
    options = options or GeneticOptions()
    if islands < 1:
        raise ValueError("islands must be at least 1")
    streams = spawn_streams(rng, islands)
    tasks = [
        _IslandTask(
            compiled=compiled,
            include_loading=include_loading,
            chunk_size=chunk_size,
            strategy="genetic",
            options=options,
            index=i,
            streams=[streams[i]],
        )
        for i in range(islands)
    ]
    results, metadata = _run_islands(tasks, max_workers, resilience)
    converged = all(island.stop_reason == "stalled" for island in results)
    return _merge_result(
        "genetic", compiled, include_loading, results, converged, metadata
    )


def check_exhaustive_width(n_inputs: int) -> None:
    """Refuse an exhaustive sweep over more than MAX_EXHAUSTIVE_INPUTS inputs."""
    if n_inputs > MAX_EXHAUSTIVE_INPUTS:
        raise ValueError(
            f"exhaustive search over {n_inputs} inputs would evaluate "
            f"2**{n_inputs} vectors; use strategy='greedy' or 'genetic' "
            f"beyond {MAX_EXHAUSTIVE_INPUTS} inputs"
        )


def exhaustive_minimize(
    compiled: CompiledCircuit,
    include_loading: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> OptimizationResult:
    """Evaluate every possible input vector and return the true minimum.

    The oracle of the parity tests: streams ``2**n`` candidates through the
    objective in memory-bounded chunks (never materializing the full
    candidate matrix) in the natural binary counting order of
    :func:`repro.circuit.logic.exhaustive_vectors` — the first primary
    input is the most significant bit.  Ties take the lowest code, matching
    the scalar exhaustive loop's first-strictly-better rule.
    """
    objective = LeakageObjective(
        compiled, include_loading=include_loading, chunk_size=chunk_size
    )
    n = objective.n_inputs
    check_exhaustive_width(n)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    best_total = np.inf
    best_code = 0
    trajectory = []
    total_codes = 1 << n
    for lo in range(0, total_codes, chunk_size):
        codes = np.arange(lo, min(lo + chunk_size, total_codes), dtype=np.int64)
        bits = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        totals = objective.totals(bits)
        chunk_best = int(np.argmin(totals))
        if totals[chunk_best] < best_total:
            best_total = float(totals[chunk_best])
            best_code = int(codes[chunk_best])
        trajectory.append(best_total)
    best_bits = ((best_code >> shifts) & 1).astype(np.uint8)
    island = IslandDiagnostics(
        index=0,
        units=total_codes,
        rounds=len(trajectory),
        evaluations=objective.evaluations,
        best_total=best_total,
        best_bits=best_bits,
        stop_reason="exhausted",
        trajectory=np.array(trajectory),
    )
    return _merge_result(
        "exhaustive", compiled, include_loading, [island], converged=True
    )


def minimize_leakage(
    estimator,
    circuit,
    strategy: str = "greedy",
    rng: RngLike = None,
    islands: int = 1,
    max_workers: int | None = None,
    options: GreedyOptions | GeneticOptions | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    session=None,
    resilience: ResilienceOptions | None = None,
) -> OptimizationResult:
    """Search the minimum-leakage vector for a library-backed estimator.

    The front door of the subsystem: compiles ``circuit`` against
    ``estimator.library`` through an estimation session (cached — repeated
    searches reuse the arrays), scores candidates with or without loading
    to match the estimator, and dispatches on ``strategy``.

    Parameters
    ----------
    estimator:
        A library-backed estimator (anything exposing ``library`` and
        ``include_loading``, i.e.
        :class:`~repro.core.estimator.LoadingAwareEstimator` or its
        no-loading wrapper).
    strategy:
        One of :data:`SEARCH_STRATEGIES`.
    options:
        Strategy knobs; must be a :class:`GreedyOptions` for ``"greedy"``,
        a :class:`GeneticOptions` for ``"genetic"``, None for defaults.
        ``"exhaustive"`` rejects options/islands/max_workers (it is a
        deterministic serial stream) and ignores ``rng`` — the oracle has
        no randomness to seed.
    session:
        Optional :class:`repro.service.EstimationSession` owning the
        compile cache (default: the process-default session).
    """
    from repro.service import default_session

    if strategy not in SEARCH_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {SEARCH_STRATEGIES}, got {strategy!r}"
        )
    library = getattr(estimator, "library", None)
    include_loading = getattr(estimator, "include_loading", None)
    if library is None or include_loading is None:
        raise ValueError(
            "vector search requires a library-backed estimator exposing "
            f"'library' and 'include_loading' (got {type(estimator).__name__})"
        )
    compiled = (session or default_session()).compiled(circuit, library)
    if strategy == "exhaustive":
        # The oracle is deterministic and streams one chunk at a time:
        # search knobs have no meaning here, and silently dropping them
        # would mask a caller who meant a heuristic strategy.
        if options is not None:
            raise TypeError("strategy='exhaustive' takes no options")
        if islands != 1 or max_workers is not None:
            raise ValueError(
                "strategy='exhaustive' does not parallelize over islands "
                "or workers"
            )
        if resilience is not None:
            raise ValueError(
                "strategy='exhaustive' runs a serial stream; resilience "
                "supervision applies to the island strategies"
            )
        return exhaustive_minimize(
            compiled, include_loading=include_loading, chunk_size=chunk_size
        )
    if strategy == "greedy":
        if options is not None and not isinstance(options, GreedyOptions):
            raise TypeError("strategy='greedy' takes GreedyOptions")
        return greedy_minimize(
            compiled,
            include_loading=include_loading,
            options=options,
            rng=rng,
            islands=islands,
            max_workers=max_workers,
            chunk_size=chunk_size,
            resilience=resilience,
        )
    if options is not None and not isinstance(options, GeneticOptions):
        raise TypeError("strategy='genetic' takes GeneticOptions")
    return genetic_minimize(
        compiled,
        include_loading=include_loading,
        options=options,
        rng=rng,
        islands=islands,
        max_workers=max_workers,
        chunk_size=chunk_size,
        resilience=resilience,
    )
