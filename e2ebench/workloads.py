"""The four workloads of the end-to-end benchmark.

Each workload runs the production path only — batched engine passes,
Newton-family DC solves, the coalescing session front-end — and no scalar
or Gauss–Seidel oracle runs inside a timed region.  Every input (vector
sets, the query stream, QMC scrambles, search restarts) is derived from the
run's seed; the library receives only the generated inputs.  Circuits are
written to ``.bench`` files before anything is timed and parsed back during
set-up, because a user starts from a netlist file.

A workload returns an :class:`Outcome`; its ``finish`` callback runs the
output checks once the numbers have been read, so checking never shows up
in the numbers it checks.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro.optimize
from repro import make_technology
from repro.circuit import bench_io
from repro.circuit.generators import alu, iscas_like, loaded_inverter_cluster
from repro.core import reference
from repro.core.estimator import LoadingAwareEstimator
from repro.engine.campaign import run_totals
from repro.optimize import GreedyOptions
from repro.service import EstimationSession
from repro.variation import moments

#: Device variant every workload characterizes (the Fig. 12 technology).
TECHNOLOGY = "d25-s"

#: A measured run sets up at least :data:`MIN_SETUPS` times and repeats
#: until :data:`MIN_SETUP_S` of set-up time is measured (at most
#: :data:`MAX_SETUPS` times); a traced run sets up once.
MIN_SETUPS = 3
MIN_SETUP_S = 1.0
MAX_SETUPS = 50

#: Campaign vector blocks of one pass, each a single engine chunk: s838
#: (481 gates) and s13207 (8,552 gates).  s13207's smaller block keeps the
#: workload's peak memory near 0.6 GB.
CAMPAIGN_BLOCKS = {"s838": 512, "s13207": 128}
#: Vectors re-run under a second chunking for the bitwise chunking check.
CHUNK_CHECK_VECTORS = 64
CHUNK_CHECK_SIZE = 16
#: Greedy search on s838, one per pass.  The round cap fixes the work per
#: search (every restart is still descending after four rounds), so search
#: time does not depend on which start vectors the seed drew.
SEARCH_OPTIONS = GreedyOptions(restarts=8, max_rounds=4)

#: Serving: closed loop of two clients (one per core) sending 1-vector
#: queries.  A traced run sends a fixed count, enough for a p99 with ten
#: samples beyond it.  Throughput is answered queries over the wall time
#: of the serving phase.
CLIENTS = 2
WARM_QUERIES = 40
TRACED_QUERIES = 1200
MAX_QUERIES = 20000
ORACLE_QUERIES = 256

#: Reference: one vector block per circuit per pass.  alu88 (490 free
#: nodes) solves dense and s838 (1,054 free nodes after the .bench round
#: trip splits its AOI/OAI gates) solves sparse under ``auto``.
REFERENCE_BLOCK = 16
REFERENCE_WARM = 2

#: Variation: one pass is a cold percentile query of 4 replicates x 512 QMC
#: samples and two moment propagations.
PERCENTILE = 99.9
SAMPLES = 512
REPLICATES = 4
YIELD_LIMIT_A = 1e-5
MOMENTS_PER_PASS = 2


@dataclass
class Plan:
    """How much to run: a timed phase of ``seconds``, or fixed work.

    A workload's timed phase repeats one pass of all its measured requests,
    so every metric samples the whole phase rather than one stretch of it.
    ``seconds=None`` runs exactly one pass (traced runs), so every work
    counter repeats exactly for a seed.
    """

    seed: int
    workdir: Path
    seconds: float | None

    def more(self, done: int, started: float) -> bool:
        """Return whether the timed loop should run another pass."""
        if self.seconds is None:
            return done < 1
        return done < 1 or time.perf_counter() - started < self.seconds


@dataclass
class Outcome:
    """What one workload run measured.

    ``throughput`` counts the workload's answers per second (vectors,
    queries or samples); ``latency_ms`` is the median time of its
    latency-bound request.  ``facts`` feeds the per-layer metrics of a
    traced run; ``finish`` returns the failed output checks.
    """

    setup_s: list[float]
    throughput: float
    latency_ms: float
    attempted: int
    failed: int
    digest: str
    finish: Callable[[], list[str]]
    facts: dict = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _int_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def _bits(seed: int, key: tuple[int, ...], n_inputs: int, count: int) -> np.ndarray:
    """Return a seeded ``(n_inputs, count)`` 0/1 matrix of input vectors.

    Vectors are drawn one after another, so the first vectors of a stream
    do not depend on how many are drawn.
    """
    vectors = _rng(seed, *key).integers(0, 2, size=(count, n_inputs), dtype=np.uint8)
    return np.ascontiguousarray(vectors.T)


def _assignments(circuit, bits: np.ndarray) -> list[dict[str, int]]:
    return [dict(zip(circuit.primary_inputs, map(int, column))) for column in bits.T]


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _write_netlists(workdir: Path, circuits) -> list[Path]:
    paths = []
    for circuit in circuits:
        path = workdir / f"{circuit.name}.bench"
        bench_io.write_bench(circuit, path)
        paths.append(path)
    return paths


def _set_up(plan: Plan, technology, paths: list[Path]):
    """Parse, lint, characterize cold and compile the workload's netlists.

    A traced run (``plan.seconds is None``) sets up once.  A measured run
    sets up :data:`MIN_SETUPS` times and keeps repeating until
    :data:`MIN_SETUP_S` of set-up time is measured, so a set-up of a few
    milliseconds still yields a steady median.  Every set-up starts from a
    fresh session and library, so each pays the cold characterization; the
    previous one is dropped first so that peak memory holds a single
    set-up.  Returns the set-up times and the last
    ``(session, library, circuits)``.
    """

    def more(times: list[float]) -> bool:
        if plan.seconds is None:
            return not times
        return len(times) < MIN_SETUPS or (
            sum(times) < MIN_SETUP_S and len(times) < MAX_SETUPS
        )

    times: list[float] = []
    state = None
    while more(times):
        state = None
        gc.collect()
        start = time.perf_counter()
        circuits = [bench_io.read_bench(path) for path in paths]
        session = EstimationSession()
        library = session.library(technology)
        session.warm_up(circuits, library)
        times.append(time.perf_counter() - start)
        state = (session, library, circuits)
        del circuits, session, library
    return times, state


def _count_nonfinite(values: np.ndarray) -> int:
    return int(np.count_nonzero(~np.isfinite(values)))


# --------------------------------------------------------------------------- #
# campaign
# --------------------------------------------------------------------------- #
def campaign(plan: Plan) -> Outcome:
    """Loading-aware and no-loading totals on s838 and s13207, then a search."""
    technology = make_technology(TECHNOLOGY)
    paths = _write_netlists(plan.workdir, [iscas_like("s838"), iscas_like("s13207")])
    setup_s, (session, library, circuits) = _set_up(plan, technology, paths)

    s838 = circuits[0]
    estimator = LoadingAwareEstimator(library)

    def search(rng: int):
        return repro.optimize.minimize_leakage(
            estimator, s838, strategy="greedy", rng=rng,
            options=SEARCH_OPTIONS, session=session,
        )

    first: dict[tuple[str, bool], tuple[np.ndarray, np.ndarray]] = {}
    pass_rates = []
    searches = []
    search_s = []
    attempted = failed = 0
    passes = 0
    started = time.perf_counter()
    while plan.more(passes, started):
        loaded_vectors = 0
        loaded_s = 0.0
        for index, circuit in enumerate(circuits):
            bits = _bits(
                plan.seed, (1, index, passes),
                len(circuit.primary_inputs), CAMPAIGN_BLOCKS[circuit.name],
            )
            for include_loading in (True, False):
                start = time.perf_counter()
                totals = session.totals(
                    circuit, library, bits,
                    include_loading=include_loading, coalesce=False,
                )
                elapsed = time.perf_counter() - start
                attempted += totals.size
                failed += _count_nonfinite(totals)
                if include_loading:
                    loaded_vectors += totals.size
                    loaded_s += elapsed
                if passes == 0:
                    first[(circuit.name, include_loading)] = (bits, totals)
        pass_rates.append(loaded_vectors / loaded_s)
        start = time.perf_counter()
        searches.append(search(_int_seed(plan.seed, 2, passes)))
        search_s.append(time.perf_counter() - start)
        attempted += 1
        failed += not np.isfinite(searches[-1].best_total)
        passes += 1

    facts: dict = {
        "libraries": [library],
        "sessions": [session],
        "clamp_inputs": [
            (session.compiled(circuit, library), first[(circuit.name, True)][0])
            for circuit in circuits
        ],
    }

    def finish() -> list[str]:
        problems = []
        for circuit in circuits:
            bits, totals = first[(circuit.name, True)]
            rechunked = session.totals(
                circuit, library, bits[:, :CHUNK_CHECK_VECTORS],
                coalesce=False, chunk_size=CHUNK_CHECK_SIZE,
            )
            if not np.array_equal(rechunked, totals[:CHUNK_CHECK_VECTORS]):
                problems.append(f"{circuit.name}: totals differ between chunkings")
        if search(_int_seed(plan.seed, 2, 0)).best_total != searches[0].best_total:
            problems.append("greedy search returned different best totals for one seed")
        return problems

    return Outcome(
        setup_s=setup_s,
        throughput=statistics.median(pass_rates),
        latency_ms=statistics.median(search_s) * 1e3,
        attempted=attempted,
        failed=failed,
        digest=_digest(
            *(totals for _, totals in first.values()),
            [searches[0].best_total],
            searches[0].best_bits,
        ),
        finish=finish,
        facts=facts,
    )


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def _closed_loop(session, library, circuit, stream: np.ndarray, seconds: float | None):
    """Serve ``stream``'s columns as 1-vector queries from two closed-loop clients.

    Each client sends its next query only after the previous one returned.
    Returns ``(answers, errors, started)``; ``answers`` maps a query index
    to ``(sent, returned, totals)`` and ``started`` is when the loop began.
    """
    total = stream.shape[1]
    answers: dict[int, tuple[float, float, np.ndarray]] = {}
    errors: dict[int, str] = {}
    lock = threading.Lock()
    next_query = [0]
    started = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                index = next_query[0]
                if index >= total or (
                    seconds is not None and time.perf_counter() - started >= seconds
                ):
                    return
                next_query[0] += 1
            sent = time.perf_counter()
            try:
                totals = session.totals(circuit, library, stream[:, index : index + 1])
            except Exception as exc:  # a failed request is counted, not fatal
                errors[index] = repr(exc)
                continue
            answers[index] = (sent, time.perf_counter(), totals)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers, errors, started


def serving(plan: Plan) -> Outcome:
    """A warm s838 session answering 1-vector queries from two clients."""
    technology = make_technology(TECHNOLOGY)
    paths = _write_netlists(plan.workdir, [iscas_like("s838")])
    setup_s, (session, library, (circuit,)) = _set_up(plan, technology, paths)
    n_inputs = len(circuit.primary_inputs)

    # The first batches start the flush machinery; serve a few untimed.
    _closed_loop(session, library, circuit, _bits(plan.seed, (4,), n_inputs, WARM_QUERIES), None)

    count = TRACED_QUERIES if plan.seconds is None else MAX_QUERIES
    stream = _bits(plan.seed, (3,), n_inputs, count)
    answers, errors, started = _closed_loop(session, library, circuit, stream, plan.seconds)
    order = sorted(answers)
    latencies = [answers[i][1] - answers[i][0] for i in order]
    phase_s = max(answers[i][1] for i in order) - started
    failed = len(errors) + sum(_count_nonfinite(answers[i][2]) for i in order)

    facts: dict = {
        "libraries": [library],
        "sessions": [session],
        "queries": [answers[i][:2] for i in order],
    }
    checked = [i for i in order if i < ORACLE_QUERIES]

    def finish() -> list[str]:
        problems = []
        if errors:
            problems.append(f"{len(errors)} queries raised, first: {next(iter(errors.values()))}")
        compiled = session.compiled(circuit, library)
        serial = [run_totals(compiled, stream[:, i : i + 1]) for i in checked]
        if not all(np.array_equal(answers[i][2], want) for i, want in zip(checked, serial)):
            problems.append("served answers differ from serial run_totals")
        batched = run_totals(compiled, stream[:, order])
        if not np.array_equal(np.concatenate([answers[i][2] for i in order]), batched):
            problems.append("served answers differ from one run_totals pass")
        return problems

    return Outcome(
        setup_s=setup_s,
        throughput=len(answers) / phase_s,
        latency_ms=statistics.median(latencies) * 1e3,
        attempted=len(answers) + len(errors),
        failed=failed,
        digest=_digest(*(answers[i][2] for i in checked)),
        finish=finish,
        facts=facts,
    )


# --------------------------------------------------------------------------- #
# reference
# --------------------------------------------------------------------------- #
def reference_workload(plan: Plan) -> Outcome:
    """Transistor-level reference solves next to the LUT estimate."""
    technology = make_technology(TECHNOLOGY)
    paths = _write_netlists(plan.workdir, [alu(8), iscas_like("s838")])
    setup_s, (session, library, circuits) = _set_up(plan, technology, paths)

    # The first solve of each circuit pays one-time costs (allocator growth,
    # first LAPACK and SuperLU calls); pay them before timing.
    for index, circuit in enumerate(circuits):
        bits = _bits(plan.seed, (7, index), len(circuit.primary_inputs), REFERENCE_WARM)
        reference.run_reference_campaign(circuit, technology, vectors=_assignments(circuit, bits))

    blocks = []  # (circuit, bits, reference totals, converged flags)
    pass_rates = []
    pass_s = []
    passes = 0
    started = time.perf_counter()
    while plan.more(passes, started):
        pass_start = time.perf_counter()
        solve_s = 0.0
        for index, circuit in enumerate(circuits):
            bits = _bits(
                plan.seed, (5, index, passes), len(circuit.primary_inputs), REFERENCE_BLOCK
            )
            start = time.perf_counter()
            result = reference.run_reference_campaign(
                circuit, technology, vectors=_assignments(circuit, bits)
            )
            solve_s += time.perf_counter() - start
            converged = np.array([r.metadata["solver_converged"] for r in result.reports])
            blocks.append((circuit, bits, result.totals(), converged))
        pass_s.append(time.perf_counter() - pass_start)
        pass_rates.append(len(circuits) * REFERENCE_BLOCK / solve_s)
        passes += 1

    estimates = [
        session.totals(circuit, library, bits, coalesce=False)
        for circuit, bits, _, _ in blocks
    ]
    solved = np.concatenate([totals for _, _, totals, _ in blocks])
    estimated = np.concatenate(estimates)
    converged = np.concatenate([flags for _, _, _, flags in blocks])
    failed = int(np.count_nonzero(~converged)) + _count_nonfinite(solved)
    facts: dict = {
        "libraries": [library],
        "sessions": [session],
        "estimator_err_pct": float(np.mean(np.abs(estimated - solved) / solved) * 100),
        "clamp_inputs": [
            (session.compiled(circuit, library), bits)
            for circuit, bits, _, _ in blocks[: len(circuits)]
        ],
    }

    def finish() -> list[str]:
        problems = []
        if not converged.all():
            unconverged = int(np.count_nonzero(~converged))
            problems.append(f"{unconverged} reference columns did not converge")
        if _count_nonfinite(estimated):
            problems.append("LUT estimate of the reference vectors is not finite")
        return problems

    first_pass = blocks[: len(circuits)]
    return Outcome(
        setup_s=setup_s,
        throughput=statistics.median(pass_rates),
        latency_ms=statistics.median(pass_s) * 1e3,
        attempted=solved.size,
        failed=failed,
        digest=_digest(
            *(totals for _, _, totals, _ in first_pass),
            *estimates[: len(circuits)],
        ),
        finish=finish,
        facts=facts,
    )


# --------------------------------------------------------------------------- #
# variation
# --------------------------------------------------------------------------- #
def variation(plan: Plan) -> Outcome:
    """Cold QMC percentile queries and moment propagation on the Fig. 10 cluster.

    Set-up warms a session on the cluster's own netlist — the gate-level
    view whose loading-aware estimate the population is compared with.
    """
    technology = make_technology(TECHNOLOGY)
    cluster = loaded_inverter_cluster(6, 6)
    paths = _write_netlists(plan.workdir, [cluster])
    setup_s, (session, library, (circuit,)) = _set_up(plan, technology, paths)
    nominal = session.totals(circuit, library, np.array([[0, 1]], dtype=np.uint8))

    estimates = []
    requested = pooled = 0
    query_rates = []
    moment_s = []
    results = []
    queries = 0
    started = time.perf_counter()
    while plan.more(queries, started):
        start = time.perf_counter()
        estimates.append(
            session.percentile_leakage(
                technology, PERCENTILE, samples=SAMPLES, replicates=REPLICATES,
                rng=_int_seed(plan.seed, 6, queries), sampler="qmc", limit=YIELD_LIMIT_A,
            )
        )
        query_rates.append(estimates[-1].sample_count / (time.perf_counter() - start))
        requested += SAMPLES * REPLICATES
        pooled += estimates[-1].sample_count
        for _ in range(MOMENTS_PER_PASS):
            start = time.perf_counter()
            results.append(moments.propagate_loaded_inverter_moments(technology))
            moment_s.append(time.perf_counter() - start)
        queries += 1
    moment_means = [estimate.mean for estimate in results[0].loaded.values()]

    first = estimates[0]
    facts: dict = {"libraries": [library], "sessions": [session]}

    def finish() -> list[str]:
        problems = []
        again = session.percentile_leakage(
            technology, 99.0, samples=SAMPLES, replicates=REPLICATES,
            rng=_int_seed(plan.seed, 6, 0), sampler="qmc",
        )
        if not again.population_cached or again.sample_count != first.sample_count:
            problems.append("a repeated percentile query did not reuse its population")
        values = [e.percentile.value for e in estimates] + moment_means
        if not np.all(np.isfinite(values)):
            problems.append("percentile or moment estimate is not finite")
        if any(r.loaded != results[0].loaded for r in results[1:]):
            problems.append("moment propagation is not repeatable")
        return problems

    return Outcome(
        setup_s=setup_s,
        throughput=statistics.median(query_rates),
        latency_ms=statistics.median(moment_s) * 1e3,
        attempted=requested + len(results),
        failed=requested - pooled,
        digest=_digest(
            nominal,
            [first.percentile.value, first.yield_estimate.fraction, first.sample_count],
            moment_means,
        ),
        finish=finish,
        facts=facts,
    )


WORKLOADS: dict[str, Callable[[Plan], Outcome]] = {
    "campaign": campaign,
    "serving": serving,
    "reference": reference_workload,
    "variation": variation,
}
