"""Service layer: estimation sessions, request coalescing, caches, stores.

The load-bearing contracts:

* **coalescing is invisible in the numbers** — N threads submitting
  overlapping vector sets through one session receive totals bitwise
  identical to serial per-request evaluation;
* **every request is accounted for** — the coalescer's vector ledger
  balances (``request_vectors == batched_vectors``) and every batch is an
  idle, a timeout or a full flush;
* **a batch waits only behind a running pass** — a request whose key is
  idle dispatches at once (idle flush); requests behind a running pass
  form one batch that dispatches when the pass ends, or after at most one
  window (timeout flush);
* **no starvation** — a batch closes before its (possibly slow) evaluation
  runs, so requests arriving behind a slow one are led independently;
* the compile cache is a bounded LRU whose counters add up;
* the library store round-trips, refuses mismatches gracefully, and
  converges to the union under multiple publishers.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.circuit.generators import nand_tree, random_logic
from repro.circuit.logic import random_vectors
from repro.core.estimator import LoadingAwareEstimator
from repro.core.vectors import run_vector_campaign
from repro.engine.campaign import run_compiled, run_totals
from repro.engine.compile import CompileCache, CompiledCircuit
from repro.gates.cache import LibraryStore
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.gates.library import GateType
from repro.optimize import minimize_leakage
from repro.service import (
    DeadlineExceeded,
    EstimationSession,
    RequestCoalescer,
    ServiceOverloaded,
)
from repro.service.session import stats_delta

#: Same reduced injection grid as the conftest fixtures, so libraries built
#: here share characterization settings (and disk-cache files) with them.
FAST_GRID = (-3.2e-6, -1.6e-6, 0.0, 1.6e-6, 3.2e-6)


@pytest.fixture()
def session(library_d25s):
    """A fresh session (private compile cache, isolated counters)."""
    return EstimationSession()


@pytest.fixture(scope="module")
def circuit():
    return nand_tree(4)


def _hold_key_busy(coalescer, key="k"):
    """Start a pass of ``key`` that blocks until the returned event is set.

    Returns ``(release, thread)``; the pass is running on return.
    """
    started = threading.Event()
    release = threading.Event()

    def blocked_batch(payloads):
        started.set()
        assert release.wait(timeout=10.0)
        return payloads

    thread = threading.Thread(
        target=coalescer.submit, args=(key, "busy", 1, blocked_batch)
    )
    thread.start()
    assert started.wait(timeout=10.0)
    return release, thread


def _wait_for_vectors(coalescer, n_vectors):
    """Spin until ``n_vectors`` request vectors have joined batches."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with coalescer._lock:
            if coalescer._request_vectors >= n_vectors:
                return
        time.sleep(0.001)
    raise AssertionError(f"{n_vectors} request vectors never arrived")


@contextlib.contextmanager
def _flush_threads_fail_to_start():
    """Make starting a ``coalescer-flush`` thread raise, as a dying leader
    would; yields the real ``Thread.start`` for the test's own threads."""
    real_start = threading.Thread.start

    def exploding_start(self, *args, **kwargs):
        if self.name.startswith("coalescer-flush"):
            raise RuntimeError("leader died before flush")
        return real_start(self, *args, **kwargs)

    threading.Thread.start = exploding_start
    try:
        yield real_start
    finally:
        threading.Thread.start = real_start


def _random_bits(circuit, n_vectors, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 2, size=(len(circuit.primary_inputs), n_vectors), dtype=np.uint8
    ).astype(np.uint8)


# --------------------------------------------------------------------------- #
# coalesced == serial, bitwise
# --------------------------------------------------------------------------- #


def test_concurrent_totals_bitwise_identical_to_serial(
    session, circuit, library_d25s
):
    """N threads with overlapping vector sets: coalesced == serial bitwise."""
    bits = _random_bits(circuit, 60)
    compiled = session.compiled(circuit, library_d25s)
    serial = run_totals(compiled, bits)

    # Overlapping slices: every thread shares vectors with its neighbours,
    # so identical columns must produce identical totals wherever they land
    # in whatever batch composition the scheduler produces.
    slices = [slice(0, 20), slice(10, 35), slice(25, 50), slice(40, 60)]
    results: dict[int, np.ndarray] = {}
    barrier = threading.Barrier(len(slices))

    def worker(i: int, sl: slice) -> None:
        barrier.wait()
        results[i] = session.totals(circuit, library_d25s, bits[:, sl])

    threads = [
        threading.Thread(target=worker, args=(i, sl))
        for i, sl in enumerate(slices)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for i, sl in enumerate(slices):
        assert np.array_equal(results[i], serial[sl]), (
            f"thread {i} got different totals than serial evaluation"
        )


def test_concurrent_campaigns_bitwise_identical_to_serial(
    session, circuit, library_d25s
):
    """Concurrent campaign() calls match standalone run_compiled bitwise."""
    vectors = list(random_vectors(circuit, 24, rng=2005))
    compiled = session.compiled(circuit, library_d25s)

    chunks = [vectors[0:8], vectors[8:16], vectors[16:24]]
    results: dict[int, object] = {}
    barrier = threading.Barrier(len(chunks))

    def worker(i: int, chunk) -> None:
        barrier.wait()
        results[i] = session.campaign(circuit, library_d25s, chunk)

    threads = [
        threading.Thread(target=worker, args=(i, c)) for i, c in enumerate(chunks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for i, chunk in enumerate(chunks):
        alone = run_compiled(compiled, chunk)
        run = results[i]
        assert run.assignments == chunk
        assert np.array_equal(run.per_gate, alone.per_gate)
        assert np.array_equal(run.vec_index, alone.vec_index)
        assert np.array_equal(run.input_loading, alone.input_loading)
        assert np.array_equal(run.output_loading, alone.output_loading)
        assert run.report(0).input_assignment == chunk[0]


def test_serial_totals_accept_assignments_and_bits(session, circuit, library_d25s):
    """Dict-vector and bit-matrix inputs produce identical totals."""
    bits = _random_bits(circuit, 10, seed=3)
    vectors = [
        dict(zip(circuit.primary_inputs, bits[:, j].tolist()))
        for j in range(bits.shape[1])
    ]
    from_bits = session.totals(circuit, library_d25s, bits, coalesce=False)
    from_dicts = session.totals(circuit, library_d25s, vectors, coalesce=False)
    assert np.array_equal(from_bits, from_dicts)


# --------------------------------------------------------------------------- #
# coalescer accounting and flush behavior
# --------------------------------------------------------------------------- #


def test_stats_account_for_every_request(session, circuit, library_d25s):
    """The vector ledger balances: nothing dropped, nothing double-counted.
    Concurrent requests to a cold session compile once; a warm round
    compiles nothing and solves no cell."""
    bits = _random_bits(circuit, 40)
    slices = [slice(0, 10), slice(10, 25), slice(25, 40)]
    barrier = threading.Barrier(len(slices))

    def worker(sl: slice) -> None:
        barrier.wait()
        session.totals(circuit, library_d25s, bits[:, sl])

    def concurrent_round() -> None:
        threads = [threading.Thread(target=worker, args=(sl,)) for sl in slices]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    concurrent_round()
    # One more through the serial path: counted as a session request but
    # never enters the coalescer.
    session.totals(circuit, library_d25s, bits[:, :5], coalesce=False)

    stats = session.stats()
    co = stats["coalescer"]
    assert stats["session"]["requests"] == len(slices) + 1
    assert co["requests"] == len(slices)
    assert co["request_vectors"] == 40
    assert co["batched_vectors"] == co["request_vectors"]
    assert co["batches"] == (
        co["idle_flushes"] + co["timeout_flushes"] + co["full_flushes"]
    )
    assert 1 <= co["batches"] <= len(slices)
    assert co["coalesced_requests"] == co["requests"] - co["batches"]
    assert stats["compile_cache"]["misses"] == 1
    assert stats["compile_cache"]["hits"] >= len(slices)

    solves = library_d25s.characterizer.solve_stats["solves"]
    concurrent_round()
    assert session.stats()["compile_cache"]["misses"] == 1
    assert library_d25s.characterizer.solve_stats["solves"] == solves


def test_cold_session_from_store_matches_warm_bitwise(tmp_path, circuit, library_d25s):
    """The stateless per-call path — a fresh session that loads the library
    from the store and compiles anew — answers bitwise like the warm
    session, without solving a cell."""
    warm = EstimationSession(store=tmp_path)
    warm.register_library(library_d25s)
    warm.warm_up([circuit], library_d25s)
    bits = _random_bits(circuit, 12, seed=4)
    expected = run_totals(warm.compiled(circuit, library_d25s), bits)

    cold = EstimationSession(store=tmp_path)
    library = cold.library(
        library_d25s.technology, options=library_d25s.characterizer.options
    )
    assert library is not library_d25s
    assert np.array_equal(cold.totals(circuit, library, bits, coalesce=False), expected)
    assert library.characterizer.solve_stats["solves"] == 0
    assert cold.stats()["compile_cache"]["misses"] == 1


def test_full_batch_flushes_early_without_waiting_window():
    """Reaching max_batch_vectors dispatches a batch waiting behind a
    running pass before the window ends and before that pass does."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=8)
    release, busy = _hold_key_busy(coalescer)
    results: dict[str, list] = {}

    def run_batch(payloads):
        return [[x * 10 for x in p] for p in payloads]

    def leader():
        results["leader"] = coalescer.submit("k", [1, 2, 3, 4], 4, run_batch)

    def follower():
        # Join only once the leader's vectors are registered in the open
        # batch, so the composition (and the full flush) is deterministic.
        _wait_for_vectors(coalescer, 5)
        results["follower"] = coalescer.submit("k", [5, 6, 7, 8], 4, run_batch)

    start = time.monotonic()
    t1 = threading.Thread(target=leader)
    t2 = threading.Thread(target=follower)
    t1.start()
    t2.start()
    t1.join(timeout=10.0)
    t2.join(timeout=10.0)
    elapsed = time.monotonic() - start
    # Both answered while the blocking pass still runs.
    assert busy.is_alive()
    release.set()
    busy.join(timeout=10.0)
    assert not busy.is_alive()

    assert results["leader"] == [10, 20, 30, 40]
    assert results["follower"] == [50, 60, 70, 80]
    # A 30 s window that returned in well under that proves the full-batch
    # early flush fired.
    assert elapsed < 10.0
    stats = coalescer.stats()
    assert stats["batches"] == 2  # the blocking pass + the full batch
    assert stats["full_flushes"] == 1
    assert stats["idle_flushes"] == 1
    assert stats["timeout_flushes"] == 0
    assert stats["coalesced_requests"] == 1
    assert stats["max_batch_requests"] == 2


def test_timeout_flushes_partial_batch():
    """A request behind a running pass is answered after one window — never
    starved by a pass that does not end."""
    coalescer = RequestCoalescer(window_s=0.02, max_batch_vectors=10_000)
    release, busy = _hold_key_busy(coalescer)
    start = time.monotonic()
    result = coalescer.submit("k", [1], 1, lambda payloads: [p[0] for p in payloads])
    elapsed = time.monotonic() - start
    assert busy.is_alive()  # it dispatched alongside the blocked pass
    release.set()
    busy.join(timeout=10.0)
    assert result == 1
    assert elapsed < 5.0  # one window + evaluation, not the vector bound
    stats = coalescer.stats()
    assert stats["batches"] == 2
    assert stats["timeout_flushes"] == 1
    assert stats["idle_flushes"] == 1  # the blocking pass
    assert stats["full_flushes"] == 0


def test_idle_key_dispatches_at_once():
    """A request whose key runs no pass never waits for the window."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=10_000)
    start = time.monotonic()
    result = coalescer.submit("k", [1], 1, lambda payloads: [p[0] for p in payloads])
    assert result == 1
    assert time.monotonic() - start < 5.0
    stats = coalescer.stats()
    assert (stats["batches"], stats["idle_flushes"]) == (1, 1)
    assert stats["timeout_flushes"] == stats["full_flushes"] == 0


def test_requests_behind_a_pass_go_out_together_when_it_ends():
    """Requests arriving during a pass form one batch that dispatches the
    moment the pass ends, not when the window does."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=10_000)
    release, busy = _hold_key_busy(coalescer)
    results: dict[str, object] = {}

    def member(name: str, after_vectors: int) -> None:
        _wait_for_vectors(coalescer, after_vectors)
        results[name] = coalescer.submit("k", name, 1, lambda p: p)

    threads = [
        threading.Thread(target=member, args=("first", 1)),
        threading.Thread(target=member, args=("second", 2)),
    ]
    for t in threads:
        t.start()
    _wait_for_vectors(coalescer, 3)
    assert results == {}  # both wait behind the blocked pass
    start = time.monotonic()
    release.set()
    for t in threads + [busy]:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert time.monotonic() - start < 5.0
    assert results == {"first": "first", "second": "second"}
    stats = coalescer.stats()
    assert stats["batches"] == 2
    assert stats["idle_flushes"] == 2
    assert stats["max_batch_requests"] == 2


def test_slow_request_does_not_starve_later_requests():
    """The batch closes before evaluation: a slow run can't hold up others."""
    coalescer = RequestCoalescer(window_s=0.01, max_batch_vectors=10_000)
    slow_started = threading.Event()
    release_slow = threading.Event()
    order: list[str] = []

    def slow_batch(payloads):
        slow_started.set()
        assert release_slow.wait(timeout=10.0)
        return payloads

    def fast_batch(payloads):
        return payloads

    def slow_caller():
        coalescer.submit("k", "slow", 1, slow_batch)
        order.append("slow")

    def fast_caller():
        slow_started.wait(timeout=10.0)
        coalescer.submit("k", "fast", 1, fast_batch)
        order.append("fast")
        release_slow.set()

    t1 = threading.Thread(target=slow_caller)
    t2 = threading.Thread(target=fast_caller)
    t1.start()
    t2.start()
    t1.join(timeout=10.0)
    t2.join(timeout=10.0)

    # The fast request completed while the slow evaluation was still
    # blocked (it is what released it), in its own batch.
    assert order == ["fast", "slow"]
    assert coalescer.stats()["batches"] == 2


def test_evaluation_error_propagates_to_every_batch_member():
    """A failing batch raises in the leader and every follower alike."""
    coalescer = RequestCoalescer(window_s=0.05, max_batch_vectors=10_000)
    errors: list[BaseException] = []
    barrier = threading.Barrier(2)

    def bad_batch(payloads):
        raise RuntimeError("engine exploded")

    def caller():
        barrier.wait()
        try:
            coalescer.submit("k", None, 1, bad_batch)
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert len(errors) == 2
    assert all("engine exploded" in str(e) for e in errors)


def test_coalescer_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RequestCoalescer(window_s=-0.1)
    with pytest.raises(ValueError):
        RequestCoalescer(max_batch_vectors=0)
    with pytest.raises(ValueError):
        RequestCoalescer(max_in_flight=0)
    coalescer = RequestCoalescer()
    with pytest.raises(ValueError):
        coalescer.submit("k", [1], 1, lambda p: p, deadline_s=0.0)


# --------------------------------------------------------------------------- #
# coalescer hardening: deadlines, load shedding, leader death (PR 9)
# --------------------------------------------------------------------------- #


def test_deadline_returns_to_caller_without_sinking_the_batch():
    """A caller's deadline expires promptly; the evaluation still lands."""
    coalescer = RequestCoalescer(window_s=0.01, max_batch_vectors=10_000)
    release = threading.Event()
    evaluated = threading.Event()

    def slow_batch(payloads):
        assert release.wait(timeout=10.0)
        evaluated.set()
        return payloads

    start = time.monotonic()
    with pytest.raises(DeadlineExceeded):
        coalescer.submit("k", [1], 1, slow_batch, deadline_s=0.1)
    elapsed = time.monotonic() - start
    # The caller got out in about one deadline, not one evaluation.
    assert elapsed < 5.0
    release.set()
    assert evaluated.wait(timeout=10.0)  # batch kept running regardless
    assert coalescer.stats()["deadline_exceeded"] == 1
    # The coalescer is not wedged: a fresh request completes normally.
    assert coalescer.submit("k", [2], 1, lambda p: p) == [2]


def test_window_zero_flushes_immediately():
    """``window_s=0`` is a valid degenerate config: no batching delay."""
    coalescer = RequestCoalescer(window_s=0.0, max_batch_vectors=10_000)
    start = time.monotonic()
    result = coalescer.submit(
        "k", [7], 1, lambda payloads: [[x * 2 for x in p] for p in payloads]
    )
    assert result == [14]
    assert time.monotonic() - start < 5.0
    assert coalescer.stats()["batches"] == 1


def test_leader_deadline_bounds_its_window_wait():
    """A leader behind a running pass stops waiting at its deadline, not at
    the window's end; its batch still dispatches for its follower."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=10_000)
    release, busy = _hold_key_busy(coalescer)
    outcomes: dict[str, object] = {}
    leader_gone = threading.Event()

    def gated_batch(payloads):
        # Finish only once the leader has given up, so its deadline (not a
        # fast evaluation) decides what it sees.
        assert leader_gone.wait(timeout=10.0)
        return payloads

    def leader() -> None:
        start = time.monotonic()
        try:
            coalescer.submit("k", "leader", 1, gated_batch, deadline_s=0.1)
        except DeadlineExceeded as exc:
            outcomes["leader"] = exc
        outcomes["leader_s"] = time.monotonic() - start
        leader_gone.set()

    def follower() -> None:
        _wait_for_vectors(coalescer, 2)
        outcomes["follower"] = coalescer.submit("k", "follower", 1, gated_batch)

    threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert busy.is_alive()  # the batch went out while the key was busy
    release.set()
    busy.join(timeout=10.0)

    assert isinstance(outcomes["leader"], DeadlineExceeded)
    assert outcomes["leader_s"] < 5.0
    assert outcomes["follower"] == "follower"
    stats = coalescer.stats()
    assert stats["deadline_exceeded"] == 1
    assert stats["timeout_flushes"] == 1
    assert stats["max_batch_requests"] == 2


def test_admission_control_sheds_load_when_full():
    """At max_in_flight the coalescer refuses instead of queueing forever."""
    coalescer = RequestCoalescer(
        window_s=0.01, max_batch_vectors=10_000, max_in_flight=1
    )
    occupied = threading.Event()
    release = threading.Event()
    results: dict[str, object] = {}

    def slow_batch(payloads):
        occupied.set()
        assert release.wait(timeout=10.0)
        return payloads

    def occupant():
        results["occupant"] = coalescer.submit("k", [1], 1, slow_batch)

    thread = threading.Thread(target=occupant)
    thread.start()
    assert occupied.wait(timeout=10.0)
    with pytest.raises(ServiceOverloaded):
        coalescer.submit("k", [2], 1, lambda p: p)
    release.set()
    thread.join(timeout=10.0)
    assert results["occupant"] == [1]
    stats = coalescer.stats()
    assert stats["rejected"] == 1
    assert stats["in_flight"] == 0  # slots are released on every path


def test_leader_death_releases_followers():
    """If the leader dies before flushing, followers get the error — they
    never hang on a batch nobody will run."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=10_000)
    # Leader and follower gather behind a running pass, so both are in the
    # batch whose leader dies when that pass ends.
    release, busy = _hold_key_busy(coalescer)
    outcomes: dict[str, BaseException | str] = {}

    def member(name: str, after_vectors: int):
        _wait_for_vectors(coalescer, after_vectors)
        try:
            coalescer.submit("k", [1], 1, lambda p: p)
            outcomes[name] = "ok"
        except RuntimeError as exc:
            outcomes[name] = exc

    with _flush_threads_fail_to_start() as real_start:
        threads = [
            threading.Thread(target=member, args=("leader", 1)),
            threading.Thread(target=member, args=("follower", 2)),
        ]
        for t in threads:
            real_start(t)
        _wait_for_vectors(coalescer, 3)
        release.set()
        for t in threads + [busy]:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a coalescer member hung on leader death"

    assert set(outcomes) == {"leader", "follower"}
    assert all(
        isinstance(outcome, RuntimeError)
        and "leader died" in str(outcome)
        for outcome in outcomes.values()
    ), outcomes
    assert coalescer.stats()["max_batch_requests"] == 2
    # The coalescer recovered: the next request flushes normally.
    assert coalescer.submit("k", [3], 1, lambda p: p) == [3]


def test_leader_death_leaves_the_key_idle():
    """A batch whose flush never started frees its key: the next request
    is an idle flush, not a wait behind a pass that does not exist."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=10_000)
    with _flush_threads_fail_to_start(), pytest.raises(RuntimeError, match="leader died"):
        coalescer.submit("k", [1], 1, lambda p: p)

    start = time.monotonic()
    assert coalescer.submit("k", [2], 1, lambda p: p) == [2]
    assert time.monotonic() - start < 5.0
    stats = coalescer.stats()
    assert (stats["batches"], stats["idle_flushes"]) == (2, 2)
    assert stats["timeout_flushes"] == 0


def test_coalescer_ledger_under_contention():
    """More submitting threads than cores, with a short switch interval:
    every request is answered with its own result and every count adds up,
    with no flush left running."""
    coalescer = RequestCoalescer(window_s=0.005, max_batch_vectors=3)
    n_threads, per_thread = 8, 40
    answers: dict[tuple[int, int], object] = {}

    def run_batch(payloads):
        return [payload * 2 for payload in payloads]

    def client(i: int) -> None:
        for j in range(per_thread):
            answers[(i, j)] = coalescer.submit("k", i * 1000 + j, 1, run_batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert answers == {
        (i, j): (i * 1000 + j) * 2
        for i in range(n_threads)
        for j in range(per_thread)
    }
    stats = coalescer.stats()
    assert stats["requests"] == stats["request_vectors"] == n_threads * per_thread
    assert stats["batched_vectors"] == stats["request_vectors"]
    assert stats["batches"] == (
        stats["idle_flushes"] + stats["timeout_flushes"] + stats["full_flushes"]
    )
    assert stats["in_flight"] == 0
    # A flush thread releases its members before it marks its pass ended.
    for thread in threading.enumerate():
        if thread.name == "coalescer-flush":
            thread.join(timeout=10.0)
    assert coalescer._running == {} and coalescer._open == {}


def test_session_degrades_to_direct_evaluation_on_coalescer_failure(
    circuit, library_d25s
):
    """A broken coalescer downgrades service, never correctness."""
    session = EstimationSession()
    bits = _random_bits(circuit, 8, seed=21)
    expected = session.totals(circuit, library_d25s, bits, coalesce=False)

    def broken_submit(*args, **kwargs):
        raise RuntimeError("coalescer wedged")

    session._coalescer.submit = broken_submit  # type: ignore[method-assign]
    degraded = session.totals(circuit, library_d25s, bits)
    assert np.array_equal(degraded, expected)
    assert session.stats()["session"]["degraded_requests"] == 1


def test_malformed_bits_fail_alone_before_joining_a_batch(circuit, library_d25s):
    """A bit matrix holding a 2 or a 0.5 raises in its own caller before it
    can join a batch: the healthy request waiting behind the same running
    pass is answered by its batch, and no request degrades."""
    session = EstimationSession()
    session._coalescer = coalescer = RequestCoalescer(window_s=30.0)
    compiled = session.compiled(circuit, library_d25s)
    healthy = _random_bits(circuit, 1, seed=5)
    two = healthy.copy()
    two[0, 0] = 2
    half = np.full(healthy.shape, 0.5)
    results: dict[str, object] = {}

    def request(name, bits):
        try:
            results[name] = session.totals(circuit, library_d25s, bits)
        except ValueError as error:
            results[name] = error

    release, busy = _hold_key_busy(coalescer, (id(compiled), True, "totals"))
    threads = [threading.Thread(target=request, args=("healthy", healthy))]
    threads[0].start()
    _wait_for_vectors(coalescer, 2)
    for name, bits in (("two", two), ("half", half)):
        threads.append(threading.Thread(target=request, args=(name, bits)))
        threads[-1].start()
        threads[-1].join(timeout=2.0)
    failed_alone = [name for name in ("two", "half") if name in results]
    release.set()
    busy.join(timeout=10.0)
    for thread in threads:
        thread.join(timeout=10.0)

    assert failed_alone == ["two", "half"]
    for name in failed_alone:
        assert isinstance(results[name], ValueError)
        assert "pi_bits entries must be 0 or 1" in str(results[name])
    assert np.array_equal(results["healthy"], run_totals(compiled, healthy))
    assert session.stats()["session"]["degraded_requests"] == 0


def test_session_does_not_degrade_deadline_or_overload(circuit, library_d25s):
    """Deadline/overload are caller contracts — they propagate, with no
    silent serial fallback that would blow the deadline anyway."""
    session = EstimationSession()
    bits = _random_bits(circuit, 4, seed=22)

    def deadline_submit(*args, **kwargs):
        raise DeadlineExceeded("past deadline")

    session._coalescer.submit = deadline_submit  # type: ignore[method-assign]
    with pytest.raises(DeadlineExceeded):
        session.totals(circuit, library_d25s, bits, deadline_s=0.5)

    def overloaded_submit(*args, **kwargs):
        raise ServiceOverloaded("queue full")

    session._coalescer.submit = overloaded_submit  # type: ignore[method-assign]
    with pytest.raises(ServiceOverloaded):
        session.totals(circuit, library_d25s, bits)
    assert session.stats()["session"]["degraded_requests"] == 0


# --------------------------------------------------------------------------- #
# compile cache: bounded LRU with truthful counters
# --------------------------------------------------------------------------- #


def test_compile_cache_counters_and_lru_eviction(library_d25s):
    cache = CompileCache(maxsize=2)
    c1, c2, c3 = nand_tree(2), nand_tree(3), nand_tree(4)

    a = cache.get_or_compile(c1, library_d25s)
    assert cache.get_or_compile(c1, library_d25s) is a
    b = cache.get_or_compile(c2, library_d25s)
    # Touch c1 so c2 is the least recently used entry ...
    assert cache.get_or_compile(c1, library_d25s) is a
    cache.get_or_compile(c3, library_d25s)
    # ... and verify c2 (not c1) was evicted.
    assert cache.get_or_compile(c1, library_d25s) is a
    assert cache.get_or_compile(c2, library_d25s) is not b

    info = cache.cache_info()
    assert info.maxsize == 2
    assert info.entries == 2
    assert info.misses == 4  # c1, c2, c3, c2-again
    assert info.hits == 3
    assert info.evictions == 2
    total = info.as_dict()
    assert total["hits"] + total["misses"] == 7


def test_compile_cache_clear_resets_counters(library_d25s):
    cache = CompileCache(maxsize=4)
    cache.get_or_compile(nand_tree(2), library_d25s)
    cache.clear()
    info = cache.cache_info()
    assert (info.hits, info.misses, info.evictions, info.entries) == (0, 0, 0, 0)


def test_compile_cache_purges_dead_library_entries(d25s):
    cache = CompileCache(maxsize=8)
    circuit = nand_tree(2)
    options = CharacterizationOptions(injection_grid=FAST_GRID)
    library = GateLibrary(d25s, options=options)
    cache.get_or_compile(circuit, library)
    assert cache.cache_info().entries == 1
    del library
    import gc

    gc.collect()
    info = cache.cache_info()
    assert info.entries == 0
    assert info.evictions == 1


# --------------------------------------------------------------------------- #
# library store
# --------------------------------------------------------------------------- #


def _fast_library(technology):
    return GateLibrary(
        technology, options=CharacterizationOptions(injection_grid=FAST_GRID)
    )


def test_library_store_round_trip(tmp_path, d25s):
    store = LibraryStore(tmp_path)
    source = _fast_library(d25s)
    source.precharacterize([GateType.INV])
    published = store.publish(source)
    assert published == len(source.cached_records()) > 0

    warmed = _fast_library(d25s)
    loaded = store.load(warmed)
    assert loaded == published
    record = source.characterization(GateType.INV, (0,))
    again = warmed.characterization(GateType.INV, (0,))
    assert again.nominal.subthreshold == record.nominal.subthreshold
    stats = store.stats()
    assert stats["loads"] == 1
    assert stats["records_loaded"] == published
    assert stats["publishes"] == 1
    assert stats["load_failures"] == 0


def test_library_store_ignores_corrupt_file(tmp_path, d25s):
    store = LibraryStore(tmp_path)
    library = _fast_library(d25s)
    store.path_for(library).write_text("{not json")
    assert store.load(library) == 0
    assert store.stats()["load_failures"] == 1


def test_library_store_different_settings_use_different_files(tmp_path, d25s):
    store = LibraryStore(tmp_path)
    fast = _fast_library(d25s)
    default = GateLibrary(d25s)
    assert store.path_for(fast) != store.path_for(default)
    # Different generations also separate, so numerics bumps can't conflate.
    assert store.path_for(fast) != LibraryStore(tmp_path, generation=1).path_for(fast)


def test_library_store_publishes_converge_to_union(tmp_path, d25s):
    """Two writers with disjoint records: the store converges to the union."""
    store = LibraryStore(tmp_path)
    writer_a = _fast_library(d25s)
    writer_a.precharacterize([GateType.INV])
    count_a = store.publish(writer_a)

    writer_b = _fast_library(d25s)
    writer_b.precharacterize([GateType.BUF])
    count_b = store.publish(writer_b)
    assert count_b > count_a  # merged A's records before writing

    reader = _fast_library(d25s)
    assert store.load(reader) == count_b
    # Both gate types answer from the cache without re-characterization.
    keys = {record.gate_type_name for record in reader.cached_records()}
    assert {"inv", "buf"} <= {k.lower() for k in keys}


def test_library_store_skips_publish_when_nothing_grew(tmp_path, d25s):
    store = LibraryStore(tmp_path)
    library = _fast_library(d25s)
    library.precharacterize([GateType.INV])
    assert store.publish(library) > 0
    # Re-publishing the identical record set writes nothing.
    assert store.publish(library) == 0
    assert store.stats()["publishes"] == 1


# --------------------------------------------------------------------------- #
# session plumbing: registry, adapters, stats
# --------------------------------------------------------------------------- #


def test_session_library_registry_deduplicates(d25s, tmp_path):
    session = EstimationSession(store=tmp_path)
    options = CharacterizationOptions(injection_grid=FAST_GRID)
    first = session.library(d25s, options=options)
    second = session.library(d25s, options=options)
    assert first is second
    stats = session.stats()
    assert stats["libraries"] == {"entries": 1, "hits": 1, "misses": 1}
    assert stats["store"]["loads"] == 1


def test_session_register_library_prefers_existing_instance(d25s):
    session = EstimationSession()
    options = CharacterizationOptions(injection_grid=FAST_GRID)
    original = GateLibrary(d25s, options=options)
    assert session.register_library(original) is original
    equivalent = GateLibrary(d25s, options=options)
    assert session.register_library(equivalent) is original


def test_session_publish_libraries_round_trips(tmp_path, d25s):
    session = EstimationSession(store=tmp_path)
    options = CharacterizationOptions(injection_grid=FAST_GRID)
    library = session.library(d25s, options=options)
    library.precharacterize([GateType.INV])
    assert session.publish_libraries() > 0

    fresh = EstimationSession(store=tmp_path)
    warmed = fresh.library(d25s, options=options)
    assert len(warmed.cached_records()) == len(library.cached_records())


def test_run_vector_campaign_accepts_session(circuit, library_d25s):
    session = EstimationSession()
    estimator = LoadingAwareEstimator(library_d25s)
    vectors = list(random_vectors(circuit, 6, rng=1))
    through_session = run_vector_campaign(
        estimator, circuit, vectors=vectors, session=session
    )
    default_path = run_vector_campaign(estimator, circuit, vectors=vectors)
    assert np.array_equal(through_session.totals(), default_path.totals())
    assert session.stats()["compile_cache"]["misses"] == 1


def test_minimize_leakage_accepts_session(circuit, library_d25s):
    session = EstimationSession()
    estimator = LoadingAwareEstimator(library_d25s)
    through_session = minimize_leakage(
        estimator, circuit, strategy="exhaustive", session=session
    )
    default_path = minimize_leakage(estimator, circuit, strategy="exhaustive")
    assert through_session.best_assignment == default_path.best_assignment
    assert through_session.best_total == default_path.best_total
    assert session.stats()["compile_cache"]["misses"] == 1


def test_random_logic_session_campaign_matches_direct_engine(library_d25s):
    """A wider circuit through the session == direct engine, bitwise."""
    circuit = random_logic("svc_rand", n_inputs=8, n_gates=24, rng=11)
    session = EstimationSession()
    bits = _random_bits(circuit, 32, seed=5)
    totals = session.totals(circuit, library_d25s, bits, coalesce=False)
    direct = run_totals(CompiledCircuit(circuit, library_d25s), bits)
    assert np.array_equal(totals, direct)


def test_stats_delta_subtracts_counters_and_keeps_gauges():
    before = {"compile_cache": {"hits": 2, "misses": 1, "entries": 3}}
    after = {
        "compile_cache": {"hits": 5, "misses": 1, "entries": 4},
        "coalescer": {"requests": 2},
    }
    delta = stats_delta(before, after)
    assert delta["compile_cache"] == {"hits": 3, "misses": 0, "entries": 4}
    assert delta["coalescer"] == {"requests": 2}
