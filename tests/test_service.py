"""Service layer: estimation sessions, request coalescing, caches, stores.

The load-bearing contracts:

* **coalescing is invisible in the numbers** — N threads submitting
  overlapping vector sets through one session receive totals bitwise
  identical to serial per-request evaluation;
* **every request is accounted for** — the coalescer's vector ledger
  balances (``request_vectors == batched_vectors``) and every batch is a
  timeout or a full flush;
* **no starvation** — a batch closes before its (possibly slow) evaluation
  runs, so requests arriving behind a slow one are led independently, and a
  solo request pays at most one window (timeout flush of a partial batch);
* the compile cache is a bounded LRU whose counters add up;
* the library store round-trips, refuses mismatches gracefully, and
  converges to the union under multiple publishers.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.circuit.generators import nand_tree, random_logic
from repro.circuit.logic import random_vectors
from repro.core.estimator import LoadingAwareEstimator
from repro.core.vectors import minimum_leakage_vector, run_vector_campaign
from repro.engine.campaign import run_compiled, run_totals
from repro.engine.compile import CompileCache, compile_circuit
from repro.gates.cache import LibraryStore
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.gates.library import GateType
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
    """Coalesced campaign slices match standalone run_compiled bitwise."""
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
        # Sliced runs still materialize full scalar-compatible reports.
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


def test_iter_campaign_streams_bitwise_chunks(session, circuit, library_d25s):
    """Streamed chunks concatenate to the one-shot campaign, bitwise."""
    vectors = list(random_vectors(circuit, 11, rng=7))
    whole = session.campaign(circuit, library_d25s, vectors, coalesce=False)
    chunks = list(
        session.iter_campaign(circuit, library_d25s, iter(vectors), chunk_size=4)
    )
    assert [c.vector_count for c in chunks] == [4, 4, 3]
    streamed = np.concatenate([c.component_totals()["total"] for c in chunks])
    assert np.array_equal(streamed, whole.component_totals()["total"])


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
    assert co["batches"] == co["timeout_flushes"] + co["full_flushes"]
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
    """Reaching max_batch_vectors wakes the leader before the deadline."""
    coalescer = RequestCoalescer(window_s=30.0, max_batch_vectors=8)
    results: dict[str, list] = {}

    def run_batch(payloads):
        return [[x * 10 for x in p] for p in payloads]

    def leader():
        results["leader"] = coalescer.submit("k", [1, 2, 3, 4], 4, run_batch)

    def follower():
        # Join only once the leader's vectors are registered in the open
        # batch, so the composition (and the full flush) is deterministic.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with coalescer._lock:
                if coalescer._request_vectors >= 4:
                    break
            time.sleep(0.001)
        results["follower"] = coalescer.submit("k", [5, 6, 7, 8], 4, run_batch)

    start = time.monotonic()
    t1 = threading.Thread(target=leader)
    t2 = threading.Thread(target=follower)
    t1.start()
    t2.start()
    t1.join(timeout=10.0)
    t2.join(timeout=10.0)
    elapsed = time.monotonic() - start

    assert results["leader"] == [10, 20, 30, 40]
    assert results["follower"] == [50, 60, 70, 80]
    # A 30 s window that returned in well under that proves the full-batch
    # early flush fired.
    assert elapsed < 10.0
    stats = coalescer.stats()
    assert stats["batches"] == 1
    assert stats["full_flushes"] == 1
    assert stats["timeout_flushes"] == 0
    assert stats["coalesced_requests"] == 1
    assert stats["max_batch_requests"] == 2


def test_timeout_flushes_partial_batch():
    """A solo request is answered after one window — never starved."""
    coalescer = RequestCoalescer(window_s=0.02, max_batch_vectors=10_000)
    start = time.monotonic()
    result = coalescer.submit("k", [1], 1, lambda payloads: [p[0] for p in payloads])
    elapsed = time.monotonic() - start
    assert result == 1
    assert elapsed < 5.0  # one window + evaluation, not the vector bound
    stats = coalescer.stats()
    assert stats["batches"] == 1
    assert stats["timeout_flushes"] == 1
    assert stats["full_flushes"] == 0


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
    coalescer = RequestCoalescer(window_s=0.05, max_batch_vectors=10_000)
    outcomes: dict[str, BaseException | str] = {}
    real_start = threading.Thread.start

    def exploding_start(self, *args, **kwargs):
        if self.name.startswith("coalescer-flush"):
            raise RuntimeError("leader died before flush")
        return real_start(self, *args, **kwargs)

    def member(name: str, wait_for_leader: bool):
        if wait_for_leader:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with coalescer._lock:
                    if coalescer._request_vectors >= 1:
                        break
                time.sleep(0.001)
        try:
            coalescer.submit("k", [1], 1, lambda p: p)
            outcomes[name] = "ok"
        except RuntimeError as exc:
            outcomes[name] = exc

    threading.Thread.start = exploding_start
    try:
        threads = [
            threading.Thread(target=member, args=("leader", False)),
            threading.Thread(target=member, args=("follower", True)),
        ]
        for t in threads:
            real_start(t)
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a coalescer member hung on leader death"
    finally:
        threading.Thread.start = real_start

    assert all(
        isinstance(outcome, RuntimeError)
        and "leader died" in str(outcome)
        for outcome in outcomes.values()
    ), outcomes
    # The coalescer recovered: the next request flushes normally.
    assert coalescer.submit("k", [3], 1, lambda p: p) == [3]


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


def test_session_campaign_honors_deadline(circuit, library_d25s):
    """campaign() forwards deadlines exactly like totals()."""
    session = EstimationSession()
    vectors = list(random_vectors(circuit, 4, rng=9))
    expected = session.campaign(circuit, library_d25s, vectors, coalesce=False)
    run = session.campaign(circuit, library_d25s, vectors, deadline_s=30.0)
    assert np.array_equal(run.per_gate, expected.per_gate)


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


def test_compile_circuit_uses_explicit_store(circuit, library_d25s):
    """compile_circuit(store=...) bypasses the process-default cache."""
    private = CompileCache(maxsize=4)
    compiled = compile_circuit(circuit, library_d25s, store=private)
    assert compile_circuit(circuit, library_d25s, store=private) is compiled
    assert private.cache_info().hits == 1
    # cache=False always returns a fresh instance and records nothing.
    fresh = compile_circuit(circuit, library_d25s, cache=False, store=private)
    assert fresh is not compiled
    assert private.cache_info().misses == 1


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


def test_minimum_leakage_vector_accepts_session(circuit, library_d25s):
    session = EstimationSession()
    estimator = LoadingAwareEstimator(library_d25s)
    best, total = minimum_leakage_vector(
        estimator, circuit, exhaustive=True, session=session
    )
    best_default, total_default = minimum_leakage_vector(
        estimator, circuit, exhaustive=True
    )
    assert best == best_default
    assert total == total_default
    assert session.stats()["compile_cache"]["misses"] == 1
    assert session.stats()["session"]["requests"] >= 1


def test_random_logic_session_campaign_matches_direct_engine(library_d25s):
    """A wider circuit through the session == direct engine, bitwise."""
    circuit = random_logic("svc_rand", n_inputs=8, n_gates=24, rng=11)
    session = EstimationSession()
    bits = _random_bits(circuit, 32, seed=5)
    totals = session.totals(circuit, library_d25s, bits, coalesce=False)
    direct = run_totals(compile_circuit(circuit, library_d25s, cache=False), bits)
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
