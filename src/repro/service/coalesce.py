"""Request coalescing: merge concurrent estimation requests into one batch.

The batched engine's cost model is per-*pass*, not per-vector: answering
200 vectors in one :func:`repro.engine.campaign.run_totals` call costs a
handful of array passes, the same 200 vectors as 20 separate 10-vector
calls cost 20x the fixed pass overhead.  A serving front-end therefore
wants concurrent requests that target the same compiled circuit merged
into single engine passes.  :class:`RequestCoalescer` batches adaptively
and work-conserving, after Clipper's adaptive batching (Crankshaw et al.,
NSDI 2017): a batch waits only while a pass of its key is running.

* the first request to arrive for a key opens a batch and becomes its
  **leader**; followers append their payload to the open batch and block
  on their own completion event;
* a batch whose key has no engine pass running dispatches at once (an
  **idle flush**), so a lone request never waits for company;
* requests that arrive while a pass of their key runs gather in the next
  batch, which dispatches the moment that pass ends (also an idle
  flush): one request per pass under light load, everything that arrived
  during the last pass under heavy load;
* ``window_s`` bounds that wait: a batch still waiting behind a running
  pass when it expires dispatches alongside it (a **timeout flush**), and
  a batch that reaches ``max_batch_vectors`` dispatches at once (a **full
  flush**);
* the leader snapshots the batch, *closes* it (so requests arriving while
  the engine pass runs open a fresh batch instead of waiting behind it),
  hands the single batched evaluation to a dedicated flush thread, and
  every member — leader included — waits on its own completion event.

Hardening (the resilience layer's service front):

* **per-request deadlines**: ``submit(..., deadline_s=...)`` waits at most
  that long; expiry raises
  :class:`~repro.resilience.errors.DeadlineExceeded` to that caller only —
  the batch keeps running and every other member still gets its result.
  Because evaluation runs on the flush thread, and a leader stops waiting
  for its batch to dispatch at the earlier of the window's end and its own
  deadline, this holds for the leader too: **no caller ever blocks past
  its deadline**, even mid-evaluation;
* **admission control**: at most ``max_in_flight`` requests may be
  admitted and incomplete; beyond that ``submit`` sheds load by raising
  :class:`~repro.resilience.errors.ServiceOverloaded` immediately instead
  of growing an unbounded queue;
* **leader-death release**: any failure between closing a batch and
  handing it to the flush thread (and any failure inside the evaluation
  itself) is distributed to every member and their events are set —
  followers can never hang on a dead leader.

Correctness rests on the repo's standing batch-composition-invariance
contract: every engine pass computes each vector column independently, so
the coalesced batch's per-request slices are **bitwise identical** to the
same requests evaluated one at a time — the property
``tests/test_service.py`` asserts under real thread concurrency.

The coalescer itself is generic: a submission is an opaque payload plus a
vector count, and the leader evaluates the whole batch through a caller
supplied ``run_batch(payloads) -> results`` callable.  All submitters of
one key must pass equivalent ``run_batch`` callables (the leader's is the
one that runs).  Its one submitter in this package,
:meth:`repro.service.EstimationSession.totals`, guarantees this by deriving
the key and the callable from the same (compiled circuit, include_loading)
pair; full per-gate campaigns run directly, uncoalesced.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.resilience.errors import DeadlineExceeded, ServiceOverloaded

#: Default batch window (seconds): the longest a batch waits behind a
#: running engine pass of its key before dispatching alongside it; a batch
#: whose key is idle never waits.  Several warm 1-vector passes long
#: (about 1.5 ms on s838), so under load the next batch waits for the
#: running pass instead of starting a second one that competes with it for
#: the interpreter lock.
DEFAULT_BATCH_WINDOW_S = 0.010

#: Default vector bound per coalesced batch; reaching it flushes early.
#: Matches the engine's chunking scale so one coalesced batch stays one
#: memory-bounded pass.
DEFAULT_MAX_BATCH_VECTORS = 4096

#: Default admission bound: requests admitted but not yet complete.  Far
#: above any sane concurrent-thread count, yet finite — a stalled engine
#: pass sheds new load instead of queueing it without bound.
DEFAULT_MAX_IN_FLIGHT = 1024


@dataclass
class _Submission:
    """One request waiting inside a batch."""

    payload: Any
    n_vectors: int
    run_batch: Callable[[list[Any]], Sequence[Any]]
    done: threading.Event = field(default_factory=threading.Event)
    result: Any = None
    error: BaseException | None = None


@dataclass
class _Batch:
    """One open batch: the submissions joined so far and its flush wakeup."""

    #: End of the batch window (``time.monotonic``).
    deadline: float
    submissions: list[_Submission] = field(default_factory=list)
    n_vectors: int = 0
    #: Set to dispatch before the window ends: the key is idle, or the
    #: batch is full.
    flush_now: threading.Event = field(default_factory=threading.Event)


class RequestCoalescer:
    """Thread-safe queue merging concurrent submissions into single batches.

    Parameters
    ----------
    window_s:
        Batch window: the longest a batch waits behind a running engine
        pass of its key before dispatching alongside it.  A batch whose
        key has no pass running dispatches at once, whatever the window.
        ``0.0`` never waits: a batch dispatches as soon as its leader
        gets to it, even while a pass of its key runs.
    max_batch_vectors:
        Dispatch a batch as soon as its summed vector count reaches this
        bound, without waiting for the running pass or the window.
    max_in_flight:
        Admission bound: requests admitted but not yet complete.  Beyond
        it ``submit`` raises
        :class:`~repro.resilience.errors.ServiceOverloaded` immediately
        (load shedding); ``None`` disables the bound.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_BATCH_WINDOW_S,
        max_batch_vectors: int = DEFAULT_MAX_BATCH_VECTORS,
        max_in_flight: int | None = DEFAULT_MAX_IN_FLIGHT,
    ) -> None:
        if window_s < 0.0:
            raise ValueError("window_s must be non-negative")
        if max_batch_vectors < 1:
            raise ValueError("max_batch_vectors must be positive")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be positive (or None)")
        self.window_s = float(window_s)
        self.max_batch_vectors = int(max_batch_vectors)
        self.max_in_flight = None if max_in_flight is None else int(max_in_flight)
        self._lock = threading.Lock()
        self._open: dict[Hashable, _Batch] = {}
        #: Flushes dispatched and not yet finished, per key; a key with
        #: none running has no entry.
        self._running: dict[Hashable, int] = {}
        # -- counters (all under the lock) --------------------------------- #
        self._requests = 0
        self._request_vectors = 0
        self._batches = 0
        self._batched_vectors = 0
        self._timeout_flushes = 0
        self._full_flushes = 0
        self._idle_flushes = 0
        self._max_batch_requests = 0
        self._in_flight = 0
        self._rejected = 0
        self._deadline_exceeded = 0

    def submit(
        self,
        key: Hashable,
        payload: Any,
        n_vectors: int,
        run_batch: Callable[[list[Any]], Sequence[Any]],
        deadline_s: float | None = None,
    ) -> Any:
        """Submit one request; block until its batch is evaluated.

        ``run_batch`` receives the payloads of every submission in the
        batch, in arrival order, and must return one result per payload in
        the same order.  The calling thread of the batch's first submission
        acts as leader: it waits until no pass of ``key`` runs (or the
        window ends, or the batch fills), closes the batch and hands the
        evaluation to a dedicated flush thread; every member then waits on
        its own completion event.  An evaluation error propagates to every
        request of the batch.

        ``deadline_s`` bounds *this caller's* wait, from this call on.
        Expiry raises :class:`DeadlineExceeded` to this caller only; the
        batch keeps running and other members are unaffected (a leader
        whose deadline expires first dispatches its batch, then raises).
        When the service is at its admission bound the request is shed
        with :class:`ServiceOverloaded` without joining any batch.
        """
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive (or None)")
        expires = None if deadline_s is None else time.monotonic() + deadline_s
        submission = _Submission(
            payload=payload, n_vectors=int(n_vectors), run_batch=run_batch
        )
        with self._lock:
            if (
                self.max_in_flight is not None
                and self._in_flight >= self.max_in_flight
            ):
                self._rejected += 1
                raise ServiceOverloaded(
                    f"request rejected: {self._in_flight} requests already in "
                    f"flight (bound {self.max_in_flight}); retry after backoff"
                )
            self._in_flight += 1
            self._requests += 1
            self._request_vectors += submission.n_vectors
            batch = self._open.get(key)
            leader = batch is None
            if batch is None:
                batch = _Batch(deadline=time.monotonic() + self.window_s)
                self._open[key] = batch
            batch.submissions.append(submission)
            batch.n_vectors += submission.n_vectors
            if (
                key not in self._running
                or batch.n_vectors >= self.max_batch_vectors
                or self.window_s == 0.0
            ):
                batch.flush_now.set()

        try:
            if leader:
                self._lead(key, batch, expires)
            timeout = None if expires is None else max(0.0, expires - time.monotonic())
            if not submission.done.wait(timeout=timeout):
                with self._lock:
                    self._deadline_exceeded += 1
                raise DeadlineExceeded(
                    f"request deadline of {deadline_s:.3g}s expired before its "
                    "batch completed; the batch keeps running for its other "
                    "members"
                )
            if submission.error is not None:
                raise submission.error
            return submission.result
        finally:
            with self._lock:
                self._in_flight -= 1

    def stats(self) -> dict[str, int]:
        """Return a snapshot of the request/batch counters.

        ``requests``/``request_vectors`` count every submission;
        ``batches``/``batched_vectors`` count the engine passes actually
        run — their difference is the work coalescing saved.  Every batch
        is one of three flushes: ``idle_flushes`` dispatched at once or as
        soon as their key's running pass ended, ``timeout_flushes`` waited
        out the window (or a leader's deadline) behind a running pass, and
        ``full_flushes`` reached ``max_batch_vectors``.  Every request is
        accounted for: ``request_vectors == batched_vectors`` and
        ``batches == full_flushes + timeout_flushes + idle_flushes`` at
        quiescence.
        """
        with self._lock:
            return {
                "requests": self._requests,
                "request_vectors": self._request_vectors,
                "batches": self._batches,
                "batched_vectors": self._batched_vectors,
                "coalesced_requests": self._requests - self._batches,
                "timeout_flushes": self._timeout_flushes,
                "full_flushes": self._full_flushes,
                "idle_flushes": self._idle_flushes,
                "max_batch_requests": self._max_batch_requests,
                "in_flight": self._in_flight,
                "rejected": self._rejected,
                "deadline_exceeded": self._deadline_exceeded,
            }

    # ------------------------------------------------------------------ #
    # leader side
    # ------------------------------------------------------------------ #
    def _lead(self, key: Hashable, batch: _Batch, expires: float | None) -> None:
        """Wait for the batch's dispatch, close ``batch``, start its flush.

        The wait ends when ``flush_now`` is set (the key is idle or the
        batch full), the window ends, or the leader's own deadline
        ``expires``, whichever comes first.  The evaluation itself runs on
        a dedicated flush thread, not on the leader's calling thread: the
        leader then waits on its own done event like any follower, which
        is what makes per-request deadlines hold for every member of the
        batch.
        """
        until = batch.deadline if expires is None else min(batch.deadline, expires)
        while not batch.flush_now.is_set():
            remaining = until - time.monotonic()
            if remaining <= 0.0:
                break
            batch.flush_now.wait(timeout=remaining)

        submissions: list[_Submission] | None = None
        try:
            with self._lock:
                # Close the batch: late arrivals open a fresh one and are
                # led by their own first submitter, so a long-running
                # evaluation (a deliberately slow request) can never starve
                # the window of the requests behind it.
                if self._open.get(key) is batch:
                    del self._open[key]
                if batch.n_vectors >= self.max_batch_vectors:
                    self._full_flushes += 1
                elif key in self._running:
                    self._timeout_flushes += 1
                else:
                    self._idle_flushes += 1
                self._running[key] = self._running.get(key, 0) + 1
                submissions = list(batch.submissions)
                self._batches += 1
                self._batched_vectors += batch.n_vectors
                self._max_batch_requests = max(
                    self._max_batch_requests, len(submissions)
                )
            runner = threading.Thread(
                target=self._flush,
                args=(key, submissions),
                name="coalescer-flush",
                daemon=True,
            )
            runner.start()
        except BaseException as exc:
            # The leader died between closing the batch and dispatching its
            # flush (thread-spawn failure, interpreter shutdown, injected
            # crash).  Followers must never hang on a dead leader: release
            # every member with the error before re-raising it here.
            if submissions is None:
                with self._lock:
                    if self._open.get(key) is batch:
                        del self._open[key]
                    submissions = list(batch.submissions)
            else:
                # Closed and counted as running, but its flush never
                # started: the key is free again.
                self._pass_ended(key)
            for submission in submissions:
                submission.error = exc
                submission.done.set()
            raise

    def _flush(self, key: Hashable, submissions: list[_Submission]) -> None:
        """Run one closed batch, then mark its pass ended (flush thread).

        The members are released before the next batch dispatches: a
        closed-loop client that resubmits at once still joins that batch,
        so clients share passes instead of taking turns.
        """
        try:
            _run_flush(submissions)
        finally:
            self._pass_ended(key)

    def _pass_ended(self, key: Hashable) -> None:
        """Count one flush of ``key`` finished; dispatch the next if idle.

        When no other flush of ``key`` is running, the batch that gathered
        behind it (if any) dispatches now instead of at its window's end.
        """
        with self._lock:
            running = self._running[key] - 1
            if running:
                self._running[key] = running
                return
            del self._running[key]
            batch = self._open.get(key)
        if batch is not None:
            batch.flush_now.set()


def _run_flush(submissions: list[_Submission]) -> None:
    """Evaluate one closed batch and distribute results (flush thread)."""
    try:
        results = submissions[0].run_batch([s.payload for s in submissions])
        if len(results) != len(submissions):
            raise RuntimeError(
                f"run_batch returned {len(results)} results for "
                f"{len(submissions)} submissions"
            )
        for submission, result in zip(submissions, results):
            submission.result = result
    except BaseException as exc:
        for submission in submissions:
            submission.error = exc
    finally:
        # Every member — including a leader whose deadline already fired
        # and who is no longer listening — is released exactly once.
        for submission in submissions:
            submission.done.set()
