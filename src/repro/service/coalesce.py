"""Request coalescing: merge concurrent estimation requests into one batch.

The batched engine's cost model is per-*pass*, not per-vector: answering
200 vectors in one :func:`repro.engine.campaign.run_totals` call costs a
handful of array passes, the same 200 vectors as 20 separate 10-vector
calls cost 20x the fixed pass overhead.  A serving front-end therefore
wants concurrent requests that target the same compiled circuit merged
into single engine passes.  :class:`RequestCoalescer` implements the
standard dynamic-batching pattern:

* the first request to arrive for a key opens a batch and becomes its
  **leader**; it waits out a short batch window (``window_s``) for
  followers to join;
* followers append their payload to the open batch and block on their own
  completion event;
* the batch flushes when the window expires (a **timeout flush** — a solo
  or slow-to-gain-company request can never be starved; it just pays the
  window once) or as soon as the batch reaches ``max_batch_vectors``
  (a **full flush**, which wakes the leader early);
* the leader snapshots the batch, *closes* it (so requests arriving while
  the engine pass runs open a fresh batch instead of waiting behind it),
  hands the single batched evaluation to a dedicated flush thread, and
  every member — leader included — waits on its own completion event.

Hardening (the resilience layer's service front):

* **per-request deadlines**: ``submit(..., deadline_s=...)`` waits at most
  that long; expiry raises
  :class:`~repro.resilience.errors.DeadlineExceeded` to that caller only —
  the batch keeps running and every other member still gets its result.
  Because evaluation runs on the flush thread, this holds for the leader
  too: **no caller ever blocks past its deadline**, even mid-evaluation;
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

#: Default batch window (seconds): how long a batch leader waits for
#: followers before flushing.  Small enough to be invisible next to an
#: engine pass, large enough for a burst of concurrent submitters to land
#: in one batch.
DEFAULT_BATCH_WINDOW_S = 0.002

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

    deadline: float
    submissions: list[_Submission] = field(default_factory=list)
    n_vectors: int = 0
    #: Set to wake the leader before the deadline (full batch).
    flush_now: threading.Event = field(default_factory=threading.Event)


class RequestCoalescer:
    """Thread-safe queue merging concurrent submissions into single batches.

    Parameters
    ----------
    window_s:
        Batch window: how long a leader waits for followers.  ``0.0``
        flushes immediately (no coalescing latency, concurrent requests
        only merge if they arrive within the same scheduling instant).
    max_batch_vectors:
        Flush a batch as soon as its summed vector count reaches this
        bound, without waiting out the window.
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
        # -- counters (all under the lock) --------------------------------- #
        self._requests = 0
        self._request_vectors = 0
        self._batches = 0
        self._batched_vectors = 0
        self._timeout_flushes = 0
        self._full_flushes = 0
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
        acts as leader: it waits out the window, closes the batch and hands
        the evaluation to a dedicated flush thread; every member then waits
        on its own completion event.  An evaluation error propagates to
        every request of the batch.

        ``deadline_s`` bounds *this caller's* wait.  Expiry raises
        :class:`DeadlineExceeded` to this caller only; the batch keeps
        running and other members are unaffected.  When the service is at
        its admission bound the request is shed with
        :class:`ServiceOverloaded` without joining any batch.
        """
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive (or None)")
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
            if batch.n_vectors >= self.max_batch_vectors or self.window_s == 0.0:
                batch.flush_now.set()

        try:
            if leader:
                self._lead(key, batch)
            if not submission.done.wait(timeout=deadline_s):
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
        run — their difference is the work coalescing saved.  Every request
        is accounted for: ``request_vectors == batched_vectors`` and
        ``batches == timeout_flushes + full_flushes`` at quiescence.
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
                "max_batch_requests": self._max_batch_requests,
                "in_flight": self._in_flight,
                "rejected": self._rejected,
                "deadline_exceeded": self._deadline_exceeded,
            }

    # ------------------------------------------------------------------ #
    # leader side
    # ------------------------------------------------------------------ #
    def _lead(self, key: Hashable, batch: _Batch) -> None:
        """Wait out the batch window, close ``batch``, dispatch its flush.

        The evaluation itself runs on a dedicated flush thread, not on the
        leader's calling thread: the leader then waits on its own done
        event like any follower, which is what makes per-request deadlines
        hold for every member of the batch.
        """
        while not batch.flush_now.is_set():
            remaining = batch.deadline - time.monotonic()
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
                submissions = list(batch.submissions)
                full = batch.n_vectors >= self.max_batch_vectors
                self._batches += 1
                self._batched_vectors += batch.n_vectors
                self._max_batch_requests = max(
                    self._max_batch_requests, len(submissions)
                )
                if full:
                    self._full_flushes += 1
                else:
                    self._timeout_flushes += 1
            runner = threading.Thread(
                target=_run_flush,
                args=(submissions,),
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
            for submission in submissions:
                submission.error = exc
                submission.done.set()
            raise


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
