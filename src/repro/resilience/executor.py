"""Supervised process-pool execution with retries, deadlines and a ledger.

:class:`ResilientExecutor` is the hardened replacement for the bare
``ProcessPoolExecutor.map`` loops of the long-running drivers.  It keeps
their contract — an order-preserving map of picklable chunk tasks — and
adds the failure handling a production campaign needs:

* **worker death** (``BrokenProcessPool``: OOM kill, segfault, injected
  ``os._exit``): the pool is re-spawned and the affected chunks re-run;
* **chunk deadlines**: a watchdog condemns the pool when a chunk overruns
  its per-chunk deadline (hung solve, livelocked worker), terminates the
  stuck workers and re-runs the outstanding chunks on a fresh pool;
* **transient chunk errors**: bounded retries with exponential backoff
  whose jitter is drawn from :func:`repro.utils.rng.keyed_rng`-style
  spawned streams — never wall-clock-seeded (RC102), so even the retry
  *timing* is reproducible;
* **a retry ledger** (attempts, retried chunks, pool restarts, deadline
  expirations, give-ups) surfaced in the drivers' result metadata;
* **interrupt-safe teardown**: any error or ``KeyboardInterrupt`` shuts
  the pool down with ``cancel_futures=True`` so no worker keeps computing
  doomed chunks after the driver has given up.

**Bitwise-recovery invariant.**  A chunk is retried by re-pickling its
*original* payload — including its original ``SeedSequence.spawn``-derived
streams, which live in the parent untouched — so a crash-and-retry run
produces results bitwise identical to a clean run, which is bitwise
identical to the serial driver (the repo's standing chunking-invariance
contract).  The resilience tests assert this under every injected fault.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.resilience.errors import ChunkRetryError
from repro.resilience.faults import FaultInjector
from repro.utils.rng import spawn_streams

#: Upper bound of one scheduler nap (seconds): the loop wakes at least this
#: often to poll deadlines even when no future completes.
_MAX_TICK_S = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff/deadline policy of one supervised execution.

    Attributes
    ----------
    max_attempts:
        Total attempts per chunk (first run + retries); exceeding it
        raises :class:`~repro.resilience.errors.ChunkRetryError`.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff before retry ``k`` (1-based):
        ``min(base * factor**(k-1), max)`` seconds.
    backoff_jitter:
        Fractional jitter: the backoff is scaled by ``1 + jitter * u`` with
        ``u`` drawn from the chunk's spawned jitter stream (uniform [0,1)).
        Deterministic for a given ``jitter_seed`` — never wall-clock.
    chunk_deadline_s:
        Per-chunk watchdog deadline measured from the chunk's submission
        to a free worker slot; ``None`` disables the watchdog.
    jitter_seed:
        Root seed of the per-chunk jitter streams.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.25
    chunk_deadline_s: float | None = None
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0.0 or self.backoff_max_s < 0.0:
            raise ValueError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if self.chunk_deadline_s is not None and self.chunk_deadline_s <= 0.0:
            raise ValueError("chunk_deadline_s must be positive")

    def backoff_s(self, retry_number: int, jitter_draw: float) -> float:
        """Return the backoff before 1-based retry ``retry_number``."""
        base = min(
            self.backoff_base_s * self.backoff_factor ** (retry_number - 1),
            self.backoff_max_s,
        )
        return base * (1.0 + self.backoff_jitter * jitter_draw)


@dataclass
class RetryLedger:
    """What the supervisor had to do to finish one execution."""

    chunks: int = 0
    attempts: int = 0
    retries: int = 0
    retried_chunks: list[int] = field(default_factory=list)
    deadline_expirations: int = 0
    pool_restarts: int = 0
    gave_up: int = 0

    def note_retry(self, chunk_index: int) -> None:
        self.retries += 1
        if chunk_index not in self.retried_chunks:
            self.retried_chunks.append(chunk_index)

    def as_dict(self) -> dict[str, object]:
        """Return the ledger as plain JSON-able types (result metadata)."""
        return {
            "chunks": self.chunks,
            "attempts": self.attempts,
            "retries": self.retries,
            "retried_chunks": sorted(self.retried_chunks),
            "deadline_expirations": self.deadline_expirations,
            "pool_restarts": self.pool_restarts,
            "gave_up": self.gave_up,
        }


def _supervised_chunk(
    fn: Callable[[Any], Any],
    item: Any,
    chunk_index: int,
    attempt: int,
    injector: FaultInjector | None,
) -> Any:
    """Worker-side shim: fire injected faults, then run the real chunk."""
    if injector is not None:
        injector.apply_chunk_faults(chunk_index, attempt)
    return fn(item)


class ResilientExecutor:
    """Order-preserving supervised map of picklable chunks over a pool.

    Parameters
    ----------
    max_workers:
        Worker-process count of each pool incarnation.
    policy:
        Retry/backoff/deadline policy (default :class:`RetryPolicy`).
    injector:
        Optional deterministic :class:`FaultInjector`, shipped into the
        workers (tests use it; production runs leave it ``None``).
    """

    def __init__(
        self,
        max_workers: int,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers)
        self.policy = policy or RetryPolicy()
        self.injector = injector

    # ------------------------------------------------------------------ #
    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> tuple[list[Any], RetryLedger]:
        """Run ``fn`` over every item; return (results in order, ledger)."""
        items = list(items)
        n = len(items)
        ledger = RetryLedger(chunks=n)
        results: list[Any] = [None] * n
        attempts = [0] * n
        queue: deque[int] = deque(range(n))
        if not queue:
            return results, ledger

        jitter_streams = spawn_streams(self.policy.jitter_seed, n)
        retry_at = [0.0] * n  # monotonic time before which a chunk must wait
        deadline = self.policy.chunk_deadline_s
        inflight: dict[Future, tuple[int, float]] = {}
        pool = ProcessPoolExecutor(max_workers=self.max_workers)

        def submit(index: int) -> None:
            attempts[index] += 1
            ledger.attempts += 1
            future = pool.submit(
                _supervised_chunk,
                fn,
                items[index],
                index,
                attempts[index] - 1,
                self.injector,
            )
            expires = (
                time.monotonic() + deadline if deadline is not None else float("inf")
            )
            inflight[future] = (index, expires)

        def handle_failure(index: int, error: BaseException) -> None:
            """Schedule a retry with backoff, or give up loudly."""
            if attempts[index] >= self.policy.max_attempts:
                ledger.gave_up += 1
                raise ChunkRetryError(index, attempts[index], error) from error
            ledger.note_retry(index)
            draw = float(jitter_streams[index].random())
            retry_at[index] = time.monotonic() + self.policy.backoff_s(
                attempts[index], draw
            )
            queue.append(index)

        def restart_pool() -> None:
            nonlocal pool
            _condemn(pool)
            ledger.pool_restarts += 1
            pool = ProcessPoolExecutor(max_workers=self.max_workers)

        try:
            while queue or inflight:
                now = time.monotonic()
                # Fill free worker slots with runnable (backoff-expired)
                # chunks.  In-flight is capped at the worker count so the
                # deadline clock starts when a chunk can actually run.
                runnable = [i for i in queue if retry_at[i] <= now]
                while runnable and len(inflight) < self.max_workers:
                    index = runnable.pop(0)
                    queue.remove(index)
                    submit(index)

                if not inflight:
                    # Everything runnable is backing off; nap until the
                    # earliest retry time.
                    soonest = min(retry_at[i] for i in queue)
                    time.sleep(max(0.0, min(soonest - now, _MAX_TICK_S)))
                    continue

                timeout = _MAX_TICK_S
                if deadline is not None:
                    soonest_deadline = min(expiry for _, expiry in inflight.values())
                    timeout = max(0.0, min(timeout, soonest_deadline - now))
                finished, _ = wait(
                    list(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                broken = False
                for future in finished:
                    index, _ = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        results[index] = future.result()
                    elif isinstance(error, BrokenProcessPool):
                        # A worker died; every sibling future of this pool
                        # incarnation fails the same way — all are retried.
                        broken = True
                        handle_failure(index, error)
                    else:
                        handle_failure(index, error)

                if deadline is not None and not broken:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, expiry) in inflight.items()
                        if now >= expiry
                    ]
                    if expired:
                        # The stuck workers cannot be preempted one by one:
                        # condemn the whole pool, refund the innocent
                        # bystander chunks (their attempt never really ran
                        # to failure) and retry the overrunning ones.
                        for future in expired:
                            index, _ = inflight.pop(future)
                            ledger.deadline_expirations += 1
                            handle_failure(
                                index,
                                TimeoutError(
                                    f"chunk {index} exceeded its "
                                    f"{deadline:.3g}s deadline"
                                ),
                            )
                        for future, (index, _) in list(inflight.items()):
                            attempts[index] -= 1
                            ledger.attempts -= 1
                            queue.appendleft(index)
                        inflight.clear()
                        broken = True

                if broken:
                    for future, (index, _) in list(inflight.items()):
                        # Siblings of a broken pool fail with the same
                        # BrokenProcessPool once collected; retry them
                        # without waiting for the collection.
                        if not future.done():
                            attempts[index] -= 1
                            ledger.attempts -= 1
                            queue.appendleft(index)
                        else:
                            error = future.exception()
                            if error is None:
                                results[index] = future.result()
                            else:
                                handle_failure(index, error)
                    inflight.clear()
                    restart_pool()
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown()
        return results, ledger


def _condemn(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool whose workers are dead or stuck.

    ``shutdown(wait=False, cancel_futures=True)`` stops new work; stuck
    workers are then terminated outright (a hung chunk would otherwise
    keep a CPU pinned until process exit).  Termination uses the pool's
    process table when the running interpreter exposes it — a best-effort
    cleanup, never a correctness dependency.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, AttributeError, ValueError):
            # Already exited (or an interpreter without the internal
            # table); the shutdown above remains the portable cleanup.
            continue
