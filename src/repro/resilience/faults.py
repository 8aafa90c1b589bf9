"""Deterministic, seed-driven fault injection for the resilience layer.

Fault tolerance that is only exercised by real outages is fault tolerance
that has never been tested.  This module injects the failure modes the
resilience layer defends against — on purpose, reproducibly:

* ``kill-worker``: the worker process hosting a chunk calls ``os._exit``
  mid-chunk, which the parent observes as a ``BrokenProcessPool`` (the
  exact signature of an OOM-killed or segfaulted worker);
* ``raise``: the chunk raises :class:`~repro.resilience.errors.InjectedFault`
  from inside its evaluation (a poisoned input, a transient numerical
  failure);
* ``stall``: the chunk sleeps past its deadline before completing, so the
  watchdog must fire (a hung solve, a livelocked worker).

Decisions are **deterministic**: explicit per-chunk injection via
:attr:`FaultSpec.chunks`, or rate-based injection whose coin flips come
from :func:`repro.utils.rng.keyed_rng` streams keyed by
``(seed, kind, chunk, attempt)`` — never from wall-clock or process-global
state, so a failing resilience test replays exactly.  By default a fault
fires only on attempt 0 of a chunk (``max_attempt=1``): the retry then
succeeds, which is how the bitwise-recovery tests isolate "recovered"
from "kept failing".
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.resilience.errors import InjectedFault
from repro.utils.rng import keyed_rng

#: Fault kinds understood by the injector (and the executor's chunk shim).
FAULT_KINDS = ("kill-worker", "raise", "stall")


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind's injection plan.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    chunks:
        Explicit chunk indexes to inject into; ``None`` uses ``rate``.
    rate:
        Per-(chunk, attempt) injection probability when ``chunks`` is
        ``None``, decided by a ``keyed_rng(seed, kind, chunk, attempt)``
        draw — deterministic for a given injector seed.
    max_attempt:
        Inject only while ``attempt < max_attempt`` (default 1: first
        attempt fails, retries run clean).  Raise it to test give-up
        behavior.
    stall_s:
        Sleep duration of a ``stall`` fault (ignored by other kinds).
    """

    kind: str
    chunks: frozenset[int] | None = None
    rate: float = 0.0
    max_attempt: int = 1
    stall_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be at least 1")
        if self.stall_s < 0.0:
            raise ValueError("stall_s must be non-negative")
        if self.chunks is not None:
            object.__setattr__(self, "chunks", frozenset(int(c) for c in self.chunks))


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic fault oracle shipped into workers alongside the task.

    Picklable (frozen dataclasses of plain values), so the supervised pool
    executor can send it to worker processes; the decision function is
    pure, so the parent and the workers agree on what fires where.
    """

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def decide(self, kind: str, chunk_index: int, attempt: int) -> bool:
        """Return whether fault ``kind`` fires for (chunk, attempt)."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {kind!r}")
        for spec in self.specs:
            if spec.kind != kind or attempt >= spec.max_attempt:
                continue
            if spec.chunks is not None:
                if int(chunk_index) in spec.chunks:
                    return True
                continue
            if spec.rate > 0.0:
                draw = keyed_rng(self.seed, kind, int(chunk_index), int(attempt))
                if float(draw.random()) < spec.rate:
                    return True
        return False

    def stall_duration(self, chunk_index: int) -> float:
        """Return the stall sleep configured for ``chunk_index``."""
        for spec in self.specs:
            if spec.kind == "stall":
                return spec.stall_s
        return 0.0

    def apply_chunk_faults(self, chunk_index: int, attempt: int) -> None:
        """Fire any chunk-level faults for (chunk, attempt), in-worker.

        Called by the executor's chunk shim *inside the worker process*
        before the real work runs.  ``kill-worker`` hard-exits the process
        (the parent sees ``BrokenProcessPool``); ``raise`` raises
        :class:`InjectedFault`; ``stall`` sleeps, then lets the chunk run
        to completion — past its deadline, so the watchdog's retry races a
        straggler that *will* eventually finish, exactly the ambiguity a
        real hung-then-recovered worker presents.
        """
        if self.decide("kill-worker", chunk_index, attempt):
            os._exit(17)
        if self.decide("stall", chunk_index, attempt):
            time.sleep(self.stall_duration(chunk_index))
        if self.decide("raise", chunk_index, attempt):
            raise InjectedFault(
                f"injected failure in chunk {chunk_index} (attempt {attempt})"
            )
