"""Exception types of the resilience layer.

Centralised so every layer — the supervised pool executor and the hardened
service front-end — raises the same vocabulary and callers can catch one
module's types instead of fishing exceptions out of ``concurrent.futures``
internals.
"""

from __future__ import annotations


class DeadlineExceeded(TimeoutError):
    """A request's deadline expired before its result became available.

    Raised to the *caller* only: the batch the request joined keeps
    running and every other member still receives its result.  Subclasses
    :class:`TimeoutError` so generic timeout handling keeps working.
    """


class ServiceOverloaded(RuntimeError):
    """Admission control rejected a request because the service is full.

    Load shedding is explicit: instead of letting requests pile up in an
    unbounded queue (growing latency for everyone until the process dies),
    the service refuses new work the moment its bounded in-flight budget is
    exhausted.  Callers should back off and retry.
    """


class ChunkRetryError(RuntimeError):
    """A supervised chunk kept failing after every allowed retry.

    Carries the chunk index and the last underlying error (as
    ``__cause__``), so the caller knows exactly which unit of work to
    investigate.
    """

    def __init__(self, chunk_index: int, attempts: int, last_error: BaseException):
        self.chunk_index = int(chunk_index)
        self.attempts = int(attempts)
        super().__init__(
            f"chunk {chunk_index} failed on all {attempts} attempts; "
            f"last error: {type(last_error).__name__}: {last_error}"
        )


class InjectedFault(RuntimeError):
    """An error raised on purpose by the deterministic fault injector."""
