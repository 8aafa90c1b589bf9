"""Service layer: compile-once / query-many estimation sessions.

This package is the serving boundary of the estimator.  Everything below it
(:mod:`repro.engine`, :mod:`repro.gates`, :mod:`repro.core`) is per-call
machinery; :class:`EstimationSession` is the long-lived object a deployment
holds on to — it owns the compiled-circuit LRU, a fingerprint-keyed
characterized-library registry (optionally disk-backed by a
:class:`~repro.gates.cache.LibraryStore`), and a request front-end that
coalesces concurrent vector-estimation requests into single batched engine
passes.  Session routing never changes numbers: coalesced and cached
results are bitwise identical to cold per-call evaluation.

Public entry points:

* :class:`EstimationSession` — the session object (``library`` /
  ``compiled`` / ``totals`` / ``campaign`` / ``percentile_leakage`` /
  ``stats``);
* :func:`default_session` — the lazily created process-default session
  the classic entry points route through when no session is passed;
* :func:`stats_delta` — difference two ``stats()`` snapshots (used by the
  experiment drivers to report per-figure cache-hit counts);
* :class:`RequestCoalescer` — the generic dynamic-batching queue, reusable
  for other batchable evaluations.

Hardening: per-request deadlines
(:class:`~repro.resilience.errors.DeadlineExceeded`), bounded admission
with load shedding (:class:`~repro.resilience.errors.ServiceOverloaded`),
leader-death release, and graceful degradation to direct serial
evaluation — both exception types are re-exported here for callers.
"""

from repro.resilience.errors import DeadlineExceeded, ServiceOverloaded
from repro.service.coalesce import (
    DEFAULT_BATCH_WINDOW_S,
    DEFAULT_MAX_BATCH_VECTORS,
    DEFAULT_MAX_IN_FLIGHT,
    RequestCoalescer,
)
from repro.service.session import (
    EstimationSession,
    StatisticalLeakageEstimate,
    default_session,
    stats_delta,
)

__all__ = [
    "DEFAULT_BATCH_WINDOW_S",
    "DEFAULT_MAX_BATCH_VECTORS",
    "DEFAULT_MAX_IN_FLIGHT",
    "DeadlineExceeded",
    "EstimationSession",
    "RequestCoalescer",
    "ServiceOverloaded",
    "StatisticalLeakageEstimate",
    "default_session",
    "stats_delta",
]
