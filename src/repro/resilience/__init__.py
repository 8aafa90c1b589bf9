"""Resilience layer: supervised pools, deadlines, fault injection.

One package holds everything the long-running drivers need to survive the
failures a real campaign meets — worker death, hung chunks, transient
errors — while preserving the repo's standing bitwise-reproducibility
contract: a run that crashed, retried or degraded finishes with exactly
the bytes a clean serial run produces.

* :class:`ResilientExecutor` — supervised process-pool map with retries,
  backoff, deadlines and a :class:`RetryLedger` (``executor``);
* :class:`FaultInjector` — deterministic seed-driven fault injection
  (``faults``);
* the shared exception vocabulary (``errors``).

Drivers take one :class:`ResilienceOptions` bundle instead of loose
keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.resilience.errors import (
    ChunkRetryError,
    DeadlineExceeded,
    InjectedFault,
    ServiceOverloaded,
)
from repro.resilience.executor import ResilientExecutor, RetryLedger, RetryPolicy
from repro.resilience.faults import FAULT_KINDS, FaultInjector, FaultSpec

__all__ = [
    "ChunkRetryError",
    "DeadlineExceeded",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceOptions",
    "ResilientExecutor",
    "RetryLedger",
    "RetryPolicy",
    "ServiceOverloaded",
]


@dataclass(frozen=True)
class ResilienceOptions:
    """Resilience configuration a long-running driver accepts as one bundle.

    Attributes
    ----------
    policy:
        Retry/backoff/deadline policy of the supervised pool.
    injector:
        Optional deterministic fault injector (tests; production runs
        leave it ``None``).
    """

    policy: RetryPolicy | None = None
    injector: FaultInjector | None = None

    def executor(self, max_workers: int) -> ResilientExecutor:
        """Return the supervised executor this bundle configures."""
        return ResilientExecutor(
            max_workers, policy=self.policy, injector=self.injector
        )
