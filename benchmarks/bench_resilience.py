"""Resilience benchmark: the price of surviving faults, and the proof it works.

The resilience layer's claim is also operational: a supervised Monte-Carlo
run that loses a worker mid-flight (``kill-worker``) and hits a transient
chunk failure (``raise``) must finish **bitwise identical** to the serial
oracle, at a bounded recovery overhead.  Two measured sides, same task and
seed throughout:

* **fault-free**: the supervised pool with no injector — the baseline the
  overhead ratio is charged against;
* **faulted**: deterministic injector kills the worker hosting one chunk
  and poisons another chunk's first attempt — the pool restarts, the
  retries re-run from the original spawned seed streams.

Records ``benchmarks/resilience.json`` (override with
``RESILIENCE_BENCH_JSON``) for CI to archive.  Environment knobs for smoke
runs: ``RESILIENCE_BENCH_SAMPLES``, ``RESILIENCE_BENCH_WORKERS`` and
``RESILIENCE_BENCH_MAX_OVERHEAD`` (smoke machines are noisy; the bitwise
and ledger bars are never relaxed).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.engine.parallel import ParallelMonteCarlo
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceOptions,
    RetryPolicy,
)
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo

SAMPLES = int(os.environ.get("RESILIENCE_BENCH_SAMPLES", "32"))
WORKERS = int(os.environ.get("RESILIENCE_BENCH_WORKERS", "2"))
SEED = 2005

#: Acceptance ceiling: recovering from the injected faults (one dead
#: worker, one poisoned chunk) must cost at most this factor over the
#: fault-free supervised run.  Smoke runs may raise it (pool restarts are
#: a fixed cost that looms larger at tiny sample counts); the bitwise and
#: ledger bars below are never relaxed.
MAX_OVERHEAD = float(os.environ.get("RESILIENCE_BENCH_MAX_OVERHEAD", "2.0"))

#: Fast backoff so the measured overhead is recovery work, not sleeping.
POLICY = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.1)


def _json_path() -> Path:
    override = os.environ.get("RESILIENCE_BENCH_JSON")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "resilience.json"


def _samples_bitwise_equal(result_a, result_b) -> bool:
    if result_a.sample_count != result_b.sample_count:
        return False
    for a, b in zip(result_a.samples, result_b.samples):
        if a.with_loading.as_dict() != b.with_loading.as_dict():
            return False
        if a.without_loading.as_dict() != b.without_loading.as_dict():
            return False
    return True


def _timed_run(technology, resilience):
    driver = ParallelMonteCarlo(
        technology, max_workers=WORKERS, resilience=resilience
    )
    start = time.perf_counter()
    result = driver.run(SAMPLES, rng=SEED)
    return result, time.perf_counter() - start


def test_resilience_recovery_overhead(benchmark, bulk25):
    # The oracle is the plain serial path: no pool, no supervision.
    oracle = run_loaded_inverter_monte_carlo(bulk25, samples=SAMPLES, rng=SEED)

    # The batched Monte-Carlo path forms one chunk per worker, so chunks
    # 0 and 1 always exist at the minimum WORKERS=2.
    injector = FaultInjector(
        seed=7,
        specs=(
            FaultSpec(kind="kill-worker", chunks=frozenset({0})),
            FaultSpec(kind="raise", chunks=frozenset({1})),
        ),
    )

    def measure():
        fault_free = _timed_run(bulk25, ResilienceOptions(policy=POLICY))
        faulted = _timed_run(
            bulk25, ResilienceOptions(policy=POLICY, injector=injector)
        )
        return fault_free, faulted

    (clean_result, clean_seconds), (faulted_result, faulted_seconds) = run_once(
        benchmark, measure
    )

    clean_identical = _samples_bitwise_equal(clean_result, oracle)
    faulted_identical = _samples_bitwise_equal(faulted_result, oracle)
    overhead = (
        faulted_seconds / clean_seconds if clean_seconds > 0 else float("nan")
    )

    faulted_ledger = faulted_result.metadata["resilience"]
    record = {
        "seed": SEED,
        "samples": SAMPLES,
        "workers": WORKERS,
        "max_overhead_bar": MAX_OVERHEAD,
        "fault_free": {
            "seconds": clean_seconds,
            "bitwise_identical": clean_identical,
        },
        "faulted": {
            "seconds": faulted_seconds,
            "bitwise_identical": faulted_identical,
            "overhead_vs_fault_free": overhead,
            "retries": faulted_ledger["retries"],
            "retried_chunks": faulted_ledger["retried_chunks"],
            "pool_restarts": faulted_ledger["pool_restarts"],
            "gave_up": faulted_ledger["gave_up"],
        },
    }
    path = _json_path()
    path.write_text(json.dumps(record, indent=2) + "\n")

    print()
    print(
        f"fault-free {clean_seconds:.2f}s vs faulted {faulted_seconds:.2f}s "
        f"-> {overhead:.2f}x overhead ({faulted_ledger['retries']} retries, "
        f"{faulted_ledger['pool_restarts']} pool restart(s)) ({path})"
    )

    # Bitwise bars — never relaxed.
    assert clean_identical, "supervised pool differs from serial oracle"
    assert faulted_identical, "faulted run did not recover bitwise"
    # Ledger bars: the injected faults actually happened and were survived.
    assert faulted_ledger["pool_restarts"] >= 1
    assert 0 in faulted_ledger["retried_chunks"]
    assert 1 in faulted_ledger["retried_chunks"]
    assert faulted_ledger["gave_up"] == 0
    assert overhead <= MAX_OVERHEAD
