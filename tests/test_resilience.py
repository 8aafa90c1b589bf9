"""Tests for the resilience layer: supervised pools, deadlines, faults.

The central claim under test is **bitwise recovery**: a run that loses a
worker, retries a failing chunk or times out a stalled chunk must finish
with exactly the bytes of a run that never saw a fault — because retried
chunks re-run from their original ``SeedSequence.spawn`` streams and the
engines are batch-composition invariant.  Every fault here is injected
deterministically (:mod:`repro.resilience.faults`), so a failing test
replays exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.generators import nand_tree
from repro.engine.parallel import ParallelMonteCarlo
from repro.optimize.search import GeneticOptions, genetic_minimize
from repro.resilience import (
    ChunkRetryError,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResilienceOptions,
    ResilientExecutor,
    RetryPolicy,
)
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo

#: Fast retry policy for tests: real backoff shape, negligible wall clock.
FAST_RETRY = RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05)


def _mc_samples_bitwise_equal(result_a, result_b) -> bool:
    if result_a.sample_count != result_b.sample_count:
        return False
    for a, b in zip(result_a.samples, result_b.samples):
        if a.with_loading.as_dict() != b.with_loading.as_dict():
            return False
        if a.without_loading.as_dict() != b.without_loading.as_dict():
            return False
    return True


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5,
            backoff_jitter=0.0,
        )
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)
        assert policy.backoff_s(2, 0.0) == pytest.approx(0.2)
        assert policy.backoff_s(3, 0.0) == pytest.approx(0.4)
        assert policy.backoff_s(4, 0.0) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9, 0.0) == pytest.approx(0.5)

    def test_jitter_scales_the_backoff(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_jitter=0.5)
        assert policy.backoff_s(1, 1.0) == pytest.approx(0.15)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="backoff_jitter"):
            RetryPolicy(backoff_jitter=1.5)
        with pytest.raises(ValueError, match="chunk_deadline_s"):
            RetryPolicy(chunk_deadline_s=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base_s=-1.0)


class TestFaultInjector:
    def test_explicit_chunks_fire_only_there(self):
        injector = FaultInjector(
            seed=3, specs=(FaultSpec(kind="raise", chunks=frozenset({1, 4})),)
        )
        fired = [i for i in range(6) if injector.decide("raise", i, 0)]
        assert fired == [1, 4]
        assert not injector.decide("kill-worker", 1, 0)

    def test_rate_decisions_are_deterministic_and_seed_keyed(self):
        injector = FaultInjector(
            seed=11, specs=(FaultSpec(kind="raise", rate=0.5),)
        )
        decisions = [injector.decide("raise", i, 0) for i in range(32)]
        # Pure oracle: replaying yields exactly the same decisions.
        assert decisions == [injector.decide("raise", i, 0) for i in range(32)]
        assert any(decisions) and not all(decisions)
        other_seed = FaultInjector(seed=12, specs=(FaultSpec(kind="raise", rate=0.5),))
        assert decisions != [other_seed.decide("raise", i, 0) for i in range(32)]

    def test_max_attempt_gates_injection(self):
        injector = FaultInjector(
            seed=0, specs=(FaultSpec(kind="raise", chunks=frozenset({0})),)
        )
        assert injector.decide("raise", 0, 0)
        assert not injector.decide("raise", 0, 1)  # retries run clean

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="raise", rate=1.5)
        with pytest.raises(ValueError, match="max_attempt"):
            FaultSpec(kind="raise", max_attempt=0)
        with pytest.raises(ValueError, match="kind"):
            FaultInjector().decide("explode", 0, 0)


class TestResilientExecutor:
    def test_clean_map_preserves_order(self):
        results, ledger = ResilientExecutor(2).map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert ledger.as_dict() == {
            "chunks": 5,
            "attempts": 5,
            "retries": 0,
            "retried_chunks": [],
            "deadline_expirations": 0,
            "pool_restarts": 0,
            "gave_up": 0,
        }

    def test_injected_raise_is_retried_and_ledgered(self):
        injector = FaultInjector(
            seed=7, specs=(FaultSpec(kind="raise", chunks=frozenset({1, 3})),)
        )
        executor = ResilientExecutor(2, policy=FAST_RETRY, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert sorted(ledger.retried_chunks) == [1, 3]
        assert ledger.retries == 2
        assert ledger.attempts == ledger.chunks + ledger.retries
        assert ledger.gave_up == 0

    def test_worker_death_restarts_pool_and_recovers(self):
        injector = FaultInjector(
            seed=7, specs=(FaultSpec(kind="kill-worker", chunks=frozenset({2})),)
        )
        executor = ResilientExecutor(2, policy=FAST_RETRY, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4, -5])
        assert results == [1, 2, 3, 4, 5]
        assert ledger.pool_restarts >= 1
        assert 2 in ledger.retried_chunks
        assert ledger.gave_up == 0

    def test_stalled_chunk_trips_the_deadline_watchdog(self):
        injector = FaultInjector(
            seed=7,
            specs=(FaultSpec(kind="stall", chunks=frozenset({1}), stall_s=5.0),),
        )
        policy = RetryPolicy(backoff_base_s=0.01, chunk_deadline_s=0.25)
        executor = ResilientExecutor(2, policy=policy, injector=injector)
        results, ledger = executor.map(abs, [-1, -2, -3, -4])
        assert results == [1, 2, 3, 4]
        assert ledger.deadline_expirations >= 1
        assert 1 in ledger.retried_chunks
        assert ledger.gave_up == 0

    def test_permanent_failure_gives_up_loudly(self):
        injector = FaultInjector(
            seed=7,
            specs=(
                FaultSpec(kind="raise", chunks=frozenset({0}), max_attempt=99),
            ),
        )
        executor = ResilientExecutor(
            2, policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            injector=injector,
        )
        with pytest.raises(ChunkRetryError) as excinfo:
            executor.map(abs, [-1, -2])
        assert excinfo.value.chunk_index == 0
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            ResilientExecutor(0)


class TestResilienceOptions:
    def test_factories(self):
        options = ResilienceOptions(policy=FAST_RETRY)
        executor = options.executor(2)
        assert executor.policy is FAST_RETRY


class TestMonteCarloBitwiseRecovery:
    SAMPLES = 6
    SEED = 42

    @pytest.fixture(scope="class")
    def serial_mc(self, bulk25):
        return run_loaded_inverter_monte_carlo(
            bulk25, samples=self.SAMPLES, rng=self.SEED
        )

    def _faulted_run(self, bulk25, specs, policy=FAST_RETRY):
        driver = ParallelMonteCarlo(
            bulk25,
            max_workers=2,
            resilience=ResilienceOptions(
                policy=policy, injector=FaultInjector(seed=5, specs=specs)
            ),
        )
        return driver.run(self.SAMPLES, rng=self.SEED)

    def test_kill_worker_mid_monte_carlo_recovers_bitwise(self, bulk25, serial_mc):
        result = self._faulted_run(
            bulk25, (FaultSpec(kind="kill-worker", chunks=frozenset({0})),)
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert 0 in ledger["retried_chunks"]
        assert ledger["pool_restarts"] >= 1
        assert ledger["gave_up"] == 0

    def test_injected_error_recovers_bitwise(self, bulk25, serial_mc):
        """Recovery re-runs the faulted chunk once and nothing else."""
        result = self._faulted_run(
            bulk25, (FaultSpec(kind="raise", chunks=frozenset({1})),)
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert ledger["retried_chunks"] == [1]
        assert ledger["retries"] == 1
        assert ledger["attempts"] == ledger["chunks"] + 1

    def test_kill_worker_and_raise_together_recover_bitwise(self, bulk25, serial_mc):
        """A dead worker and a poisoned chunk in one run: the pool restarts,
        both chunks re-run, and the samples are the serial run's bytes."""
        result = self._faulted_run(
            bulk25,
            (
                FaultSpec(kind="kill-worker", chunks=frozenset({0})),
                FaultSpec(kind="raise", chunks=frozenset({1})),
            ),
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert ledger["retried_chunks"] == [0, 1]
        assert ledger["pool_restarts"] >= 1
        assert ledger["gave_up"] == 0

    def test_stall_past_deadline_recovers_bitwise(self, bulk25, serial_mc):
        result = self._faulted_run(
            bulk25,
            (FaultSpec(kind="stall", chunks=frozenset({0}), stall_s=10.0),),
            policy=RetryPolicy(backoff_base_s=0.01, chunk_deadline_s=0.5),
        )
        assert _mc_samples_bitwise_equal(result, serial_mc)
        ledger = result.metadata["resilience"]
        assert ledger["deadline_expirations"] >= 1
        assert ledger["gave_up"] == 0


class TestSearchBitwiseRecovery:
    def test_genetic_islands_recover_bitwise_under_faults(
        self, d25s, library_d25s
    ):
        from repro.service import default_session

        circuit = nand_tree(2)
        compiled = default_session().compiled(circuit, library_d25s)
        options = GeneticOptions(population=8, generations=4, elite=1)
        serial = genetic_minimize(
            compiled, options=options, rng=17, islands=2, max_workers=1
        )
        faulted = genetic_minimize(
            compiled,
            options=options,
            rng=17,
            islands=2,
            max_workers=2,
            resilience=ResilienceOptions(
                policy=FAST_RETRY,
                injector=FaultInjector(
                    seed=4, specs=(FaultSpec(kind="raise", chunks=frozenset({0})),)
                ),
            ),
        )
        assert faulted.best_total == serial.best_total
        assert np.array_equal(faulted.best_bits, serial.best_bits)
        assert faulted.evaluations == serial.evaluations
        ledger = faulted.metadata["resilience"]
        assert ledger["retried_chunks"] == [0]
        assert ledger["gave_up"] == 0
