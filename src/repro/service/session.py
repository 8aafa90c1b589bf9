"""Compile-once / query-many estimation sessions.

Every estimation entry point of this repo used to re-thread the same
plumbing per call: characterize (or fetch) a library, compile the circuit
against it, pick an engine mode, run.  :class:`EstimationSession` extracts
that boundary into one long-lived object — the shape a serving layer needs:

* a **compiled-circuit cache** (:class:`repro.engine.compile.CompileCache`,
  bounded LRU with hit/miss/eviction counters) so repeated queries against
  the same circuit skip straight to the array passes;
* a **fingerprint-keyed library registry**, optionally backed by an
  on-disk :class:`repro.gates.cache.LibraryStore` so a fleet of worker
  processes shares one warm characterization cache;
* a **coalescing request front-end** (:mod:`repro.service.coalesce`):
  concurrent ``totals`` calls from many threads merge into single batched
  :func:`~repro.engine.campaign.run_totals` engine passes inside a small
  batch window; ``campaign`` answers full per-gate runs directly through
  :func:`~repro.engine.campaign.run_compiled`.

**Invariance contract.**  Coalescing and session routing never change
numbers: every engine pass computes vector columns independently
(batch-composition invariance, pinned by the engine test suite), so a
coalesced batch's per-request slices are bitwise identical to the same
requests evaluated serially one at a time, and a cache hit returns the
exact object a cold compile would rebuild.  ``tests/test_service.py``
asserts both under real thread concurrency.

The classic entry points (:func:`repro.core.vectors.run_vector_campaign`,
:func:`repro.optimize.minimize_leakage`, the experiment drivers) are thin
adapters over a session: they accept ``session=`` and otherwise route
through the process-default session of :func:`default_session`, whose
compile cache is the same object legacy direct
:func:`~repro.engine.compile.compile_circuit` calls hit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.circuit.netlist import Circuit
from repro.engine.campaign import (
    BatchedCampaignRun,
    DEFAULT_CHUNK_SIZE,
    run_compiled,
    run_totals,
)
from repro.engine.compile import (
    CompileCache,
    CompiledCircuit,
    default_compile_cache,
)
from repro.gates.cache import (
    LibraryStore,
    characterization_fingerprint,
    settings_fingerprint,
)
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.resilience.errors import DeadlineExceeded, ServiceOverloaded
from repro.service.coalesce import RequestCoalescer
from repro.utils.rng import RngLike, spawn_streams
from repro.variation.montecarlo import run_loaded_inverter_monte_carlo
from repro.variation.spec import VariationSpec
from repro.variation.statistics import (
    PercentileEstimate,
    YieldEstimate,
    equivalent_mc_samples,
    percentile_leakage,
    yield_fraction,
)


#: Leakage components a statistical-leakage population records.
_STATISTICAL_COMPONENTS = ("subthreshold", "gate", "btbt", "total")


@dataclass(frozen=True)
class StatisticalLeakageEstimate:
    """Answer of :meth:`EstimationSession.percentile_leakage`.

    ``percentile`` is the requested population percentile with its
    bootstrap confidence interval; ``yield_estimate`` is present when a
    leakage ``limit`` was passed.  ``equivalent_mc_samples`` reports how
    many *plain Monte-Carlo* samples the variance-reduced population is
    worth for this statistic (measured from replicate scatter — ~ the
    pooled count for ``sampler="mc"``, substantially more for ``"qmc"``).
    ``population_cached`` tells whether the query reused a pooled
    population already computed by this session (same settings + seed) —
    the compile-once / query-many shape: new percentiles against a cached
    population cost bootstrap arithmetic, not circuit solves.
    """

    percentile: PercentileEstimate
    yield_estimate: YieldEstimate | None
    equivalent_mc_samples: float
    sample_count: int
    replicates: int
    sampler: str
    component: str
    loaded: bool
    population_cached: bool


class EstimationSession:
    """A long-lived compile-once / query-many estimation service core.

    Parameters
    ----------
    store:
        Optional on-disk characterization store — a
        :class:`~repro.gates.cache.LibraryStore` or a directory path.
        Libraries created through :meth:`library` are warmed from it and
        published back after characterization grows them.
    compile_cache:
        The compiled-circuit LRU this session owns.  Default: a fresh
        private :class:`~repro.engine.compile.CompileCache` (isolated
        statistics); :func:`default_session` instead shares the
        process-default cache with direct ``compile_circuit`` callers.

    ``totals`` coalesces through a
    :class:`~repro.service.coalesce.RequestCoalescer` at its default batch
    window, batch size and admission bound (beyond it ``totals`` raises
    :class:`~repro.resilience.errors.ServiceOverloaded`).  A circuit is
    linted under the ``"raise"`` policy when it is first compiled; cache
    hits return the already-linted instance.

    Thread safety: ``totals``/``campaign``/``compiled``/``library`` may be
    called from any number of threads; compiles and library registration
    are serialized, engine passes run outside the session lock.

    Graceful degradation: when a *coalesced* ``totals`` evaluation fails
    for any reason other than the caller's own deadline or load shedding,
    the request falls back to a direct serial evaluation of its own payload
    (counted in ``stats()["session"]["degraded_requests"]``) — a poisoned
    batch-mate can fail its own request, never an innocent one.
    """

    def __init__(
        self,
        store: LibraryStore | str | Path | None = None,
        compile_cache: CompileCache | None = None,
    ) -> None:
        if store is not None and not isinstance(store, LibraryStore):
            store = LibraryStore(store)
        self.store: LibraryStore | None = store
        self.compile_cache = compile_cache or CompileCache()
        self._coalescer = RequestCoalescer()
        self._lock = threading.Lock()
        self._libraries: dict[str, GateLibrary] = {}
        self._library_hits = 0
        self._library_misses = 0
        self._requests = 0
        self._degraded_requests = 0
        #: Pooled variation populations keyed by settings fingerprint.
        self._populations: dict[str, dict[tuple[str, bool], list[np.ndarray]]] = {}
        self._population_hits = 0
        self._population_misses = 0

    # ------------------------------------------------------------------ #
    # characterized-library registry
    # ------------------------------------------------------------------ #
    def library(
        self,
        technology: Any,
        options: CharacterizationOptions | None = None,
        temperature_k: float | None = None,
    ) -> GateLibrary:
        """Return the session's library for these characterization settings.

        Keyed by the SHA-256 settings fingerprint (full technology tree +
        options + temperature), so two figures asking for the same
        settings share one characterized library — and, with a backing
        :class:`LibraryStore`, one warm on-disk cache across processes.
        """
        return self.register_library(GateLibrary(technology, temperature_k, options))

    def register_library(self, library: GateLibrary) -> GateLibrary:
        """Adopt a pre-built library; return the session's canonical instance.

        If a library with the same settings fingerprint is already
        registered, that instance is returned (its characterization cache
        is the warmer one); otherwise ``library`` is registered as-is —
        warmed from the backing store when one is configured.
        """
        fingerprint = characterization_fingerprint(
            library.technology,
            library.characterizer.options,
            library.temperature_k,
        )
        with self._lock:
            cached = self._libraries.get(fingerprint)
            if cached is not None:
                self._library_hits += 1
                return cached
            self._library_misses += 1
            if self.store is not None:
                self.store.load(library)
            self._libraries[fingerprint] = library
            return library

    def publish_libraries(self) -> int:
        """Publish every registered library to the backing store.

        Returns the total record count written (0 without a store or when
        nothing grew).  Call at natural checkpoints — end of a warm-up,
        session shutdown — so other workers inherit the characterization.
        """
        if self.store is None:
            return 0
        with self._lock:
            libraries = list(self._libraries.values())
        return sum(self.store.publish(library) for library in libraries)

    # ------------------------------------------------------------------ #
    # compiled-circuit cache
    # ------------------------------------------------------------------ #
    def compiled(self, circuit: Circuit, library: GateLibrary) -> CompiledCircuit:
        """Return the (cached) compile of ``circuit`` against ``library``."""
        return self.compile_cache.get_or_compile(circuit, library)

    def warm_up(
        self, circuits: Iterable[Circuit], library: GateLibrary
    ) -> list[CompiledCircuit]:
        """Compile every circuit now (characterizing as needed); return them.

        The explicit warm-up path of a serving deployment: pay
        characterization and compilation before traffic arrives, then
        publish the grown library to the store for the rest of the fleet.
        """
        compiled = [self.compiled(circuit, library) for circuit in circuits]
        self.publish_libraries()
        return compiled

    # ------------------------------------------------------------------ #
    # request front-end
    # ------------------------------------------------------------------ #
    def totals(
        self,
        circuit: Circuit,
        library: GateLibrary,
        vectors: Iterable[Mapping[str, int]] | np.ndarray,
        include_loading: bool = True,
        coalesce: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        deadline_s: float | None = None,
    ) -> np.ndarray:
        """Return the total circuit leakage (A) per vector.

        ``vectors`` is either an iterable of primary-input assignments or
        an already-packed ``(n_primary_inputs, n_vectors)`` 0/1 bit matrix
        in ``circuit.primary_inputs`` row order.  With ``coalesce=True``
        (default) the request may merge with concurrent ``totals`` requests
        against the same compiled circuit into one engine pass — results
        are bitwise identical either way.  ``deadline_s`` bounds this
        caller's wait; expiry raises
        :class:`~repro.resilience.errors.DeadlineExceeded` without
        disturbing the batch.
        """
        compiled = self.compiled(circuit, library)
        if isinstance(vectors, np.ndarray):
            pi_bits = np.ascontiguousarray(vectors, dtype=np.uint8)
        else:
            pi_bits = compiled.validate_assignments([dict(v) for v in vectors])
        self._count_request()

        def run_direct() -> np.ndarray:
            return run_totals(
                compiled, pi_bits, include_loading=include_loading,
                chunk_size=chunk_size,
            )

        if not coalesce or pi_bits.shape[1] == 0:
            return run_direct()

        def run_batch(payloads: list[np.ndarray]) -> list[np.ndarray]:
            stacked = np.concatenate(payloads, axis=1)
            batch_totals = run_totals(
                compiled, stacked, include_loading=include_loading,
                chunk_size=chunk_size,
            )
            results: list[np.ndarray] = []
            lo = 0
            for payload in payloads:
                hi = lo + payload.shape[1]
                results.append(batch_totals[lo:hi].copy())
                lo = hi
            return results

        key = (id(compiled), bool(include_loading), "totals")
        result = self._submit_degradable(
            key, pi_bits, pi_bits.shape[1], run_batch, deadline_s, run_direct
        )
        assert isinstance(result, np.ndarray)
        return result

    def campaign(
        self,
        circuit: Circuit,
        library: GateLibrary,
        vectors: Iterable[Mapping[str, int]],
        include_loading: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> BatchedCampaignRun:
        """Run a full campaign (per-gate arrays, lazy reports) over ``vectors``.

        Answers with the complete
        :class:`~repro.engine.campaign.BatchedCampaignRun` of one direct
        :func:`run_compiled` pass; only :meth:`totals` coalesces.
        """
        compiled = self.compiled(circuit, library)
        self._count_request()
        return run_compiled(
            compiled, [dict(v) for v in vectors],
            include_loading=include_loading, chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------ #
    # statistical leakage
    # ------------------------------------------------------------------ #
    def percentile_leakage(
        self,
        technology: Any,
        percentile: float = 99.9,
        spec: VariationSpec | None = None,
        samples: int = 256,
        replicates: int = 4,
        rng: RngLike = 0,
        component: str = "total",
        loaded: bool = True,
        input_value: int = 0,
        input_loads: int = 6,
        output_loads: int = 6,
        sampler: str = "qmc",
        limit: float | None = None,
        confidence: float = 0.95,
        bootstrap: int = 500,
    ) -> StatisticalLeakageEstimate:
        """Estimate a leakage percentile (and yield) across process corners.

        Runs ``replicates`` independent variation studies of the Fig. 10
        loaded-inverter structure — with the default ``sampler="qmc"`` each
        replicate is an independently scrambled Sobol block (seeded from
        ``rng`` via ``SeedSequence.spawn``, reproducible) — pools the
        populations, and answers with:

        * the ``percentile`` leakage (e.g. 99.9 = the 99.9th-percentile
          leakage across corners) with a bootstrap confidence interval;
        * the yield fraction at ``limit`` when one is given;
        * an honest ``equivalent_mc_samples`` figure: the replicate scatter
          of the percentile statistic against a bootstrap proxy of the
          plain-MC error at the same total budget.

        With an integer seed the pooled population is cached under the
        SHA-256 fingerprint of every setting that shapes it (technology,
        spec, budget, sampler, seed), so follow-up queries — a different
        percentile, a different component, a yield limit — reuse it without
        a single new circuit solve.  A
        ``Generator`` or ``None`` query solves its population and stores
        nothing: spawning advances a generator without changing its state,
        and ``None`` draws fresh entropy, so neither names one population.
        Non-converged samples are dropped (a stalled corner must not bias a
        yield estimate), which simply shrinks the population.
        """
        if replicates < 2:
            raise ValueError(
                "replicates must be at least 2 (the error estimate needs "
                "replicate scatter)"
            )
        spec = spec or VariationSpec()
        key: str | None = None
        if isinstance(rng, (int, np.integer)):
            key = settings_fingerprint(
                {
                    "kind": "statistical-leakage-population",
                    "technology": technology,
                    "spec": spec,
                    "samples": samples,
                    "replicates": replicates,
                    "input_value": input_value,
                    "input_loads": input_loads,
                    "output_loads": output_loads,
                    "sampler": sampler,
                    "rng": int(rng),
                }
            )
        with self._lock:
            populations = None if key is None else self._populations.get(key)
            cached = populations is not None
            if cached:
                self._population_hits += 1
            else:
                self._population_misses += 1
        self._count_request()
        if populations is None:
            streams = spawn_streams(rng, replicates)
            runs = [
                run_loaded_inverter_monte_carlo(
                    technology,
                    spec=spec,
                    samples=samples,
                    rng=stream,
                    input_value=input_value,
                    input_loads=input_loads,
                    output_loads=output_loads,
                    sampler=sampler,
                    on_nonconverged="drop",
                )
                for stream in streams
            ]
            populations = {
                (name, flag): [run.values(name, loaded=flag) for run in runs]
                for name in _STATISTICAL_COMPONENTS
                for flag in (True, False)
            }
            if key is not None:
                with self._lock:
                    self._populations[key] = populations
        if (component, loaded) not in populations:
            raise KeyError(f"unknown leakage component {component!r}")
        replicate_values = populations[(component, loaded)]
        pooled = np.concatenate(replicate_values)
        if pooled.size == 0:
            raise ValueError(
                "statistical-leakage population is empty: every Monte-Carlo "
                "sample was dropped as non-converged"
            )
        estimate = percentile_leakage(
            pooled, percentile, confidence=confidence, bootstrap=bootstrap, rng=0
        )
        replicate_stats = np.array(
            [
                np.percentile(values, percentile)
                for values in replicate_values
                if values.size
            ]
        )

        def _percentile_stat(block: np.ndarray, axis: int) -> np.ndarray:
            return np.percentile(block, percentile, axis=axis)

        equivalent = equivalent_mc_samples(
            pooled, replicate_stats, statistic=_percentile_stat, rng=0
        )
        yield_estimate = (
            None
            if limit is None
            else yield_fraction(
                pooled, limit, confidence=confidence, bootstrap=bootstrap, rng=0
            )
        )
        return StatisticalLeakageEstimate(
            percentile=estimate,
            yield_estimate=yield_estimate,
            equivalent_mc_samples=equivalent,
            sample_count=int(pooled.size),
            replicates=len(replicate_values),
            sampler=sampler,
            component=component,
            loaded=loaded,
            population_cached=cached,
        )

    # ------------------------------------------------------------------ #
    # degradation
    # ------------------------------------------------------------------ #
    def _submit_degradable(
        self,
        key: Any,
        payload: Any,
        n_vectors: int,
        run_batch: Any,
        deadline_s: float | None,
        run_direct: Any,
    ) -> Any:
        """Submit to the coalescer; degrade to direct evaluation on failure.

        A coalesced batch can fail because of *any* of its members (a
        poisoned payload, a dying ``run_batch``).  This caller's own
        deadline expiry and admission-control shedding propagate as-is —
        they are verdicts about this request.  Every other batch error
        triggers graceful degradation: the request re-evaluates its own
        payload directly (serial, uncoalesced), so a healthy request never
        fails because of the company it kept; if the payload itself is the
        poison, the direct run raises the true error.
        """
        try:
            return self._coalescer.submit(
                key, payload, n_vectors, run_batch, deadline_s=deadline_s
            )
        except (DeadlineExceeded, ServiceOverloaded):
            raise
        except Exception:
            with self._lock:
                self._degraded_requests += 1
            return run_direct()

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, dict[str, int]]:
        """Return a nested snapshot of every session counter.

        Sections: ``compile_cache`` (hits/misses/evictions/entries/maxsize),
        ``coalescer`` (requests, batches, flush kinds, vector accounting),
        ``libraries`` (registry hits/misses/entries) and — when a store is
        configured — ``store`` (loads/publishes/record counts).
        ``requests`` under ``session`` counts every front-end call
        (totals/campaign/percentile query), coalesced or not;
        ``degraded_requests`` counts coalesced requests that fell back to
        direct serial evaluation after a batch failure.
        ``statistical_leakage`` tracks the pooled-population cache behind
        :meth:`percentile_leakage` (hits answer without circuit solves).
        """
        with self._lock:
            libraries = {
                "entries": len(self._libraries),
                "hits": self._library_hits,
                "misses": self._library_misses,
            }
            statistical = {
                "entries": len(self._populations),
                "hits": self._population_hits,
                "misses": self._population_misses,
            }
            requests = self._requests
            degraded = self._degraded_requests
        stats: dict[str, dict[str, int]] = {
            "session": {"requests": requests, "degraded_requests": degraded},
            "compile_cache": self.compile_cache.cache_info().as_dict(),
            "coalescer": self._coalescer.stats(),
            "libraries": libraries,
            "statistical_leakage": statistical,
        }
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats

    def _count_request(self) -> None:
        with self._lock:
            self._requests += 1


def stats_delta(
    before: Mapping[str, Mapping[str, int]],
    after: Mapping[str, Mapping[str, int]],
) -> dict[str, dict[str, int]]:
    """Return ``after - before`` per counter (monotonic counters only).

    Occupancy gauges (``entries``, ``maxsize``) are reported as their
    ``after`` value, not a difference — a delta of a gauge is meaningless.
    Sections or counters absent from ``before`` are treated as zero.
    """
    gauges = {"entries", "maxsize"}
    delta: dict[str, dict[str, int]] = {}
    for section, counters in after.items():
        base = before.get(section, {})
        delta[section] = {
            name: value if name in gauges else value - base.get(name, 0)
            for name, value in counters.items()
        }
    return delta


#: Lazily created process-default session (guarded by a lock, shared by the
#: thin adapters in core/optimize/experiments when no session is passed).
_DEFAULT_SESSION: EstimationSession | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> EstimationSession:
    """Return the process-default :class:`EstimationSession`.

    Its compile cache is the process-default
    :class:`~repro.engine.compile.CompileCache`, so estimation routed
    through the session and legacy direct
    :func:`~repro.engine.compile.compile_circuit` calls share warm entries
    (and :func:`~repro.engine.compile.clear_compile_cache` clears both).
    No on-disk store is attached — construct an explicit session for that.
    """
    global _DEFAULT_SESSION
    with _DEFAULT_SESSION_LOCK:
        if _DEFAULT_SESSION is None:
            _DEFAULT_SESSION = EstimationSession(
                compile_cache=default_compile_cache()
            )
        return _DEFAULT_SESSION
