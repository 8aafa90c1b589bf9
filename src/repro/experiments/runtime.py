"""Runtime comparison: compiled LUT engine vs. transistor-level reference.

Section 6 of the paper reports that the proposed algorithm "closely matches
results obtained from spice simulations ... while being about 1000X faster in
run time".  This experiment times the two production paths on the same
circuit and input vectors:

* the batched transistor-level reference campaign
  (:func:`repro.core.reference.run_reference_campaign`, the "SPICE"
  stand-in);
* a warm pass of the compiled campaign engine
  (:func:`repro.engine.run_compiled`), which answers the vector set with
  the paper's Fig. 13 algorithm on top of the characterized LUTs.

The ratio depends on circuit size (the engine is linear in gates, the
reference scales with the flattened Newton systems), so the result records
both runtimes plus the circuit statistics.  Ratios are guarded: a timer
reading of zero yields NaN rather than a fabricated infinite speedup.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.circuit.logic import random_vectors
from repro.circuit.netlist import Circuit
from repro.core.reference import run_reference_campaign
from repro.device.params import TechnologyParams
from repro.device.presets import make_technology
from repro.engine import run_compiled
from repro.gates.characterize import GateLibrary
from repro.utils.rng import RngLike
from repro.utils.tables import format_table

#: Timed warm engine passes; the fastest one is recorded.
ENGINE_REPEATS = 3


def _format_backends(methods: object) -> str:
    """Render a ``solve_stats["methods"]`` count dict as ``name:count`` pairs.

    The per-backend counts say what the solver *actually ran*: the dense
    or sparse Newton backend, and ``gauss-seidel`` for Newton columns that
    fell back.
    """
    if not isinstance(methods, dict) or not methods:
        return ""
    return ", ".join(f"{name}:{methods[name]}" for name in sorted(methods))


@dataclass
class RuntimeComparison:
    """Wall-clock comparison of the engine and the reference."""

    circuit_name: str
    gate_count: int
    transistor_count: int
    vector_count: int
    reference_seconds: float
    engine_seconds: float
    compile_seconds: float = float("nan")
    characterization_seconds: float = float("nan")
    solver_backends: str = ""
    reference_solver_method: str = ""
    #: Compile-cache traffic this comparison generated on its session —
    #: a shared warm session shows hits where a cold one shows a miss.
    compile_cache_hits: int = 0
    compile_cache_misses: int = 0

    @property
    def speedup(self) -> float:
        """Return reference time over engine time (NaN if degenerate)."""
        if self.engine_seconds <= 0.0 or math.isnan(self.engine_seconds):
            return float("nan")
        return self.reference_seconds / self.engine_seconds

    def to_table(self) -> str:
        """Render the comparison."""
        rows = [
            ["circuit", self.circuit_name],
            ["gates", self.gate_count],
            ["transistors", self.transistor_count],
            ["vectors", self.vector_count],
            ["reference time [s]", self.reference_seconds],
            ["engine time [s]", self.engine_seconds],
            ["engine compile time [s]", self.compile_seconds],
            ["library warm-up time [s]", self.characterization_seconds],
            ["cell solver backends used", self.solver_backends or "n/a"],
            ["reference solver method", self.reference_solver_method or "n/a"],
            ["compile-cache hits", self.compile_cache_hits],
            ["compile-cache misses", self.compile_cache_misses],
            ["speed-up reference/engine [x]", self.speedup],
        ]
        return format_table(["quantity", "value"], rows, title="Runtime comparison")


def run_runtime_comparison(
    circuit: Circuit,
    technology: TechnologyParams | None = None,
    library: GateLibrary | None = None,
    vectors: int = 3,
    rng: RngLike = 0,
    session=None,
) -> RuntimeComparison:
    """Time the engine and the reference on the same random vectors.

    The library is characterized for the circuit's gate types outside the
    timed region, because characterization is a one-time cost shared across
    every circuit and vector, exactly like the SPICE-model extraction it
    replaces; its wall time is recorded as ``characterization_seconds``.
    The circuit compile is the analogous one-time cost of the engine,
    amortized across campaigns by the session compile cache: it is timed
    separately, then one untimed pass warms the engine and the fastest of
    :data:`ENGINE_REPEATS` timed passes is the engine time.

    ``session`` (default: the process-default
    :class:`repro.service.EstimationSession`) owns that cache: a sweep that
    passes one shared session pays the compile once per circuit and the
    result records the cache traffic (``compile_cache_hits``/``misses``)
    this comparison generated, so a warm "engine compile time" of ~0 s is
    attributable rather than mysterious.  When ``library`` is omitted the
    session's fingerprint-keyed registry supplies it, so sweeps also share
    one characterized library per technology.
    """
    from repro.service import default_session

    sess = session or default_session()
    technology = technology or make_technology("d25-s")
    library = library or sess.library(technology)
    vector_list = list(random_vectors(circuit, vectors, rng))

    start = time.perf_counter()
    library.precharacterize(
        sorted(
            {gate.gate_type for gate in circuit.gates.values()},
            key=lambda gate_type: gate_type.value,
        )
    )
    characterization_seconds = time.perf_counter() - start

    cache_before = sess.compile_cache.cache_info()
    start = time.perf_counter()
    compiled = sess.compiled(circuit, library)
    compile_seconds = time.perf_counter() - start
    cache_after = sess.compile_cache.cache_info()

    run_compiled(compiled, vector_list)
    engine_seconds = float("inf")
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        run_compiled(compiled, vector_list)
        engine_seconds = min(engine_seconds, time.perf_counter() - start)

    start = time.perf_counter()
    reference = run_reference_campaign(circuit, technology, vectors=vector_list)
    reference_seconds = time.perf_counter() - start
    metadata = reference.reports[0].metadata

    return RuntimeComparison(
        circuit_name=circuit.name,
        gate_count=circuit.gate_count,
        transistor_count=int(metadata["transistors"]),
        vector_count=len(vector_list),
        reference_seconds=reference_seconds,
        engine_seconds=engine_seconds,
        compile_seconds=compile_seconds,
        characterization_seconds=characterization_seconds,
        solver_backends=_format_backends(
            library.characterizer.solve_stats["methods"]
        ),
        reference_solver_method=str(metadata["solver_method"]),
        compile_cache_hits=cache_after.hits - cache_before.hits,
        compile_cache_misses=cache_after.misses - cache_before.misses,
    )
