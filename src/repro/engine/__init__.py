"""Batched campaign engine: compile once, answer whole workloads as lookups.

The paper's headline result is the ~1000x speed advantage of the Fig. 13
LUT algorithm over transistor-level solving.  This subsystem carries that
idea one level up, to *campaign* workloads (many vectors, many samples):

* :mod:`repro.engine.compile` — flattens a circuit + characterized library
  into dense NumPy arrays (per-type LUT grids, levelized gate groups, flat
  pin wiring), cached per (circuit structure, library);
* :mod:`repro.engine.campaign` — evaluates an entire vector set in a few
  array passes: bit-matrix logic propagation, one-shot per-net loading
  accumulation and batched LUT interpolation;
* :mod:`repro.engine.parallel` — fans Monte-Carlo variation samples across
  a process pool (contiguous slices of one pre-drawn parameter block),
  bitwise-reproducible against the serial driver.

The scalar :class:`~repro.core.estimator.LoadingAwareEstimator` stays the
reference oracle; regression tests pin the engine against it component by
component.
"""

from repro.engine.campaign import (
    BatchedCampaignRun,
    LazyReports,
    run_compiled,
    run_totals,
)
from repro.engine.compile import (
    CompileCache,
    CompileCacheInfo,
    CompiledCircuit,
    GateTypeTable,
    clear_compile_cache,
    compile_circuit,
    default_compile_cache,
)
from repro.engine.parallel import ParallelMonteCarlo

__all__ = [
    "BatchedCampaignRun",
    "CompileCache",
    "CompileCacheInfo",
    "CompiledCircuit",
    "GateTypeTable",
    "LazyReports",
    "ParallelMonteCarlo",
    "clear_compile_cache",
    "compile_circuit",
    "default_compile_cache",
    "run_compiled",
    "run_totals",
]
