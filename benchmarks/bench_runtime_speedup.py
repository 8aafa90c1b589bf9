"""Runtime benchmark: compiled LUT engine vs. transistor-level reference.

The paper reports a ~1000x speed-up of the Fig. 13 algorithm over SPICE.
This benchmark times the two production paths on full-scale s838 (446
gates, the smallest circuit of the paper's Fig. 12 suite): a warm pass of
the compiled campaign engine against the batched damped-Newton reference
campaign on the same vectors.  The reference is pure Python and NumPy, so
the absolute ratio differs from HSPICE-vs-C, but the shape — orders of
magnitude, growing with circuit size — is what this benchmark checks and
records.
"""

from benchmarks.conftest import run_once
from repro.circuit.generators import iscas_like
from repro.experiments.runtime import run_runtime_comparison

VECTORS = 2


def test_runtime_speedup(benchmark, d25s, library_d25s):
    circuit = iscas_like("s838")
    result = run_once(
        benchmark,
        run_runtime_comparison,
        circuit,
        technology=d25s,
        library=library_d25s,
        vectors=VECTORS,
        rng=0,
    )
    print()
    print(result.to_table())

    # The engine must be at least two orders of magnitude faster than the
    # transistor-level reference; the gap widens with circuit size.
    assert result.speedup > 100.0
