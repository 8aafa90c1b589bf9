"""Fig. 12 benchmark: circuit-level leakage estimation with loading effect.

This regenerates all three panels of Fig. 12 over the paper's circuit suite
(s838, s1196, s1423, s5372, s9378, s13207 as synthetic ISCAS-like stand-ins
plus the exact alu88 and mult88 designs).  The default configuration keeps
the harness interactive:

* synthetic circuits are generated at ``SCALE`` of their published gate count,
* ``VECTORS`` random vectors feed the loading-impact statistics (the paper
  uses 100),
* the transistor-level reference validation runs on ``REFERENCE_VECTORS``
  vectors of the circuits below ``REFERENCE_MAX_GATES`` gates, through the
  batched reference path (the per-vector Gauss–Seidel oracle is
  :func:`repro.oracle.per_vector_campaign` over a
  :class:`repro.oracle.ScalarReference`).

EXPERIMENTS.md records the exact configuration behind every quoted number and
how to run the full-size campaign.
"""

from benchmarks.conftest import run_once
from repro.circuit.generators import paper_benchmark_suite
from repro.experiments.fig12 import run_fig12_circuit_estimation

SCALE = 0.12
VECTORS = 20
REFERENCE_VECTORS = 8
REFERENCE_MAX_GATES = 350


def test_fig12_circuit_estimation(benchmark, d25s, library_d25s):
    suite = paper_benchmark_suite(scale=SCALE)
    result = run_once(
        benchmark,
        run_fig12_circuit_estimation,
        suite,
        technology=d25s,
        library=library_d25s,
        vectors=VECTORS,
        reference_vectors=REFERENCE_VECTORS,
        reference_max_gates=REFERENCE_MAX_GATES,
        rng=0,
    )
    print()
    print(result.to_table())

    # Panel (a): wherever the reference ran, the estimator tracks it closely
    # (the paper reports close agreement between estimate and SPICE).
    validated = [e for e in result.entries if e.estimate_vs_reference_percent]
    assert validated, "at least one circuit must be validated against the reference"
    for entry in validated:
        assert abs(entry.estimate_vs_reference_percent["total"]) < 2.0

    # Panels (b)/(c): the loading effect raises the subthreshold component on
    # average, the maximum change exceeds the average, and the total moves
    # less than the subthreshold because components partially cancel.
    for entry in result.entries:
        average = entry.impact.average_percent
        maximum = entry.impact.maximum_percent
        assert average["subthreshold"] > 0
        assert maximum["subthreshold"] >= average["subthreshold"]
        assert average["total"] < average["subthreshold"]
