"""Experiment drivers reproducing every figure of the paper's evaluation.

Each module exposes one ``run_*`` function returning a structured result with
a ``to_table()`` renderer, so the same code backs the benchmark harness
(``benchmarks/``), the examples and ad-hoc exploration:

================  ==========================================================
Module            Paper artefact
================  ==========================================================
``fig04``         Fig. 4(a-c): leakage components vs. halo doping, oxide
                  thickness and temperature
``fig05``         Fig. 5: inverter input/output loading effect per component
``fig06``         Fig. 6: LD_ALL surface vs. input and output loading
``fig07``         Fig. 7: NAND2 loading effect per input vector
``fig08``         Fig. 8: loading effect across D25-S / D25-G / D25-JN
``fig09``         Fig. 9: loading effect vs. temperature
``fig10``         Fig. 10: leakage distributions with/without loading under
                  process variation
``fig11``         Fig. 11: loading-induced shift of mean/std vs. sigma-Vt
``fig12``         Fig. 12(a-c): circuit-level estimation vs. reference and
                  loading-induced variation statistics
``runtime``       Fig. 13 / Sec. 6 runtime claim: compiled engine vs.
                  batched reference speed-up
================  ==========================================================

The Sec. 6 input-vector-control comparison (searched minimum-leakage vectors
against best-of-random-N at an equal evaluation budget) is
``benchmarks/bench_vector_search.py``, over :mod:`repro.optimize`.
"""

from repro.experiments.fig04 import run_fig4_device_trends
from repro.experiments.fig05 import run_fig5_inverter_loading
from repro.experiments.fig06 import run_fig6_ldall_surface
from repro.experiments.fig07 import run_fig7_nand_vectors
from repro.experiments.fig08 import run_fig8_device_variants
from repro.experiments.fig09 import run_fig9_temperature
from repro.experiments.fig10 import run_fig10_variation_histograms
from repro.experiments.fig11 import run_fig11_variation_statistics
from repro.experiments.fig12 import run_fig12_circuit_estimation
from repro.experiments.runtime import run_runtime_comparison

__all__ = [
    "run_fig4_device_trends",
    "run_fig5_inverter_loading",
    "run_fig6_ldall_surface",
    "run_fig7_nand_vectors",
    "run_fig8_device_variants",
    "run_fig9_temperature",
    "run_fig10_variation_histograms",
    "run_fig11_variation_statistics",
    "run_fig12_circuit_estimation",
    "run_runtime_comparison",
]
