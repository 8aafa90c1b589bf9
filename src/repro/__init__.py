"""repro — loading-effect-aware leakage modeling for nano-scale bulk CMOS.

This library reproduces "Modeling and Analysis of Loading Effect in Leakage
of Nano-Scaled Bulk-CMOS Logic Circuits" (Mukhopadhyay, Bhunia, Roy — DATE
2005).  It provides:

* compact device models of subthreshold, gate-tunneling and junction BTBT
  leakage (:mod:`repro.device`);
* a transistor-level DC operating-point solver that plays the role of SPICE
  (:mod:`repro.spice`);
* a standard-cell-style gate library with loading characterization
  (:mod:`repro.gates`);
* a gate-level circuit substrate with logic simulation, ISCAS ``.bench`` I/O
  and benchmark-circuit generators (:mod:`repro.circuit`);
* the paper's contribution: loading-aware circuit leakage estimation
  (:mod:`repro.core`);
* a batched campaign engine that compiles a circuit + library into flat LUT
  arrays and answers whole vector sets at once (:mod:`repro.engine`);
* process-variation Monte-Carlo analysis (:mod:`repro.variation`);
* per-figure experiment drivers (:mod:`repro.experiments`);
* a compile-once / query-many service layer — long-lived estimation
  sessions owning the compile cache, a disk-backed library store and a
  coalescing request front-end (:mod:`repro.service`).

Quickstart
----------
>>> from repro import make_technology, GateLibrary
>>> from repro.circuit.generators import inverter_chain
>>> from repro.core import LoadingAwareEstimator
>>> tech = make_technology("bulk-50nm")
>>> library = GateLibrary(tech)
>>> circuit = inverter_chain(8)
>>> estimator = LoadingAwareEstimator(library)
>>> report = estimator.estimate(circuit, {"in": 0})
>>> report.total > 0
True
"""

from repro.device import (
    DeviceParams,
    DeviceVariant,
    Polarity,
    TechnologyParams,
    make_device,
    make_technology,
)

__version__ = "1.0.0"

__all__ = [
    "DeviceParams",
    "DeviceVariant",
    "Polarity",
    "TechnologyParams",
    "make_device",
    "make_technology",
    "EstimationSession",
    "GateLibrary",
    "LoadingAwareEstimator",
    "compile_circuit",
    "default_session",
    "lint_circuit",
    "preflight_circuit",
    "__version__",
]


def __getattr__(name: str):
    """Lazily expose the higher-level entry points.

    Importing :mod:`repro` should stay cheap; the gate library and estimator
    pull in the characterization machinery only when actually requested.
    """
    if name == "EstimationSession":
        from repro.service import EstimationSession

        return EstimationSession
    if name == "default_session":
        from repro.service import default_session

        return default_session
    if name == "GateLibrary":
        from repro.gates import GateLibrary

        return GateLibrary
    if name == "LoadingAwareEstimator":
        from repro.core import LoadingAwareEstimator

        return LoadingAwareEstimator
    if name == "compile_circuit":
        from repro.engine import compile_circuit

        return compile_circuit
    if name == "lint_circuit":
        from repro.analysis import lint_circuit

        return lint_circuit
    if name == "preflight_circuit":
        from repro.analysis import preflight_circuit

        return preflight_circuit
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
