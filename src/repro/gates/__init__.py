"""Gate library: logic specs, transistor templates, and leakage characterization.

Public entry points:

* :class:`GateType` / :func:`gate_spec` — the logic-level view of the library;
* :func:`build_gate_transistors` — expand a gate instance into transistors;
* :class:`GateLibrary` — characterized leakage lookup (nominal values,
  per-pin loading responses, per-pin gate-tunneling injection currents) used
  by the circuit-level estimator;
* :func:`save_library` / :func:`load_library` — JSON persistence of the
  characterization cache, fingerprinted with the full technology +
  characterization settings so stale records are refused on load;
* :class:`LibraryStore` — a fingerprint-keyed on-disk directory of those
  cache files (atomic write+rename publish, convergent-union merge, safe
  under concurrent multi-process writers) so a fleet of workers shares one
  warm characterization cache;
* :func:`set_extrapolation_policy` — process-wide policy for response-curve
  lookups outside the characterized injection range.
"""

from repro.gates.library import (
    GateSpec,
    GateType,
    all_gate_types,
    gate_spec,
)
from repro.gates.templates import build_gate_transistors, transistor_count
from repro.gates.lut import (
    GateVectorCharacterization,
    ResponseCurve,
    ResponseCurveRangeWarning,
    set_extrapolation_policy,
)
from repro.gates.characterize import (
    CharacterizationOptions,
    GateCharacterizer,
    GateLibrary,
)
from repro.gates.cache import (
    LibraryStore,
    characterization_fingerprint,
    load_library,
    save_library,
)

__all__ = [
    "GateSpec",
    "GateType",
    "all_gate_types",
    "gate_spec",
    "build_gate_transistors",
    "transistor_count",
    "GateVectorCharacterization",
    "ResponseCurve",
    "ResponseCurveRangeWarning",
    "set_extrapolation_policy",
    "CharacterizationOptions",
    "GateCharacterizer",
    "GateLibrary",
    "LibraryStore",
    "characterization_fingerprint",
    "load_library",
    "save_library",
]
