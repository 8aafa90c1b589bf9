"""JSON persistence of characterized gate-leakage records.

Characterizing a full library takes a few seconds of DC solves; persisting
the records lets repeated benchmark runs (and users embedding the estimator
into larger flows) skip re-characterization.  The format is plain JSON so it
is inspectable and diff-able; no attempt is made to be clever about floats.

Cache validity: a record is only reusable when it was characterized under
the *same settings* — the same technology (every device parameter, not just
the name), the same injection grid, driver fanout and solver tolerances.
Each cache file therefore carries a fingerprint of the full
:class:`~repro.device.params.TechnologyParams` and
:class:`~repro.gates.characterize.CharacterizationOptions` (plus the sparse
solver's column ordering), and a strict load refuses a mismatch instead of
silently returning records characterized under different settings.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.device.params import TechnologyParams
from repro.gates.characterize import CharacterizationOptions, GateLibrary
from repro.gates.lut import GateVectorCharacterization, ResponseCurve
from repro.spice import sparse
from repro.spice.analysis import ComponentBreakdown

#: Format version written into every cache file.  Version 2 added the
#: settings fingerprint; version-1 files predate it and are refused.
CACHE_FORMAT_VERSION = 2


def _canonical(value: object) -> object:
    """Convert nested dataclasses/enums/tuples to canonical JSON-able types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float) and value != value:  # pragma: no cover - NaN guard
        return "nan"
    return value


def settings_fingerprint(payload: Mapping[str, Any]) -> str:
    """Return the SHA-256 hex digest of ``payload`` as sorted-key JSON.

    The payload is not walked by :func:`_canonical`: keys are sorted at
    every dict level, JSON-native values (strings, numbers, booleans,
    ``None``, lists, tuples) are written as they are, and every value JSON
    cannot encode — a dataclass such as a technology or a variation spec,
    an array — enters as its ``str()``, which for a dataclass is its repr.
    Two payloads therefore hash equal when their JSON values and those
    reprs agree.
    """
    canonical = json.dumps(dict(payload), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def characterization_settings(
    technology: TechnologyParams,
    options: CharacterizationOptions,
    temperature_k: float,
) -> dict[str, object]:
    """Return the canonical settings dictionary a cache is fingerprinted on.

    Contains every input that can change a characterized record: the full
    technology parameter tree (both device flavours), the characterization
    options (injection grid, solver tolerances), the
    characterization temperature and the sparse backend's SuperLU column
    ordering.  The options are canonicalized by walking their dataclass
    fields recursively, so the nested
    :class:`~repro.spice.solver.SolverOptions` — including ``method`` and
    the Newton knobs — always enters the fingerprint: caches characterized
    by different solver methods are never conflated.  The ordering is a
    module constant rather than an option, but it changes the last bits of
    every sparse solve just as the dense/sparse choice does.
    """
    canonical_options = _canonical(options)
    # The non-convergence *reporting* policy (warn vs raise) can never
    # change a record that was produced — raising only aborts — so it must
    # not fork otherwise-identical caches.
    canonical_options.pop("on_nonconverged", None)
    return {
        "technology": _canonical(technology),
        "options": canonical_options,
        "temperature_k": temperature_k,
        "sparse_ordering": sparse._PERMC_SPEC,
    }


def characterization_fingerprint(
    technology: TechnologyParams,
    options: CharacterizationOptions,
    temperature_k: float,
) -> str:
    """Return a stable hex digest of the characterization settings."""
    payload = json.dumps(
        characterization_settings(technology, options, temperature_k),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _breakdown_to_dict(breakdown: ComponentBreakdown) -> dict[str, float]:
    return {
        "subthreshold": breakdown.subthreshold,
        "gate": breakdown.gate,
        "btbt": breakdown.btbt,
    }


def _breakdown_from_dict(data: dict[str, float]) -> ComponentBreakdown:
    return ComponentBreakdown(
        subthreshold=float(data["subthreshold"]),
        gate=float(data["gate"]),
        btbt=float(data["btbt"]),
    )


def _curve_to_dict(curve: ResponseCurve) -> dict[str, object]:
    return {
        "pin": curve.pin,
        "injections": [float(x) for x in curve.injections],
        "subthreshold": [float(x) for x in curve.subthreshold],
        "gate": [float(x) for x in curve.gate],
        "btbt": [float(x) for x in curve.btbt],
    }


def _curve_from_dict(data: dict[str, object]) -> ResponseCurve:
    return ResponseCurve(
        pin=str(data["pin"]),
        injections=np.asarray(data["injections"], dtype=float),
        subthreshold=np.asarray(data["subthreshold"], dtype=float),
        gate=np.asarray(data["gate"], dtype=float),
        btbt=np.asarray(data["btbt"], dtype=float),
    )


def record_to_dict(record: GateVectorCharacterization) -> dict[str, object]:
    """Serialize one characterization record to plain JSON types."""
    return {
        "gate_type": record.gate_type_name,
        "vector": list(record.vector),
        "nominal": _breakdown_to_dict(record.nominal),
        "output_voltage": record.output_voltage,
        "input_voltages": dict(record.input_voltages),
        "pin_injection": dict(record.pin_injection),
        "responses": {pin: _curve_to_dict(c) for pin, c in record.responses.items()},
    }


def record_from_dict(data: dict[str, object]) -> GateVectorCharacterization:
    """Deserialize one characterization record."""
    return GateVectorCharacterization(
        gate_type_name=str(data["gate_type"]),
        vector=tuple(int(b) for b in data["vector"]),
        nominal=_breakdown_from_dict(data["nominal"]),
        output_voltage=float(data["output_voltage"]),
        input_voltages={k: float(v) for k, v in dict(data["input_voltages"]).items()},
        pin_injection={k: float(v) for k, v in dict(data["pin_injection"]).items()},
        responses={
            pin: _curve_from_dict(curve)
            for pin, curve in dict(data["responses"]).items()
        },
    )


def _library_settings(library: GateLibrary) -> tuple[dict[str, object], str]:
    options = library.characterizer.options
    settings = characterization_settings(
        library.technology, options, library.temperature_k
    )
    fingerprint = characterization_fingerprint(
        library.technology, options, library.temperature_k
    )
    return settings, fingerprint


def save_library(library: GateLibrary, path: str | Path) -> int:
    """Write every cached record of ``library`` to ``path`` (JSON).

    Alongside the records the file stores the full characterization
    settings (technology parameters, options, temperature) and their
    fingerprint, so a strict load can verify provenance.  Returns the number
    of records written.
    """
    records = library.cached_records()
    settings, fingerprint = _library_settings(library)
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "technology": library.technology.name,
        "vdd": library.vdd,
        "temperature_k": library.temperature_k,
        "fingerprint": fingerprint,
        "settings": settings,
        "records": [record_to_dict(record) for record in records],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return len(records)


def _describe_mismatch(
    stored: dict[str, object], current: dict[str, object]
) -> list[str]:
    """Return the top-level settings sections that differ."""
    mismatches = []
    for key in ("technology", "options", "temperature_k", "sparse_ordering"):
        if stored.get(key) != current.get(key):
            mismatches.append(key)
    return mismatches or ["settings"]


def load_library(library: GateLibrary, path: str | Path, strict: bool = True) -> int:
    """Load records from ``path`` into ``library``'s cache.

    Parameters
    ----------
    strict:
        When True (default) the cache fingerprint must match the library's
        full characterization settings — every technology parameter, the
        injection grid and the solver tolerances; any
        mismatch raises ``ValueError`` naming the differing section, so a
        stale cache can never silently supply records characterized under
        different settings.  When False the records are loaded regardless,
        which is only appropriate for exploratory work.

    Returns the number of records loaded.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != CACHE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported cache format version {payload.get('format_version')!r}"
        )
    if strict:
        current_settings, current_fingerprint = _library_settings(library)
        if payload.get("fingerprint") != current_fingerprint:
            mismatches = _describe_mismatch(
                payload.get("settings") or {}, current_settings
            )
            raise ValueError(
                "characterization cache does not match the library "
                f"({', '.join(mismatches)})"
            )
    records = [record_from_dict(item) for item in payload["records"]]
    library.load_records(records)
    return len(records)


class LibraryStore:
    """Fingerprint-keyed on-disk store of characterized libraries.

    One directory holds one cache file per (technology, characterization
    settings) pair, named ``{technology}-g{generation}-{fingerprint16}.json``
    — the fingerprint is the SHA-256 settings digest of
    :func:`characterization_fingerprint`, so records characterized under
    different settings can never be conflated.  The store is safe under
    concurrent multi-process writers: every publish writes to a
    process-unique temporary file and renames it into place (atomic on
    POSIX), so readers only ever see complete, fingerprinted files, and a
    publish merges whatever is on disk first (records are deterministic for
    a fingerprint, so the union monotonically converges to the full record
    set instead of ping-ponging partial per-worker views).

    ``generation`` is a filename salt for cache consumers whose validity
    depends on more than the settings fingerprint — the fingerprint covers
    technology/options/temperature but *not* the model code itself, so a
    persistent store should bump the generation (or wipe the directory)
    when solver or device numerics change.

    Loads are strict-fingerprint with graceful fallback: a missing file, a
    mismatched fingerprint or a torn/corrupt payload loads zero records
    (counted in :attr:`load_failures`) and characterization proceeds as if
    no cache existed — a stale store can never poison a run.
    """

    def __init__(self, directory: str | Path, generation: int = 0) -> None:
        self.directory = Path(directory)
        self.generation = int(generation)
        #: Counters surfaced through ``EstimationSession.stats()``.
        self.loads = 0
        self.load_failures = 0
        self.records_loaded = 0
        self.publishes = 0
        self.records_published = 0

    def path_for(self, library: GateLibrary) -> Path:
        """Return the cache path of ``library``'s settings fingerprint."""
        _, fingerprint = _library_settings(library)
        return self.directory / (
            f"{library.technology.name}-g{self.generation}-{fingerprint[:16]}.json"
        )

    def load(self, library: GateLibrary) -> int:
        """Warm ``library`` from the store; return the record count loaded.

        Only a complete file whose fingerprint matches the library's full
        characterization settings contributes records; anything else
        (missing, mismatched, torn) falls back to zero records loaded.
        """
        count = self._load_silently(library)
        self.loads += 1
        self.records_loaded += count
        return count

    def publish(self, library: GateLibrary) -> int:
        """Publish ``library``'s cached records; return the count written.

        Convergent-union publish: records already on disk under the same
        fingerprint are merged in first (another worker may have published
        records this one never touched), and the file is only rewritten
        when the union actually grew — so the store converges monotonically
        to the full record set under any number of concurrent writers.
        Returns 0 when nothing new was written.
        """
        on_disk = self._load_silently(library)
        records = library.cached_records()
        if len(records) <= on_disk:
            return 0
        path = self.path_for(library)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            save_library(library, tmp)
            tmp.replace(path)
        except OSError:
            # Disk full, permissions, ... — the store is an optimization,
            # never a correctness dependency; leave no partial file behind.
            tmp.unlink(missing_ok=True)
            return 0
        self.publishes += 1
        self.records_published += len(records)
        return len(records)

    def stats(self) -> dict[str, int]:
        """Return the load/publish counters as a plain dict."""
        return {
            "loads": self.loads,
            "load_failures": self.load_failures,
            "records_loaded": self.records_loaded,
            "publishes": self.publishes,
            "records_published": self.records_published,
        }

    def _load_silently(self, library: GateLibrary) -> int:
        """Strict load with graceful fallback; failures count, never raise."""
        path = self.path_for(library)
        if not path.exists():
            return 0
        try:
            return load_library(library, path, strict=True)
        except (ValueError, KeyError, OSError):
            self.load_failures += 1
            return 0
