"""Post-solve analysis: leakage components per owner (logic gate).

Once the batched DC solver has produced a
:class:`~repro.spice.batched.BatchedOperatingPoint`, every transistor is
re-evaluated at the solved voltages and the component magnitudes the paper
reports are aggregated:

* ``subthreshold`` — channel current of transistors operating below threshold,
* ``gate`` — total gate direct-tunneling magnitude,
* ``btbt`` — total junction band-to-band-tunneling magnitude.

Aggregation happens per *owner* (the logic-gate tag recorded on each
transistor instance), which is what lets the circuit-level experiments compare
the fast estimator against the reference solve gate by gate.
:func:`batched_leakage_by_owner` sums pre-evaluated ``(T, B)`` component
grids into per-owner ``(B,)`` arrays with one scatter-add pass.  The scalar
per-transistor aggregation is the test oracle
:func:`repro.oracle.leakage_by_owner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.device.batched import ComponentCurrents


@dataclass(frozen=True)
class ComponentBreakdown:
    """Leakage split into the paper's three components (amperes)."""

    subthreshold: float = 0.0
    gate: float = 0.0
    btbt: float = 0.0

    @property
    def total(self) -> float:
        """Return the summed leakage current."""
        return self.subthreshold + self.gate + self.btbt

    def __add__(self, other: "ComponentBreakdown") -> "ComponentBreakdown":
        return ComponentBreakdown(
            subthreshold=self.subthreshold + other.subthreshold,
            gate=self.gate + other.gate,
            btbt=self.btbt + other.btbt,
        )

    def scaled(self, factor: float) -> "ComponentBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return ComponentBreakdown(
            subthreshold=self.subthreshold * factor,
            gate=self.gate * factor,
            btbt=self.btbt * factor,
        )

    def component(self, name: str) -> float:
        """Return a component by name (``subthreshold``/``gate``/``btbt``/``total``)."""
        if name == "total":
            return self.total
        if name in ("subthreshold", "gate", "btbt"):
            return getattr(self, name)
        raise KeyError(f"unknown leakage component {name!r}")

    def as_dict(self) -> dict[str, float]:
        """Return the breakdown (including total) as a plain dictionary."""
        return {
            "subthreshold": self.subthreshold,
            "gate": self.gate,
            "btbt": self.btbt,
            "total": self.total,
        }


@dataclass(frozen=True)
class BatchedComponentBreakdown:
    """Per-instance leakage components of one owner, as ``(B,)`` arrays."""

    subthreshold: np.ndarray
    gate: np.ndarray
    btbt: np.ndarray

    @property
    def total(self) -> np.ndarray:
        """Return the summed leakage per batch instance."""
        return self.subthreshold + self.gate + self.btbt

    def at(self, index: int) -> ComponentBreakdown:
        """Return instance ``index`` as a scalar :class:`ComponentBreakdown`."""
        return ComponentBreakdown(
            subthreshold=float(self.subthreshold[index]),
            gate=float(self.gate[index]),
            btbt=float(self.btbt[index]),
        )


def owner_slot_ids(owners: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Return (distinct owners in first-appearance order, per-slot owner ids).

    Transistors without an owner tag map to the empty-string owner, exactly
    like the scalar oracle :func:`repro.oracle.leakage_by_owner` — nothing
    is silently dropped.
    """
    order: list[str] = []
    index: dict[str, int] = {}
    ids = np.empty(len(owners), dtype=np.intp)
    for slot, owner in enumerate(owners):
        key = index.get(owner)
        if key is None:
            key = len(order)
            index[owner] = key
            order.append(owner)
        ids[slot] = key
    return order, ids


def batched_leakage_by_owner(
    owners: Sequence[str],
    components: "ComponentCurrents",
    slot_ids: np.ndarray | None = None,
    owner_order: Sequence[str] | None = None,
) -> dict[str, BatchedComponentBreakdown]:
    """Aggregate ``(T, B)`` component grids per owner in one scatter-add pass.

    Parameters
    ----------
    owners:
        Owner tag of each transistor slot (length ``T``).
    components:
        Component currents of the whole grid, shape ``(T, B)`` per array.
    slot_ids / owner_order:
        Optional pre-computed :func:`owner_slot_ids` result; callers that
        aggregate repeatedly over one topology (the batched solver, chunked
        reference campaigns) hoist the owner indexing out of the hot loop.

    Returns per-owner :class:`BatchedComponentBreakdown` arrays of shape
    ``(B,)``; summation runs in transistor-slot order per owner, matching the
    scalar accumulation order bit for bit.
    """
    if slot_ids is None or owner_order is None:
        owner_order, slot_ids = owner_slot_ids(owners)
    batch = components.i_subthreshold.shape[1]
    sums = np.zeros((3, len(owner_order), batch))
    np.add.at(sums[0], slot_ids, components.i_subthreshold)
    np.add.at(sums[1], slot_ids, components.i_gate)
    np.add.at(sums[2], slot_ids, components.i_btbt)
    return {
        owner: BatchedComponentBreakdown(
            subthreshold=sums[0, key],
            gate=sums[1, key],
            btbt=sums[2, key],
        )
        for key, owner in enumerate(owner_order)
    }
