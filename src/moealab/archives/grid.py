"""Adaptive-grid archiver: nondominated store with cell-occupancy crowding control.

Objective space is cut into d^M uniform cells between adaptive bounds. A
candidate that survives the dominance sweep lands in its cell; under capacity
pressure it displaces a member of the most crowded cell, but only if its own
cell is strictly less crowded. Only occupied cells are stored, so memory is
proportional to the member count rather than the cell count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Counters, ObjectiveVector, Solution
from .base import FeedbackSignal, InsertOutcome, NondominatedStore


class OutOfBoundsError(ValueError):
    """A vector fell outside the current grid bounds.

    Not a failure: insertion reacts by adapting the bounds and re-binning.
    """

    def __init__(self, vector: ObjectiveVector, spec: "GridSpec"):
        self.vector = vector
        self.spec = spec
        super().__init__(f"{vector} outside grid bounds [{spec.lower}, {spec.upper}]")


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of an axis-aligned box in objective space."""

    lower: ObjectiveVector
    upper: ObjectiveVector
    divisions: int

    def __post_init__(self):
        if self.lower.dim != self.upper.dim:
            raise ValueError("grid bounds must share a dimension")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("grid lower bound must be strictly below upper bound")
        if self.divisions < 1:
            raise ValueError(f"divisions must be >= 1, got {self.divisions}")

    def contains(self, v: ObjectiveVector) -> bool:
        return all(lo <= x <= hi for x, lo, hi in zip(v, self.lower, self.upper))


@dataclass(frozen=True)
class CellIndex:
    coords: tuple[int, ...]


def cell_of(
    v: ObjectiveVector, spec: GridSpec, counters: Counters | None = None
) -> CellIndex:
    """Bin a vector into its grid cell: M floor divisions, cost independent of
    the archive size. Raises OutOfBoundsError outside the bounds."""
    if counters is not None:
        counters.cell_lookups += 1
    if not spec.contains(v):
        raise OutOfBoundsError(v, spec)
    d = spec.divisions
    coords = []
    for x, lo, hi in zip(v, spec.lower, spec.upper):
        c = int((x - lo) / (hi - lo) * d)
        coords.append(min(c, d - 1))
    return CellIndex(tuple(coords))


class GridArchive(NondominatedStore):
    """Bounded nondominated store over an adaptive grid."""

    def __init__(self, capacity: int, spec: GridSpec, inflation: float = 0.1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if inflation < 0:
            raise ValueError(f"inflation must be >= 0, got {inflation}")
        super().__init__()
        self.capacity = capacity
        self.spec = spec
        self.inflation = inflation
        self._cell_by_id: dict[int, CellIndex] = {}
        self._occupancy: dict[CellIndex, list[int]] = {}

    def cell_occupancy(self) -> dict[CellIndex, tuple[int, ...]]:
        """Snapshot of cell -> member ids (occupied cells only)."""
        return {cell: tuple(ids) for cell, ids in self._occupancy.items()}

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        start = counters.dominance_comparisons
        beaten = self._sweep(candidate, counters)

        if beaten is None:
            used = counters.dominance_comparisons - start
            outcome = InsertOutcome.of(False, (), used)
            hint = self._occupancy_near(candidate.objectives)
            return outcome, FeedbackSignal(False, hint, len(self._members))

        departed = self._retain(~beaten)
        for m in departed:
            self._vacate(m)

        if not self.spec.contains(candidate.objectives):
            self.adapt_bounds(candidate.objectives, counters)
        cell = cell_of(candidate.objectives, self.spec, counters)

        if len(self._members) >= self.capacity:
            crowded_cell, crowd = self._most_occupied()
            # the candidate displaces a member of the most crowded cell only
            # from a strictly less crowded cell of its own; else it is rejected
            if len(self._occupancy.get(cell, ())) < crowd:
                victim_id = min(self._occupancy[crowded_cell])
                (victim,) = self._retain(
                    np.array([m.id != victim_id for m in self._members])
                )
                self._vacate(victim)
                departed.append(victim)
        kept = len(self._members) < self.capacity
        if kept:
            self._add(candidate, cell)

        used = counters.dominance_comparisons - start
        outcome = InsertOutcome.of(kept, departed, used)
        hint = float(len(self._occupancy.get(cell, ())))
        return outcome, FeedbackSignal(kept, hint, len(self._members))

    def adapt_bounds(
        self, v: ObjectiveVector, counters: Counters | None = None
    ) -> GridSpec:
        """Grow the bounds to the envelope of all members plus v, inflated by
        `inflation` of each range, then re-bin every member.

        No-op when v is already inside the bounds.
        """
        if self.spec.contains(v):
            return self.spec
        points = [m.objectives.values for m in self._members] + [v.values]
        lower = []
        upper = []
        for k in range(v.dim):
            lo = min(p[k] for p in points)
            hi = max(p[k] for p in points)
            span = hi - lo
            # zero span would violate lower < upper; pad with a tiny margin
            pad = self.inflation * span if span > 0 else 1e-6 * max(1.0, abs(lo))
            lower.append(lo - pad)
            upper.append(hi + pad)
        self.spec = GridSpec(
            ObjectiveVector(lower), ObjectiveVector(upper), self.spec.divisions
        )
        self._occupancy = {}
        self._cell_by_id = {}
        for m in self._members:
            cell = cell_of(m.objectives, self.spec, counters)
            self._cell_by_id[m.id] = cell
            self._occupancy.setdefault(cell, []).append(m.id)
        return self.spec

    def _add(self, member: Solution, cell: CellIndex) -> None:
        self._append(member)
        self._cell_by_id[member.id] = cell
        self._occupancy.setdefault(cell, []).append(member.id)

    def _vacate(self, member: Solution) -> None:
        """Take a member that has left the store out of its cell."""
        cell = self._cell_by_id.pop(member.id)
        ids = self._occupancy[cell]
        ids.remove(member.id)
        if not ids:
            del self._occupancy[cell]

    def _most_occupied(self) -> tuple[CellIndex, int]:
        best_cell = None
        best = -1
        for cell in sorted(self._occupancy, key=lambda c: c.coords):
            n = len(self._occupancy[cell])
            if n > best:
                best_cell, best = cell, n
        return best_cell, best

    def _occupancy_near(self, v: ObjectiveVector) -> float:
        if not self.spec.contains(v):
            return 0.0
        cell = cell_of(v, self.spec)
        return float(len(self._occupancy.get(cell, ())))
