"""Adaptive-grid archiver: nondominated store with cell-occupancy crowding control.

Objective space is cut into d^M uniform cells between adaptive bounds. A
candidate that survives the dominance sweep lands in its cell; under capacity
pressure it displaces a member of the most crowded cell, but only if its own
cell is strictly less crowded. Only occupied cells are stored, so memory is
proportional to the member count rather than the cell count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import attrgetter, le

from ..core import Counters, DimensionMismatchError, ObjectiveVector, Solution
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
        if len(self.lower) != len(self.upper):
            raise ValueError("grid bounds must share a dimension")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("grid lower bound must be strictly below upper bound")
        if self.divisions < 1:
            raise ValueError(f"divisions must be >= 1, got {self.divisions}")

    def contains(self, v: ObjectiveVector) -> bool:
        """Raises DimensionMismatchError on a vector of another dimension."""
        values = v.values
        lower = self.lower.values
        m = len(lower)
        if len(values) != m:
            raise DimensionMismatchError(f"dimension mismatch: {len(values)} vs {m}")
        return all(map(le, lower, values)) and all(map(le, values, self.upper.values))


def cell_of(
    v: ObjectiveVector, spec: GridSpec, counters: Counters | None = None
) -> tuple[int, ...]:
    """Bin a vector into the coordinates of its grid cell: M floor divisions,
    cost independent of the archive size. Raises DimensionMismatchError or
    OutOfBoundsError, and charges a lookup only when it raises neither."""
    if not spec.contains(v):
        raise OutOfBoundsError(v, spec)
    if counters is not None:
        counters.cell_lookups += 1
    d = spec.divisions
    coords = []
    for x, lo, hi in zip(v.values, spec.lower.values, spec.upper.values):
        c = int((x - lo) / (hi - lo) * d)
        coords.append(c if c < d else d - 1)
    return tuple(coords)


class GridArchive(NondominatedStore):
    """Bounded nondominated store over an adaptive grid."""

    def __init__(self, capacity: int, spec: GridSpec, inflation: float = 0.1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0 <= inflation <= sys.float_info.max:
            raise ValueError(f"inflation must be finite and >= 0, got {inflation}")
        super().__init__()
        self.capacity = capacity
        self.spec = spec
        self.inflation = inflation
        self._cell_by_id: dict[int, tuple[int, ...]] = {}
        # each occupied cell's members, in the order they entered it
        self._occupancy: dict[tuple[int, ...], list[Solution]] = {}

    def cell_occupancy(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Snapshot of cell -> member ids (occupied cells only)."""
        return {
            cell: tuple(m.id for m in members)
            for cell, members in self._occupancy.items()
        }

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        beaten = self._sweep(candidate, counters)

        if beaten is None:
            outcome = InsertOutcome.of(False, ())
            return outcome, FeedbackSignal(False, len(self._members))

        departed = self._remove(beaten) if beaten else []
        for m in departed:
            self._vacate(m)

        try:
            cell = cell_of(candidate.objectives, self.spec, counters)
        except OutOfBoundsError:
            self.adapt_bounds(candidate.objectives, counters)
            cell = cell_of(candidate.objectives, self.spec, counters)

        if len(self._members) >= self.capacity:
            crowded_cell, crowd = self._most_occupied()
            # the candidate displaces a member of the most crowded cell only
            # from a strictly less crowded cell of its own; else it is rejected
            if len(self._occupancy.get(cell, ())) < crowd:
                victim = min(self._occupancy[crowded_cell], key=attrgetter("id"))
                self._remove([self._members.index(victim)])
                self._vacate(victim)
                departed.append(victim)
        kept = len(self._members) < self.capacity
        if kept:
            self._add(candidate, cell)

        outcome = InsertOutcome.of(kept, departed)
        return outcome, FeedbackSignal(kept, len(self._members))

    def adapt_bounds(
        self, v: ObjectiveVector, counters: Counters | None = None
    ) -> GridSpec:
        """Grow the bounds to the envelope of all members plus v, inflated by
        `inflation` of each range, then re-bin every member.

        No-op when v is already inside the bounds; GridSpec.contains refuses
        a vector of another dimension.
        """
        if self.spec.contains(v):
            return self.spec
        points = [m.objectives.values for m in self._members] + [v.values]
        lower = []
        upper = []
        for k in range(len(v)):
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
            self._occupancy.setdefault(cell, []).append(m)
        return self.spec

    def _add(self, member: Solution, cell: tuple[int, ...]) -> None:
        self._append(member)
        self._cell_by_id[member.id] = cell
        self._occupancy.setdefault(cell, []).append(member)

    def _vacate(self, member: Solution) -> None:
        """Take a member that has left the store out of its cell."""
        cell = self._cell_by_id.pop(member.id)
        members = self._occupancy[cell]
        members.remove(member)
        if not members:
            del self._occupancy[cell]

    def _most_occupied(self) -> tuple[tuple[int, ...], int]:
        """The most occupied cell, ties to the smallest coordinates, and its
        member count."""
        crowd = max(map(len, self._occupancy.values()))
        crowded = min(
            cell for cell, members in self._occupancy.items() if len(members) == crowd
        )
        return crowded, crowd
