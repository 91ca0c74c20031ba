"""Objective-space primitives: dominance comparison, nondominated filtering,
and the instrumentation counters shared by every archiver.

All objectives are minimized. Problems that maximize an objective negate it
at the problem layer, so comparison logic never branches on direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np


class DimensionMismatchError(ValueError):
    """Vectors of unequal dimension were compared."""


class ObjectiveVector:
    """Immutable point in objective space (dimension >= 2, all entries finite)."""

    __slots__ = ("values",)

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        vals = tuple(float(v) for v in values)
        if len(vals) < 2:
            raise ValueError(f"need at least 2 objectives, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"objective values must be finite: {vals}")
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ObjectiveVector is immutable")

    @property
    def dim(self) -> int:
        return len(self.values)

    def distance_to(self, other: "ObjectiveVector") -> float:
        if len(self.values) != len(other.values):
            raise DimensionMismatchError(
                f"dimension mismatch: {len(self.values)} vs {len(other.values)}"
            )
        return math.dist(self.values, other.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObjectiveVector):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"ObjectiveVector{self.values}"


class DominanceRelation(Enum):
    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


@dataclass
class Counters:
    """Operation tallies owned by a single run.

    Mutated only by the run's engine thread; cross-run parallelism uses one
    Counters instance per run.
    """

    dominance_comparisons: int = 0
    cell_lookups: int = 0
    evaluations: int = 0


@dataclass(eq=False)
class Solution:
    """Decision-space genome plus its evaluated objectives.

    Identity (not value) semantics: two solutions with equal genomes are still
    distinct archive members. Ids are unique and increase with creation order
    within a run.
    """

    id: int
    genome: tuple[float, ...]
    objectives: ObjectiveVector | None = None

    @property
    def evaluated(self) -> bool:
        return self.objectives is not None


def compare(
    a: ObjectiveVector, b: ObjectiveVector, counters: Counters | None = None
) -> DominanceRelation:
    """Pareto-compare two objective vectors (minimization, weak componentwise).

    a DOMINATES b iff a <= b componentwise and a != b. Counts one dominance
    comparison when counters are supplied.
    """
    av, bv = a.values, b.values
    if len(av) != len(bv):
        raise DimensionMismatchError(f"dimension mismatch: {len(av)} vs {len(bv)}")
    if counters is not None:
        counters.dominance_comparisons += 1
    a_better = False
    b_better = False
    for x, y in zip(av, bv):
        if x < y:
            a_better = True
        elif y < x:
            b_better = True
    if a_better and b_better:
        return DominanceRelation.INCOMPARABLE
    if a_better:
        return DominanceRelation.DOMINATES
    if b_better:
        return DominanceRelation.DOMINATED_BY
    return DominanceRelation.EQUAL


def dominates(
    a: ObjectiveVector, b: ObjectiveVector, counters: Counters | None = None
) -> bool:
    return compare(a, b, counters) is DominanceRelation.DOMINATES


def weakly_dominates(
    a: ObjectiveVector, b: ObjectiveVector, counters: Counters | None = None
) -> bool:
    rel = compare(a, b, counters)
    return rel is DominanceRelation.DOMINATES or rel is DominanceRelation.EQUAL


def nondominated_filter(
    solutions: Iterable[Solution], counters: Counters | None = None
) -> list[Solution]:
    """Return the members not dominated by any other member.

    Equal duplicates are all retained (Equal is not dominance); input order
    does not affect membership, only the order of the returned list.
    """
    pool = list(solutions)
    result: list[Solution] = []
    for i, s in enumerate(pool):
        dominated = False
        for j, t in enumerate(pool):
            if i == j:
                continue
            if compare(t.objectives, s.objectives, counters) is DominanceRelation.DOMINATES:
                dominated = True
                break
        if not dominated:
            result.append(s)
    return result


def dominance_masks(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pareto relations between every row of `a` (n x M) and every row of `b`
    (k x M), as two (n, k) boolean masks.

    weak[i, j] means a[i] <= b[j] in every component (compare() would say
    DOMINATES or EQUAL); strict[i, j] means a[i] dominates b[j]. The loop runs
    over the M columns with one (n, k) comparison each: reducing an (n, k, M)
    array over its short last axis is several times slower.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    weak = a[:, 0, None] <= b[None, :, 0]
    better = a[:, 0, None] < b[None, :, 0]
    scratch = np.empty_like(weak)
    for col in range(1, a.shape[1]):
        x = a[:, col, None]
        y = b[None, :, col]
        weak &= np.less_equal(x, y, out=scratch)
        better |= np.less(x, y, out=scratch)
    better &= weak
    return weak, better


def deterioration_check(
    history: Sequence[Solution], current: Iterable[Solution]
) -> int:
    """Count current members dominated by at least one previously evicted solution.

    A nonzero count witnesses fitness deterioration: the archive kept something
    strictly worse than a point it once held.
    """
    rows = [s.objectives.values for s in history]
    current_rows = [s.objectives.values for s in current]
    if not rows or not current_rows:
        return 0
    _, strict = dominance_masks(
        np.array(rows, dtype=float), np.array(current_rows, dtype=float)
    )
    return int(strict.any(axis=0).sum())
