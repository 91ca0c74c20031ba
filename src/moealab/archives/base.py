"""The uniform archive contract every archiver implements.

An archive is a bounded elitist store. Insertion reports exactly how the
membership changed (outcome) and what the neighbourhood looked like
(feedback), so the engine can stay archiver-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ..core import Counters, Solution, dominance_masks, nondominated_filter


class InsertStatus(Enum):
    ACCEPTED_NEW = "accepted_new"
    ACCEPTED_REPLACING = "accepted_replacing"
    REJECTED = "rejected"


@dataclass(frozen=True)
class InsertOutcome:
    """Result of one insertion attempt.

    evicted_ids lists only solutions that were members before the call; a
    candidate that is accepted and immediately truncated away nets out to
    REJECTED with no evictions reported.
    """

    status: InsertStatus
    evicted_ids: tuple[int, ...] = ()
    dominance_comparisons_used: int = 0

    @property
    def accepted(self) -> bool:
        return self.status is not InsertStatus.REJECTED


@dataclass(frozen=True)
class FeedbackSignal:
    """Archive feedback routed to both the generator and the population update.

    crowding_hint is a nonnegative density estimate near the candidate on an
    archiver-defined scale; archive_size is the member count after the attempt.
    """

    accepted: bool
    crowding_hint: float
    archive_size: int


class Archive(ABC):
    """One archive instance is confined to a single run's engine thread."""

    evicted_log: list[Solution]

    @abstractmethod
    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        """Offer a candidate; membership changes exactly as the outcome reports."""

    @abstractmethod
    def members(self) -> list[Solution]:
        """Snapshot of current members; callers own the returned list."""

    def finalize(self) -> list[Solution]:
        """Pareto filter of the members, applied after the run terminates.

        Identity on membership for stores that only ever hold nondominated
        points; removes the tolerated dominated incumbents otherwise.
        """
        return nondominated_filter(self.members())


class NondominatedStore(Archive):
    """An archive whose members never weakly dominate one another, with their
    objectives kept as an (n, M) array whose row i is member i's objectives.

    Every change of membership goes through _append and _retain, which keep
    the list and the array in step.
    """

    def __init__(self) -> None:
        self._members: list[Solution] = []
        self._objectives = np.empty((0, 0))
        self.evicted_log: list[Solution] = []

    def members(self) -> list[Solution]:
        return list(self._members)

    def _sweep(self, candidate: Solution, counters: Counters) -> np.ndarray | None:
        """Test the candidate against every member: None when some member
        weakly dominates it (rejection), else the mask of members it dominates.

        Charges what a member-order scan with one compare() per member would:
        up to and including the first rejecting member, otherwise all of them.
        """
        n = len(self._members)
        if not n:
            return np.zeros(0, dtype=bool)
        row = np.array([candidate.objectives.values], dtype=float)
        covers, _ = dominance_masks(self._objectives, row)
        first = int(covers.argmax())
        if covers[first, 0]:
            counters.dominance_comparisons += first + 1
            return None
        counters.dominance_comparisons += n
        _, beaten = dominance_masks(row, self._objectives)
        return beaten[0]

    def _append(self, member: Solution) -> None:
        row = np.array([member.objectives.values], dtype=float)
        self._objectives = (
            np.concatenate((self._objectives, row)) if self._members else row
        )
        self._members.append(member)

    def _retain(self, keep: np.ndarray) -> list[Solution]:
        """Keep the members where the boolean mask is set, in their order;
        returns the others, in member order."""
        flags = keep.tolist()
        dropped = [m for m, k in zip(self._members, flags) if not k]
        if dropped:
            self._members = [m for m, k in zip(self._members, flags) if k]
            self._objectives = self._objectives[keep]
        return dropped


def outcome_from_transition(
    before: Sequence[Solution],
    after: Sequence[Solution],
    candidate: Solution,
    comparisons_used: int,
) -> InsertOutcome:
    """Derive the outcome from the membership change, so outcome and state
    agree by construction."""
    after_ids = {s.id for s in after}
    evicted = tuple(s.id for s in before if s.id not in after_ids)
    if candidate.id not in after_ids:
        assert not evicted, "a rejected insertion must not change membership"
        return InsertOutcome(InsertStatus.REJECTED, (), comparisons_used)
    if evicted:
        return InsertOutcome(InsertStatus.ACCEPTED_REPLACING, evicted, comparisons_used)
    return InsertOutcome(InsertStatus.ACCEPTED_NEW, (), comparisons_used)
