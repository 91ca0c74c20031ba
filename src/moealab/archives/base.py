"""The uniform archive contract every archiver implements.

An archive is a bounded elitist store. Insertion reports exactly how the
membership changed (the outcome), so the engine can stay archiver-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Sequence

import numpy as np

from ..core import Counters, Solution, nondominated_filter, weak_relations


class InsertOutcome(NamedTuple):
    """Result of one insertion attempt.

    accepted says whether the candidate is a member after the call. departed
    holds every solution that left the store during the call, in the order it
    left: members the candidate dominated or displaced, and an rn candidate
    that was admitted and then truncated away in the same call (accepted is
    then False). The archive keeps none of them; this is the only record of
    an eviction.
    """

    accepted: bool
    departed: tuple[Solution, ...] = ()

    @classmethod
    def of(cls, kept: bool, departed: Sequence[Solution]) -> InsertOutcome:
        """The outcome of a call that kept the candidate or not and removed
        `departed` from the store.

        When nothing departed, one shared instance per verdict is returned:
        outcomes are immutable, and most insertions remove nothing.
        """
        if not departed:
            return _ACCEPTED if kept else _REJECTED
        return cls(kept, tuple(departed))


_ACCEPTED = InsertOutcome(True)
_REJECTED = InsertOutcome(False)


class FeedbackSignal(NamedTuple):
    """The second half of what try_insert returns; nothing in the package
    reads it. accepted equals the outcome's; archive_size is the member count
    after the attempt. The class goes together with the tuple, once the
    benchmark harness reads the outcome alone (ROADMAP item 2).
    """

    accepted: bool
    archive_size: int


class Archive(ABC):
    """One archive instance is confined to a single run's engine thread."""

    # True when no solution an insertion removes can dominate a member left
    # after it; the deterioration tracker then skips testing the departures
    # against the members
    departures_dominate_no_member = False

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

    Every change of membership goes through _append, _retain and _drop, which
    keep the list and the array in step.

    No departure can dominate a member left after the insertion. Members
    never dominate one another, no member weakly dominates a candidate that
    passed the sweep, and a candidate that departs after passing it had every
    member it dominates removed first.
    """

    departures_dominate_no_member = True

    def __init__(self) -> None:
        self._members: list[Solution] = []
        self._objectives = np.empty((0, 0))

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
        covers, beaten = weak_relations(self._objectives, candidate.objectives.values)
        first = int(covers.argmax())
        if covers[first]:
            counters.dominance_comparisons += first + 1
            return None
        counters.dominance_comparisons += n
        # no member weakly dominates the candidate, so every member it weakly
        # dominates it dominates
        return beaten

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

    def _drop(self, index: int) -> Solution:
        """Remove and return the member at `index`, with its row."""
        rows = self._objectives
        self._objectives = np.concatenate((rows[:index], rows[index + 1 :]))
        return self._members.pop(index)
