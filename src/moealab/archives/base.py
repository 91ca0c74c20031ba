"""The uniform archive contract every archiver implements.

An archive is a bounded elitist store. Insertion reports exactly how the
membership changed (the outcome), so the engine can stay archiver-agnostic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from ..core import (
    Counters,
    Solution,
    nondominated_filter,
    staircase_run,
    weak_relations,
)


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

    @abstractmethod
    def __len__(self) -> int:
        """The number of members, without the snapshot."""

    def finalize(self) -> list[Solution]:
        """Pareto filter of the members, applied after the run terminates.

        Identity on membership for stores that only ever hold nondominated
        points; removes the tolerated dominated incumbents otherwise.
        """
        return nondominated_filter(self.members())


class NondominatedStore(Archive):
    """An archive whose members never weakly dominate one another.

    `_members` is in member order, which is insertion order: _append appends,
    and _remove keeps the order of the rest. Every change of membership goes
    through those two. The first member fixes the number of objectives M,
    which selects how the store answers the dominance sweep:

    - M = 2: the members' objective tuples also form a staircase, which
      answers the sweep through core.staircase_run. Each stair is paired
      with its member, and a member's position is its index in `_members`,
      found by identity (Solution compares by identity). The gaps between
      neighbouring stairs are measured on the first call of _neighbour_gaps,
      and from then on _append and _remove keep them: an insertion splits
      one gap in two, and a removal merges two into one.
    - other M: `_rows`, an (n, M) array whose row i is member i's
      objectives. M = 2 keeps no such array.

    No departure can dominate a member left after the insertion. Members
    never dominate one another, no member weakly dominates a candidate that
    passed the sweep, and a candidate that departs after passing it had every
    member it dominates removed first.
    """

    departures_dominate_no_member = True

    def __init__(self) -> None:
        self._members: list[Solution] = []
        self._bi_objective = False
        # M != 2 only: the members' objectives, row i for member i
        self._rows: np.ndarray = np.empty((0, 0))
        # M = 2 only: the staircase, and the member of each stair
        self._stairs: list[tuple[float, ...]] = []
        self._stair_members: list[Solution] = []
        # M = 2 only, and None until _neighbour_gaps is first called: gap k
        # is the _distance from stair k to stair k + 1
        self._gaps: list[float] | None = None

    def members(self) -> list[Solution]:
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def _sweep(self, candidate: Solution, counters: Counters) -> list[int] | None:
        """Test the candidate against every member: None when some member
        weakly dominates it (rejection), else the ascending positions of the
        members it dominates.

        Charges what a member-order scan with one compare() per member would:
        up to and including the first rejecting member, otherwise all of them.
        """
        n = len(self._members)
        if not n:
            return []
        v = candidate.objectives.values
        if not self._bi_objective:
            covers, beaten = weak_relations(self._rows, v)
            first = int(covers.argmax())
            if covers[first]:
                counters.dominance_comparisons += first + 1
                return None
            counters.dominance_comparisons += n
            # no member weakly dominates the candidate, so every member it
            # weakly dominates it dominates
            return np.flatnonzero(beaten).tolist()
        start, i, end = staircase_run(self._stairs, v)
        if start < i:
            # the scan stops at the earliest weakly dominating member
            first = min(map(self._members.index, self._stair_members[start:i]))
            counters.dominance_comparisons += first + 1
            return None
        counters.dominance_comparisons += n
        return sorted(map(self._members.index, self._stair_members[i:end]))

    def _neighbour_gaps(self) -> list[float]:
        """The _distance from each stair to the next, in stair order (M = 2).
        The first call measures them; the store keeps them from then on."""
        if self._gaps is None:
            stairs = self._stairs
            self._gaps = [_distance(a, b) for a, b in zip(stairs, stairs[1:])]
        return self._gaps

    def _append(self, member: Solution) -> None:
        values = member.objectives.values
        if not self._members:
            self._bi_objective = len(values) == 2
        if self._bi_objective:
            stairs = self._stairs
            at = bisect_right(stairs, values)
            gaps = self._gaps
            if gaps is not None:
                # the gap between the new stair's neighbours, where there are
                # two, becomes the gaps from each of them to it
                split = []
                if at:
                    split.append(_distance(stairs[at - 1], values))
                if at < len(stairs):
                    split.append(_distance(values, stairs[at]))
                gaps[max(at - 1, 0) : at] = split
            stairs.insert(at, values)
            self._stair_members.insert(at, member)
        else:
            row = np.array([values], dtype=float)
            self._rows = np.concatenate((self._rows, row)) if self._members else row
        self._members.append(member)

    def _remove(self, positions: Sequence[int]) -> list[Solution]:
        """Remove the members at the ascending `positions`, keeping the order
        of the rest; returns them, in member order."""
        members = self._members
        departed = [members[p] for p in positions]
        for p in reversed(positions):
            del members[p]
        if self._bi_objective:
            stairs = self._stairs
            gaps = self._gaps
            for m in departed:
                # members are mutually nondominated, so no two share a tuple
                at = bisect_left(stairs, m.objectives.values)
                if gaps is not None:
                    # the gaps on either side of the stair become the one
                    # between its neighbours, where it has two
                    merged = (
                        [_distance(stairs[at - 1], stairs[at + 1])]
                        if 0 < at < len(stairs) - 1
                        else []
                    )
                    gaps[max(at - 1, 0) : at + 1] = merged
                del stairs[at]
                del self._stair_members[at]
        else:
            self._rows = np.delete(self._rows, positions, axis=0)
        return departed


def _distance(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    """The Euclidean distance between two bi-objective points, summing the
    squares in pairwise_distances' order."""
    d0 = b[0] - a[0]
    d1 = b[1] - a[1]
    return math.sqrt(d0 * d0 + d1 * d1)
