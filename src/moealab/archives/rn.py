"""Ranking/niching archiver: global dominance first, clustering truncation second.

Dominated candidates never enter; an insertion that overflows the capacity
removes one member of the closest pair in objective space, exactly as
average-linkage clustering would at an overflow of one. This family exhibits
fitness deterioration: truncation can evict a point that dominates a
later-retained one (see the deterioration tests).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..core import (
    Counters,
    DimensionMismatchError,
    Solution,
    dominance_masks,
    pairwise_distances,
)
from .base import FeedbackSignal, InsertOutcome, NondominatedStore, _distance


class RnArchive(NondominatedStore):
    """Bounded nondominated store with clustering-based crowding control."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity
        # strength_fitness's last inputs and result: snapshots of the members
        # and of the population, and the fitness list
        self._fitness_memo: (
            tuple[list[Solution], list[Solution], list[float]] | None
        ) = None

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        beaten = self._sweep(candidate, counters)
        departed: list[Solution] = []
        if beaten is not None:
            if beaten:
                departed = self._remove(beaten)
            self._append(candidate)
            if len(self._members) > self.capacity:
                departed += self.cluster_truncate()
        # truncation keeps member order, so a kept candidate is still last
        kept = beaten is not None and self._members[-1] is candidate
        outcome = InsertOutcome.of(kept, departed)
        return outcome, FeedbackSignal(outcome.accepted, len(self._members))

    def cluster_truncate(self) -> list[Solution]:
        """Remove the higher id of the closest pair of members (Euclidean in
        objective space) when the store holds more than `capacity`.

        Pairs are ordered by (distance, lower id, higher id), so runs are
        bit-reproducible. This is SPEA's average-linkage clustering taking the
        capacity + 1 singletons of one overflow down to capacity clusters: the
        closest pair merges, and as pairwise_distances is symmetric bit for
        bit, both of its members have the same mean distance to their mate, so
        the lower id represents the cluster.
        """
        if len(self._members) <= self.capacity:
            return []
        if self._bi_objective:
            return self._remove([self._staircase_victim()])
        dist = pairwise_distances(self._rows)
        np.fill_diagonal(dist, np.inf)
        # dist is symmetric, so each tied pair shows up as (i, j) and (j, i);
        # the hit whose row holds the higher id stands for the pair. A flat
        # search costs a fraction of a two-dimensional nonzero()
        ties = np.flatnonzero(dist == dist.min()).tolist()
        members = self._members
        _, _, victim = min(
            (members[col].id, members[row].id, row)
            for row, col in (divmod(hit, len(members)) for hit in ties)
            if members[row].id > members[col].id
        )
        return self._remove([victim])

    def _staircase_victim(self) -> int:
        """The position of cluster_truncate's victim at M = 2, from the gaps
        between neighbouring stairs.

        Moving along the staircase away from a stair grows both |df1| and
        |df2|, and rounding is monotone, so no pair is closer than the least
        neighbour gap, and a pair ties it only if it starts at a gap equal to
        it. Each distance is the float pairwise_distances computes: 0.0 plus
        the first square is exact, then the second square is added. The gaps
        are measured at the first overflow and kept by the store from then
        on, so a truncation measures none of them again.
        """
        stairs = self._stairs
        gaps = self._neighbour_gaps()
        least = min(gaps)
        owners = self._stair_members
        pairs = []
        i = -1
        for _ in range(gaps.count(least)):
            i = gaps.index(least, i + 1)
            # the stairs after i that tie the least gap form a run; it is
            # longer than one only where distances round to 0 or overflow
            j = i + 1
            while True:
                pairs.append(sorted((owners[i], owners[j]), key=attrgetter("id")))
                j += 1
                if j == len(stairs) or _distance(stairs[i], stairs[j]) != least:
                    break
        _, victim = min(pairs, key=lambda pair: (pair[0].id, pair[1].id))
        return self._members.index(victim)

    def strength_fitness(
        self, population: Sequence[Solution], counters: Counters | None = None
    ) -> list[float]:
        """Strength-based fitness of each population member, in population
        order; lower is better.

        Each archive member e has strength S(e) = |{p in population weakly
        dominated by e}| / (|population| + 1). A population member's fitness is
        1 plus the summed strength of the archive members that strictly
        dominate it, added one at a time in member order, so anything
        nondominated by the whole archive scores exactly 1. At M = 2 the
        staircase gives each population member its dominators as one run of
        stairs (_staircase_fitness); other M compare every pair at once with
        dominance_masks.

        A call whose archive and population are those of the last call
        returns a copy of the last result: each holds the same Solutions in
        the same slots, by identity. So a population member's objectives must
        never be reassigned after it is evaluated. The charge is made either
        way.
        """
        members = self._members
        if counters is not None:
            # the cost model charges one comparison per (member, population) pair
            counters.dominance_comparisons += len(members) * len(population)
        if not members or not population:
            return [1.0] * len(population)
        roster = list(members)
        snapshot = list(population)
        memo = self._fitness_memo
        if memo is not None and memo[0] == roster and memo[1] == snapshot:
            # callers may write into the list they get, so the memo's own
            # list is never handed out
            return list(memo[2])
        if self._bi_objective:
            fitness = self._staircase_fitness(snapshot)
        else:
            m = self._rows.shape[1]
            for p in snapshot:
                # numpy would refuse rows of mixed lengths with its own error
                if len(p.objectives.values) != m:
                    raise DimensionMismatchError(
                        f"dimension mismatch: {m} vs {len(p.objectives.values)}"
                    )
            weak, strict = dominance_masks(
                self._rows,
                np.array([p.objectives.values for p in snapshot], dtype=float),
            )
            strengths = weak.sum(axis=1) / (len(snapshot) + 1)
            # row 0 is the floor of 1, row r the strength of member r - 1
            # where it dominates; accumulating down the rows adds them in
            # member order, exactly as a scalar loop would (a pairwise sum
            # could differ in the last bit)
            terms = np.empty((len(members) + 1, len(snapshot)))
            terms[0] = 1.0
            np.multiply(strict, strengths[:, None], out=terms[1:])
            fitness = np.add.accumulate(terms, axis=0)[-1].tolist()
        self._fitness_memo = (roster, snapshot, fitness)
        return list(fitness)

    def _staircase_fitness(self, population: list[Solution]) -> list[float]:
        """strength_fitness at M = 2, from the staircase.

        The stairs that weakly dominate a point v form one run: those with
        f1 <= v[0] are a prefix, and f2 falls along it, so those with
        f2 <= v[1] are the prefix's tail. A stair equal to v ends the run and
        does not dominate v strictly. A population member that is an archive
        member is weakly dominated by its own stair alone. A stair's count of
        the population members it weakly dominates is the number of runs
        covering it, summed from a difference array.
        """
        stairs = self._stairs
        owners = self._stair_members
        stair_of = dict(zip(owners, range(len(owners))))
        ends = [0] * (len(stairs) + 1)
        # per population member, the run of stairs that strictly dominate it
        runs = []
        for p in population:
            # the bisect path gives such a member the same run; on ea-rn-zdt1
            # more than half the population slots are archive members, and
            # skipping their bisects is measurably faster (BENCH_26.json)
            k = stair_of.get(p)
            if k is not None:
                ends[k] += 1
                ends[k + 1] -= 1
                runs.append((k, k))
                continue
            v = p.objectives.values
            if len(v) != 2:
                raise DimensionMismatchError(f"dimension mismatch: 2 vs {len(v)}")
            y = v[1]
            i = bisect_right(stairs, v)
            start = i
            while start and stairs[start - 1][1] <= y:
                start -= 1
            ends[start] += 1
            ends[i] -= 1
            runs.append((start, i - 1 if i and stairs[i - 1] == v else i))
        share = len(population) + 1
        strengths = [c / share for c in itertools.accumulate(ends[:-1])]
        rank = None
        fitness = []
        for start, end in runs:
            total = 1.0
            if end - start == 1:
                total += strengths[start]
            elif end - start > 1:
                if rank is None:
                    position = dict(zip(self._members, range(len(owners))))
                    rank = [position[m] for m in owners]
                # one addition at a time in member order, as the numpy path
                # accumulates; sum() compensates on Python >= 3.12, which
                # could differ in the last bit
                for s in sorted(range(start, end), key=rank.__getitem__):
                    total += strengths[s]
            fitness.append(total)
        return fitness

