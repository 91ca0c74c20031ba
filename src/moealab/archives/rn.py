"""Ranking/niching archiver: global dominance first, clustering truncation second.

Dominated candidates never enter; overflow beyond capacity is resolved by
average-linkage clustering in objective space, keeping one representative per
cluster. This family exhibits fitness deterioration: truncation can evict a
point that dominates a later-retained one (see the deterioration tests).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..core import Counters, Solution, dominance_masks
from .base import FeedbackSignal, InsertOutcome, NondominatedStore


class RnArchive(NondominatedStore):
    """Bounded nondominated store with clustering-based crowding control."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        start = counters.dominance_comparisons
        beaten = self._sweep(candidate, counters)
        hint = self._crowding_hint(candidate, self._members)
        departed: list[Solution] = []
        if beaten is not None:
            departed = self._retain(~beaten)
            self._append(candidate)
            if len(self._members) > self.capacity:
                departed += self.cluster_truncate(self.capacity)
        # truncation keeps member order, so a kept candidate is still last
        kept = beaten is not None and self._members[-1] is candidate
        used = counters.dominance_comparisons - start
        outcome = InsertOutcome.of(kept, departed, used)
        return outcome, FeedbackSignal(outcome.accepted, hint, len(self._members))

    def _crowding_hint(self, candidate: Solution, members: list[Solution]) -> float:
        # 1/(1+d_nn): bounded, higher means a denser neighbourhood. math.dist
        # directly, as distance_to would call it: the sweep has already
        # checked that the dimensions agree
        if not members:
            return 0.0
        values = candidate.objectives.values
        nearest = min(math.dist(values, m.objectives.values) for m in members)
        return 1.0 / (1.0 + nearest)

    def cluster_truncate(self, target: int) -> list[Solution]:
        """Agglomerate (average linkage, Euclidean in objective space) until
        exactly `target` clusters remain, then keep one member per cluster.

        Representative: the member with minimal mean distance to its cluster
        mates (a singleton keeps itself). All ties break toward the lower
        solution id, including the choice of which pair merges first, so runs
        are bit-reproducible.
        """
        if target < 1:
            raise ValueError(f"target must be >= 1, got {target}")
        n = len(self._members)
        if n <= target:
            return []
        objs = self._objectives
        diff = objs[:, None, :] - objs[None, :, :]
        point_dist = np.sqrt((diff * diff).sum(axis=2))

        clusters: list[list[int]] = [[i] for i in range(n)]
        idkeys: list[int] = [self._members[i].id for i in range(n)]
        dist: list[list[float]] = [list(map(float, row)) for row in point_dist]

        while len(clusters) > target:
            best_key = None
            best_pair = (0, 1)
            for i in range(len(clusters)):
                row = dist[i]
                for j in range(i + 1, len(clusters)):
                    lo, hi = (
                        (idkeys[i], idkeys[j])
                        if idkeys[i] < idkeys[j]
                        else (idkeys[j], idkeys[i])
                    )
                    key = (row[j], lo, hi)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_pair = (i, j)
            i, j = best_pair
            ni, nj = len(clusters[i]), len(clusters[j])
            # Lance-Williams update keeps dist[] equal to the mean pairwise
            # inter-cluster distance (average linkage).
            merged_row = [
                (ni * dist[i][k] + nj * dist[j][k]) / (ni + nj)
                for k in range(len(clusters))
            ]
            clusters[i] = clusters[i] + clusters[j]
            idkeys[i] = min(idkeys[i], idkeys[j])
            for k in range(len(clusters)):
                dist[i][k] = merged_row[k]
                dist[k][i] = merged_row[k]
            dist[i][i] = 0.0
            del clusters[j], idkeys[j], dist[j]
            for row in dist:
                del row[j]

        keep: set[int] = set()
        for cluster in clusters:
            if len(cluster) == 1:
                keep.add(cluster[0])
                continue
            best = None
            for i in cluster:
                mean = sum(point_dist[i][j] for j in cluster if j != i) / (
                    len(cluster) - 1
                )
                key = (mean, self._members[i].id)
                if best is None or key < best[0]:
                    best = (key, i)
            keep.add(best[1])

        mask = np.zeros(n, dtype=bool)
        mask[list(keep)] = True
        return self._retain(mask)

    def strength_fitness(
        self, population: Iterable[Solution], counters: Counters | None = None
    ) -> dict[int, float]:
        """Strength-based fitness over archive members and population, lower is better.

        Each archive member e gets strength S(e) = |{p in population weakly
        dominated by e}| / (|population| + 1) and fitness S(e). A population
        member's fitness is 1 plus the summed strength of the archive members
        that strictly dominate it, so anything nondominated by the whole
        archive scores exactly 1.
        """
        pop = list(population)
        members = self._members
        if counters is not None:
            # the cost model charges one comparison per (member, population) pair
            counters.dominance_comparisons += len(members) * len(pop)
        if members and pop:
            weak, strict = dominance_masks(
                self._objectives,
                np.array([p.objectives.values for p in pop], dtype=float),
            )
            strengths = weak.sum(axis=1) / (len(pop) + 1)
            # row 0 is the floor of 1, row r the strength of member r - 1 where
            # it dominates; accumulating down the rows adds them in member
            # order, exactly as a scalar loop would (a pairwise sum could
            # differ in the last bit)
            terms = np.empty((len(members) + 1, len(pop)))
            terms[0] = 1.0
            np.multiply(strict, strengths[:, None], out=terms[1:])
            totals = np.add.accumulate(terms, axis=0)[-1]
        else:
            strengths = np.zeros(len(members))
            totals = np.ones(len(pop))
        fitness = dict(zip((e.id for e in members), strengths.tolist()))
        fitness.update(zip((p.id for p in pop), totals.tolist()))
        return fitness
