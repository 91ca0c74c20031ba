"""Independent brute-force oracles for the test suite.

These deliberately use different algorithms/control flow than the library
code they check (no early exits, index masks, plain loops), so agreement is
meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from moealab import Counters, DominanceRelation, ObjectiveVector, Solution, compare


def oracle_front_indices(vectors: list[tuple[float, ...]]) -> list[int]:
    """Indices of the nondominated vectors, by exhaustive all-pairs scan."""
    n = len(vectors)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            m = len(vectors[i])
            leq = all(vectors[j][k] <= vectors[i][k] for k in range(m))
            lt = any(vectors[j][k] < vectors[i][k] for k in range(m))
            if leq and lt:
                dominated = True
        if not dominated:
            keep.append(i)
    return keep


def oracle_front_values(vectors: list[tuple[float, ...]]) -> set[tuple[float, ...]]:
    return {vectors[i] for i in oracle_front_indices(vectors)}


def oracle_pairwise_nondominating(vectors: list[tuple[float, ...]]) -> bool:
    return len(oracle_front_indices(vectors)) == len(vectors)


def strength_fitness_oracle(
    members: list[Solution], population: list[Solution], counters: Counters | None = None
) -> dict[int, float]:
    """SPEA-style strength fitness by one scalar compare() per (member, population)
    pair, summing each population member's strengths in member order."""
    denom = len(population) + 1
    fitness: dict[int, float] = {}
    strengths: dict[int, float] = {}
    relations: list[list[DominanceRelation]] = []
    for e in members:
        rels = [compare(e.objectives, p.objectives, counters) for p in population]
        relations.append(rels)
        covered = sum(
            1
            for rel in rels
            if rel is DominanceRelation.DOMINATES or rel is DominanceRelation.EQUAL
        )
        strengths[e.id] = covered / denom
        fitness[e.id] = strengths[e.id]
    for k, p in enumerate(population):
        total = 1.0
        for e, rels in zip(members, relations):
            if rels[k] is DominanceRelation.DOMINATES:
                total += strengths[e.id]
        fitness[p.id] = total
    return fitness


def oracle_deterioration_count(
    history: list[Solution], current: list[Solution]
) -> int:
    """Members of `current` strictly dominated by some point of `history`, by a
    plain loop over every pair."""
    count = 0
    for s in current:
        beaten = False
        for h in history:
            hv, sv = h.objectives.values, s.objectives.values
            leq = all(hv[k] <= sv[k] for k in range(len(sv)))
            lt = any(hv[k] < sv[k] for k in range(len(sv)))
            if leq and lt:
                beaten = True
        if beaten:
            count += 1
    return count


def oracle_gd(front: list[tuple[float, ...]], reference: list[tuple[float, ...]]) -> float:
    total = 0.0
    for p in front:
        total += min(math.dist(p, q) for q in reference)
    return total / len(front)


def oracle_spacing(front: list[tuple[float, ...]]) -> float:
    nearest = []
    for i, p in enumerate(front):
        nearest.append(min(math.dist(p, q) for j, q in enumerate(front) if j != i))
    mean = sum(nearest) / len(nearest)
    return math.sqrt(sum((d - mean) ** 2 for d in nearest) / len(nearest))


def sol(sid: int, values: tuple[float, ...], genome: tuple[float, ...] = (0.0,)) -> Solution:
    return Solution(sid, genome, ObjectiveVector(values))


def random_solutions(
    rng: np.random.Generator, count: int, m: int = 2, start_id: int = 0
) -> list[Solution]:
    return [
        sol(start_id + i, tuple(float(x) for x in rng.random(m)))
        for i in range(count)
    ]


def tradeoff_solutions(
    rng: np.random.Generator, count: int, start_id: int = 0, jitter: float = 0.05
) -> list[Solution]:
    """Mostly-incomparable 2-D points near the line f1 + f2 = 1."""
    out = []
    for i in range(count):
        t = float(rng.random())
        eps = float(rng.normal(0.0, jitter))
        out.append(sol(start_id + i, (t, max(0.0, 1.0 - t + eps))))
    return out


def members_values(archive) -> list[tuple[float, ...]]:
    return [s.objectives.values for s in archive.members()]
