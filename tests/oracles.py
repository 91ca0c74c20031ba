"""Independent brute-force oracles for the test suite.

These deliberately use different algorithms/control flow than the library
code they check (no early exits, index masks, plain loops), so agreement is
meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from moealab import (
    Counters,
    DegenerateDirectionError,
    DimensionMismatchError,
    DominanceRelation,
    GridArchive,
    GridSpec,
    ObjectiveVector,
    OutOfBoundsError,
    RaySpec,
    RnArchive,
    Solution,
    VariationConfig,
    compare,
    dominance_masks,
)
from moealab.archives.base import _distance
from moealab.generator import _polynomial_mutation


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


def scalar_sweep(
    members: list[Solution], candidate: Solution, counters: Counters
) -> list[int] | None:
    """The archive sweep as one compare() per member in member order, stopping
    at the first member that dominates or equals the candidate (None then);
    otherwise the positions of the members the candidate dominates."""
    beaten = []
    for i, m in enumerate(members):
        rel = compare(candidate.objectives, m.objectives, counters)
        if rel is DominanceRelation.DOMINATED_BY or rel is DominanceRelation.EQUAL:
            return None
        if rel is DominanceRelation.DOMINATES:
            beaten.append(i)
    return beaten


class ScalarSweepRn(RnArchive):
    """RnArchive with the store's sweep replaced by scalar_sweep."""

    def _sweep(self, candidate, counters):
        return scalar_sweep(self._members, candidate, counters)


class ScalarSweepGrid(GridArchive):
    """GridArchive with the store's sweep replaced by scalar_sweep."""

    def _sweep(self, candidate, counters):
        return scalar_sweep(self._members, candidate, counters)


def ray_of_oracle(v: ObjectiveVector, spec: RaySpec) -> tuple[int, ...]:
    """The angular bin coordinates of v's direction from the reference, by a
    loop over the components: each offset is tested as it is taken, and each
    angle scales the offsets from k on by 2**-e, with e the binary exponent of
    the largest of them, and sums their squares left to right in a generator,
    except that the one angle of M = 2 takes the second offset itself. Raises
    what ray_of raises below or at the reference."""
    u = []
    for x, r in zip(v, spec.reference):
        delta = x - r
        if delta < 0:
            raise ValueError(
                f"{v} is below the reference point {spec.reference} in some component"
            )
        u.append(delta)
    if all(d == 0.0 for d in u):
        raise DegenerateDirectionError(
            f"{v} equals the reference point; direction undefined"
        )
    k_rays = spec.rays_per_axis
    quarter = math.pi / 2.0
    coords = []
    for k in range(len(u) - 1):
        if len(u) == 2:
            angle = math.atan2(abs(u[1]), u[0])
        else:
            e = math.frexp(max(u[k:]))[1]
            scaled = [math.ldexp(d, -e) for d in u[k:]]
            rest = math.sqrt(sum(d * d for d in scaled[1:]))
            angle = math.atan2(rest, scaled[0])
        coords.append(min(int(angle / quarter * k_rays), k_rays - 1))
    return tuple(coords)


def cell_of_oracle(v: ObjectiveVector, spec: GridSpec) -> tuple[int, ...]:
    """The grid cell coordinates of v, by index over the components: an
    inclusive bounds test of each, then min(int((x - lo) / (hi - lo) * d),
    d - 1) for each. Raises what cell_of raises on another dimension or out
    of bounds."""
    m = len(spec.lower)
    if len(v) != m:
        raise DimensionMismatchError(f"dimension mismatch: {len(v)} vs {m}")
    for k in range(m):
        if not spec.lower[k] <= v[k] <= spec.upper[k]:
            raise OutOfBoundsError(v, spec)
    d = spec.divisions
    coords = []
    for k in range(m):
        lo, hi = spec.lower[k], spec.upper[k]
        coords.append(min(int((v[k] - lo) / (hi - lo) * d), d - 1))
    return tuple(coords)


def cluster_truncate_oracle(
    members: list[Solution], target: int
) -> tuple[list[int], list[int]]:
    """Average-linkage truncation of `members` to `target` clusters by a scan
    of every cluster pair keyed (distance, lower id, higher id) over an n x n
    list of lists, with a Lance-Williams update after each merge. Returns the
    ids that leave and the ids that stay, each in member order."""
    n = len(members)
    if n <= target:
        return [], [m.id for m in members]
    objs = np.array([m.objectives.values for m in members], dtype=float)
    diff = objs[:, None, :] - objs[None, :, :]
    point_dist = np.sqrt((diff * diff).sum(axis=2))

    clusters: list[list[int]] = [[i] for i in range(n)]
    idkeys: list[int] = [members[i].id for i in range(n)]
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
            key = (mean, members[i].id)
            if best is None or key < best[0]:
                best = (key, i)
        keep.add(best[1])
    departed = [m.id for i, m in enumerate(members) if i not in keep]
    kept = [m.id for i, m in enumerate(members) if i in keep]
    return departed, kept


class OracleTruncateRn(RnArchive):
    """RnArchive truncating with cluster_truncate_oracle."""

    def cluster_truncate(self):
        _, kept = cluster_truncate_oracle(self._members, self.capacity)
        stay = set(kept)
        return self._remove(
            [i for i, m in enumerate(self._members) if m.id not in stay]
        )


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


class TrackerOracle:
    """The deterioration tracker as a (k, n) broadcast per call: it copies the
    members, drops deteriorated ids that are no longer members, tests every
    evicted row against every member at once, and keeps its history with two
    dominance_masks calls per evicted row."""

    def __init__(self, m: int):
        self._history = np.empty((0, m), dtype=float)
        self._deteriorated: set[int] = set()

    def _remember(self, rows: np.ndarray) -> None:
        for row in rows:
            row = row[None]
            covered, _ = dominance_masks(self._history, row)
            if covered.any():
                continue
            _, beaten = dominance_masks(row, self._history)
            self._history = np.concatenate((self._history[~beaten[0]], row))

    def observe(self, archive, candidate, accepted, newly_evicted) -> None:
        members = archive.members()
        member_ids = {s.id for s in members}
        self._deteriorated &= member_ids
        if newly_evicted:
            evicted_rows = np.asarray(
                [s.objectives.values for s in newly_evicted], dtype=float
            )
            if members:
                _, strict = dominance_masks(
                    evicted_rows,
                    np.array([s.objectives.values for s in members], dtype=float),
                )
                self._deteriorated.update(
                    m.id for m, beaten in zip(members, strict.any(axis=0).tolist()) if beaten
                )
            self._remember(evicted_rows)
        if accepted and candidate.id in member_ids and len(self._history):
            _, strict = dominance_masks(
                self._history, np.array([candidate.objectives.values], dtype=float)
            )
            if strict.any():
                self._deteriorated.add(candidate.id)

    def count(self) -> int:
        return len(self._deteriorated)


def generate_oracle(
    parents: tuple[Solution, Solution],
    config: VariationConfig,
    bounds,
    rng: np.random.Generator,
    ids,
) -> Solution:
    """generate() drawing every uniform with its own rng.random() call, in the
    order the operators consume them."""
    p1, p2 = parents
    n = len(p1.genome)
    mutation_prob = config.mutation_prob if config.mutation_prob is not None else 1.0 / n
    eta_c = config.crossover_spread
    eta_m = config.mutation_spread
    genome = []
    for k in range(n):
        lo, hi = bounds[k]
        x1, x2 = p1.genome[k], p2.genome[k]
        if rng.random() < config.crossover_prob:
            u = rng.random()
            if u <= 0.5:
                beta = (2.0 * u) ** (1.0 / (eta_c + 1.0))
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta_c + 1.0))
            c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
            c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
            g = c1 if rng.random() < 0.5 else c2
        else:
            g = x1
        if hi > lo and rng.random() < mutation_prob:
            g = _polynomial_mutation(g, lo, hi, eta_m, rng.random())
        genome.append(min(hi, max(lo, g)))
    return Solution(next(ids), tuple(genome))


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


def gd_broadcast_oracle(
    front: list[tuple[float, ...]], reference: list[tuple[float, ...]]
) -> float:
    """Generational distance by one (n, |reference|, M) broadcast: every
    distance is taken, then the smallest per front point."""
    f = np.asarray(front, dtype=float)
    r = np.asarray(reference, dtype=float)
    diff = f[:, None, :] - r[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    return float(dists.min(axis=1).mean())


def spacing_broadcast_oracle(front: list[tuple[float, ...]]) -> float:
    """Spacing by one (n, n, M) broadcast summed over the last axis."""
    f = np.asarray(front, dtype=float)
    diff = f[:, None, :] - f[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    return float(dists.min(axis=1).std())


def linregress_ci_oracle(x, y) -> tuple[float, tuple[float, float]]:
    """complexity_sweep's slope and 95% interval computed with scipy: the
    slope and its standard error from stats.linregress, the half-width from
    stats.t.ppf(0.975, n - 2), infinite with two points. Needs scipy."""
    from scipy import stats

    fit = stats.linregress(x, y)
    half_width = (
        float(stats.t.ppf(0.975, len(x) - 2) * fit.stderr) if len(x) > 2 else float("inf")
    )
    return float(fit.slope), (float(fit.slope) - half_width, float(fit.slope) + half_width)


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


def check_store_follows_members(archive) -> None:
    """A NondominatedStore's own record of its members' objectives is theirs:
    at M = 2 the staircase is their tuples sorted by f1, each stair paired with
    the member that owns it, and the neighbour gaps, once kept, are those
    measured afresh from the staircase, bit for bit; at other M row i of the
    array is member i's."""
    members = archive.members()
    if archive._bi_objective:
        stairs = archive._stairs
        assert stairs == sorted(members_values(archive), key=lambda v: v[0])
        assert len(archive._stair_members) == len(stairs)
        for stair, owner in zip(stairs, archive._stair_members):
            assert owner.objectives.values == stair
        assert {id(m) for m in archive._stair_members} == {id(m) for m in members}
        if archive._gaps is not None:
            fresh = [_distance(a, b) for a, b in zip(stairs, stairs[1:])]
            assert [g.hex() for g in archive._gaps] == [g.hex() for g in fresh]
    else:
        assert archive._rows.tolist() == [list(m.objectives.values) for m in members]
