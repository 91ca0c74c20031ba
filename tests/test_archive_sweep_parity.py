"""The rn and grid archives sweep a candidate against their staircase at M = 2
and against an (n, M) objective array with core.weak_relations otherwise.
Driven side by side with the same archives using a scalar compare() sweep,
they must agree on every outcome, eviction, member order and counter, and
the array must hold the members' objectives row for row after every
insertion. On the same streams, no solution an insertion removes may
dominate a member left after it: the property both stores declare, which
lets the deterioration tracker skip that test."""

import itertools

import numpy as np
import pytest

from moealab import (
    Counters,
    GpsArchive,
    GridArchive,
    GridSpec,
    ObjectiveVector,
    RaySpec,
    RnArchive,
    Solution,
    dominates,
)
from moealab.metrics import _MEASURED_MULTIPLE, _incomparable_stream
from oracles import (
    check_store_follows_members,
    OracleTruncateRn,
    ScalarSweepGrid,
    ScalarSweepRn,
    random_solutions,
    sol,
)

def tradeoff_stream(seed, count):
    # near the line f1 + f2 = 1, so most points are mutually incomparable and
    # the archives fill up and must truncate or evict by crowding
    rng = np.random.default_rng(seed)
    t = rng.random(count)
    jitter = rng.normal(0.0, 0.05, count)
    return [(float(a), float(max(0.0, 1.0 - a + e))) for a, e in zip(t, jitter)]


def lattice_stream(seed, count):
    # few distinct values: ties in one objective, duplicate points, and
    # candidates equal to a member
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 9, count)
    b = 8 - a + rng.integers(0, 3, count)
    return [(float(x), float(y)) for x, y in zip(a, b)]


def escaping_stream(seed, count):
    # spread over [-1, 2]^2 around the unit box, so grid bounds adapt
    return [(3.0 * x - 1.0, 3.0 * y - 1.0) for x, y in tradeoff_stream(seed, count)]


def simplex_stream(seed, count):
    # three objectives near the plane f1 + f2 + f3 = 1, so the stores keep
    # the (n, M) array and sweep it with weak_relations
    rng = np.random.default_rng(seed)
    points = rng.dirichlet((1.0, 1.0, 1.0), count)
    points += rng.normal(0.0, 0.03, points.shape)
    return [tuple(float(max(0.0, x)) for x in p) for p in points]


STREAMS = {
    "tradeoff": tradeoff_stream,
    "lattice": lattice_stream,
    "escaping": escaping_stream,
    "simplex3": simplex_stream,
}


def unit_spec(m):
    return GridSpec(ObjectiveVector((0.0,) * m), ObjectiveVector((1.0,) * m), 4)


# capacity 8 is far below what the streams offer, so every stream truncates
# (rn) or evicts by crowding (grid); each factory takes the stream's M
ARCHIVES = {
    "rn": (lambda m: RnArchive(8), lambda m: ScalarSweepRn(8)),
    "grid": (
        lambda m: GridArchive(8, unit_spec(m)),
        lambda m: ScalarSweepGrid(8, unit_spec(m)),
    ),
}


def state(archive, departed):
    extra = ()
    if isinstance(archive, GridArchive):
        extra = (archive.spec, archive.cell_occupancy())
    return [m.id for m in archive.members()], [m.id for m in departed], extra


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("kind", sorted(ARCHIVES))
def test_broadcast_sweep_matches_scalar_sweep(kind, stream, seed):
    points = STREAMS[stream](seed, 300)
    make, make_oracle = ARCHIVES[kind]
    archive, oracle = make(len(points[0])), make_oracle(len(points[0]))
    counters, oracle_counters = Counters(), Counters()
    seen = {"equal_rejected": 0, "evicted_undominated": 0, "bounds_adapted": 0}
    # every solution that left each store, collected from the outcomes
    departed, oracle_departed = [], []
    for i, values in enumerate(points):
        candidate = sol(i, values)
        before = {m.id: m for m in archive.members()}
        equals_member = any(
            m.objectives == candidate.objectives for m in before.values()
        )
        spec = getattr(archive, "spec", None)
        got = archive.try_insert(candidate, counters)
        want = oracle.try_insert(candidate, oracle_counters)
        assert got == want
        departed += got[0].departed
        oracle_departed += want[0].departed
        assert counters == oracle_counters
        assert state(archive, departed) == state(oracle, oracle_departed)
        assert len(archive) == len(archive.members())
        assert len(oracle) == len(oracle.members())
        check_store_follows_members(archive)
        outcome = got[0]
        if equals_member and not outcome.accepted:
            seen["equal_rejected"] += 1
        # an rn candidate truncated on arrival departs without being evicted
        evicted = [before[d.id] for d in outcome.departed if d is not candidate]
        if any(not dominates(candidate.objectives, m.objectives) for m in evicted):
            seen["evicted_undominated"] += 1
        if spec is not None and archive.spec != spec:
            seen["bounds_adapted"] += 1
    # the stream reached the paths the parity is meant to cover
    assert seen["evicted_undominated"] > 0  # rn truncation, grid crowding eviction
    if stream == "lattice":
        assert seen["equal_rejected"] > 0
    if kind == "grid" and stream == "escaping":
        assert seen["bounds_adapted"] > 0


@pytest.mark.parametrize("size", [4, 5, 9, 16, 25, 40])
def test_rn_truncation_matches_the_pair_scan_on_the_sweep_stream(size):
    # complexity_sweep's stream and schedule: every insertion past the first
    # `size` overflows the archive and truncates
    archive, oracle = RnArchive(size), OracleTruncateRn(size)
    seen = []
    truncate = archive.cluster_truncate

    def recording_truncate():
        seen.append(len(archive.members()))
        return truncate()

    archive.cluster_truncate = recording_truncate
    counters, oracle_counters = Counters(), Counters()
    rng = np.random.default_rng(size)
    ids = itertools.count()
    truncated = 0
    for vec in _incomparable_stream(rng, (1 + _MEASURED_MULTIPLE) * size):
        candidate = Solution(next(ids), (0.0,), vec)
        got = archive.try_insert(candidate, counters)
        want = oracle.try_insert(candidate, oracle_counters)
        assert got == want
        assert [m.id for m in got[0].departed] == [m.id for m in want[0].departed]
        assert [m.id for m in archive.members()] == [m.id for m in oracle.members()]
        assert len(archive) == len(archive.members())
        check_store_follows_members(archive)
        check_store_follows_members(oracle)
        truncated += len(archive.members()) == size and bool(got[0].departed)
    assert counters == oracle_counters
    assert truncated >= _MEASURED_MULTIPLE * size
    # the store overflows by exactly one member at every truncation
    assert len(seen) >= _MEASURED_MULTIPLE * size
    assert set(seen) == {size + 1}


def strictly_better(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def departures_dominating_members(archive, candidates):
    """Over every insertion, the number of (departure, member left after it)
    pairs in which the departure dominates the member, and the number of
    departures."""
    hits = departures = 0
    for candidate in candidates:
        outcome, _ = archive.try_insert(candidate, Counters())
        departures += len(outcome.departed)
        hits += sum(
            strictly_better(d.objectives.values, m.objectives.values)
            for d in outcome.departed
            for m in archive.members()
        )
    return hits, departures


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("kind", sorted(ARCHIVES))
def test_no_departure_dominates_a_member_left(kind, stream, seed):
    points = STREAMS[stream](seed, 300)
    make, _ = ARCHIVES[kind]
    archive = make(len(points[0]))
    assert archive.departures_dominate_no_member
    candidates = [sol(i, values) for i, values in enumerate(points)]
    hits, departures = departures_dominating_members(archive, candidates)
    assert hits == 0
    assert departures > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_gps_len_counts_its_incumbents(stream, seed):
    points = STREAMS[stream](seed, 300)
    m = len(points[0])
    # the reference lies below every stream's points, escaping's included
    archive = GpsArchive(RaySpec(ObjectiveVector((-2.0,) * m), 16))
    for i, values in enumerate(points):
        archive.try_insert(sol(i, values), Counters())
        assert len(archive) == len(archive.members())
    assert len(archive) > 1


def test_gps_departures_can_dominate_members():
    # so gps declares nothing, and the tracker keeps testing its departures
    archive = GpsArchive(RaySpec(ObjectiveVector((0.0, 0.0)), 16))
    assert not archive.departures_dominate_no_member
    hits, _ = departures_dominating_members(
        archive, random_solutions(np.random.default_rng(0), 300)
    )
    assert hits > 0
