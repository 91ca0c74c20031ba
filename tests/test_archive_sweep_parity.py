"""The rn and grid archives sweep a candidate against an (n, M) objective array
with core.dominance_masks. Driven side by side with the same archives using a
scalar compare() sweep, they must agree on every outcome, eviction, member
order and counter, and the array must hold the members' objectives row for
row after every insertion."""

import numpy as np
import pytest

from moealab import (
    Counters,
    GridArchive,
    GridSpec,
    InsertStatus,
    ObjectiveVector,
    RnArchive,
    dominates,
)
from oracles import ScalarSweepGrid, ScalarSweepRn, sol

UNIT_SPEC = GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 4)


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


STREAMS = {
    "tradeoff": tradeoff_stream,
    "lattice": lattice_stream,
    "escaping": escaping_stream,
}

# capacity 8 is far below what the streams offer, so every stream truncates
# (rn) or evicts by crowding (grid)
ARCHIVES = {
    "rn": (lambda: RnArchive(8), lambda: ScalarSweepRn(8)),
    "grid": (
        lambda: GridArchive(8, UNIT_SPEC),
        lambda: ScalarSweepGrid(8, UNIT_SPEC),
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
    make, make_oracle = ARCHIVES[kind]
    archive, oracle = make(), make_oracle()
    counters, oracle_counters = Counters(), Counters()
    seen = {"equal_rejected": 0, "evicted_undominated": 0, "bounds_adapted": 0}
    # every solution that left each store, collected from the outcomes
    departed, oracle_departed = [], []
    for i, values in enumerate(STREAMS[stream](seed, 300)):
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
        assert archive._objectives.tolist() == [
            list(m.objectives.values) for m in archive.members()
        ]
        outcome = got[0]
        if equals_member and outcome.status is InsertStatus.REJECTED:
            seen["equal_rejected"] += 1
        evicted = [before[j] for j in outcome.evicted_ids]
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
