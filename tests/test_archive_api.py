"""Contract tests that every archiver must satisfy uniformly."""

import numpy as np
import pytest

from moealab import (
    Counters,
    DimensionMismatchError,
    GpsArchive,
    GridArchive,
    GridSpec,
    ObjectiveVector,
    RaySpec,
    RnArchive,
)
from oracles import (
    check_store_follows_members,
    oracle_pairwise_nondominating,
    random_solutions,
    sol,
    tradeoff_solutions,
)

CAPACITY = 30


def make_archive(kind: str):
    if kind == "rn":
        return RnArchive(CAPACITY)
    if kind == "grid":
        spec = GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 8)
        return GridArchive(CAPACITY, spec)
    return GpsArchive(RaySpec(ObjectiveVector((-0.5, -0.5)), CAPACITY))


ALL_KINDS = ("rn", "grid", "gps")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_empty_archive_accepts_any_candidate(kind):
    archive = make_archive(kind)
    outcome, feedback = archive.try_insert(sol(0, (0.4, 0.6)), Counters())
    assert outcome.accepted and not outcome.departed
    assert feedback.accepted
    assert feedback.archive_size == 1
    assert [s.id for s in archive.members()] == [0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_members_returns_a_snapshot(kind):
    archive = make_archive(kind)
    archive.try_insert(sol(0, (0.4, 0.6)), Counters())
    snapshot = archive.members()
    snapshot.clear()
    assert len(archive.members()) == 1


@pytest.mark.parametrize("kind", ("rn", "grid"))
def test_store_objectives_follow_members(kind):
    """A NondominatedStore's staircase (M = 2) or array (other M) follows
    members() after every insertion."""
    archive = make_archive(kind)
    check_store_follows_members(archive)
    counters = Counters()
    for s in tradeoff_solutions(np.random.default_rng(7), 80):
        archive.try_insert(s, counters)
        check_store_follows_members(archive)


@pytest.mark.parametrize("m, other", [(2, 3), (3, 2)])
@pytest.mark.parametrize("kind", ("rn", "grid"))
def test_store_refuses_a_candidate_of_another_dimension(kind, m, other):
    """The first member fixes M: a candidate of another dimension raises
    before anything is charged, and the members stay as they were."""
    if kind == "rn":
        archive = RnArchive(CAPACITY)
    else:
        spec = GridSpec(ObjectiveVector((0.0,) * m), ObjectiveVector((1.0,) * m), 8)
        archive = GridArchive(CAPACITY, spec)
    counters = Counters()
    for s in random_solutions(np.random.default_rng(3), 20, m=m):
        archive.try_insert(s, counters)
    before = archive.members()
    charged = Counters(**vars(counters))
    with pytest.raises(DimensionMismatchError):
        archive.try_insert(sol(99, (0.5,) * other), counters)
    assert counters == charged
    assert archive.members() == before
    check_store_follows_members(archive)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fresh_archive_is_empty_and_finalizes_empty(kind):
    archive = make_archive(kind)
    assert archive.members() == []
    assert archive.finalize() == []


def test_rn_overflow_on_planted_points_evicts_exactly_one_prior_member():
    # four mutually incomparable points; truncation merges the close pair
    # (0,10)/(1,9.5) and drops the younger of the two
    archive = RnArchive(3)
    counters = Counters()
    for s in [sol(0, (0.0, 10.0)), sol(1, (1.0, 9.5)), sol(2, (5.0, 5.0))]:
        outcome, _ = archive.try_insert(s, counters)
        assert outcome.accepted and not outcome.departed
    outcome, feedback = archive.try_insert(sol(4, (7.0, 4.65)), counters)
    assert outcome.accepted
    assert [d.id for d in outcome.departed] == [1]
    assert feedback.archive_size == 3


def test_grid_equal_candidate_in_same_cell_is_rejected():
    archive = make_archive("grid")
    counters = Counters()
    archive.try_insert(sol(0, (0.4, 0.6)), counters)
    outcome, feedback = archive.try_insert(sol(1, (0.4, 0.6)), counters)
    assert not outcome.accepted
    assert outcome.departed == ()
    assert not feedback.accepted
    assert [s.id for s in archive.members()] == [0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gps_finalize_is_pairwise_nondominated_and_others_identity(kind):
    rng = np.random.default_rng(5)
    archive = make_archive(kind)
    counters = Counters()
    for s in random_solutions(rng, 300):
        archive.try_insert(s, counters)
    members = archive.members()
    final = archive.finalize()
    assert oracle_pairwise_nondominating([s.objectives.values for s in final])
    if kind in ("rn", "grid"):
        # these stores hold only nondominated points, so finalize is identity
        assert {s.id for s in final} == {s.id for s in members}
    else:
        assert {s.id for s in final} <= {s.id for s in members}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_outcome_stream_contract_on_random_streams(kind, seed):
    """Shadow-replaying the outcomes reproduces membership exactly; capacity
    bounds hold; evictions only name prior members; counters never fall.
    ~1200 insertions per archiver across seeds."""
    rng = np.random.default_rng(seed)
    archive = make_archive(kind)
    counters = Counters()
    shadow: dict[int, tuple] = {}
    stream = tradeoff_solutions(rng, 150) + random_solutions(rng, 150, start_id=150)
    for s in stream:
        before = (counters.dominance_comparisons, counters.cell_lookups)
        outcome, feedback = archive.try_insert(s, counters)
        used = counters.dominance_comparisons - before[0]
        assert used >= 0
        assert counters.cell_lookups >= before[1]  # counters only ever grow

        prior_ids = set(shadow)
        # departed holds prior members, plus at most the candidate itself
        # when it was admitted and truncated away in the same call
        departed_ids = [d.id for d in outcome.departed]
        assert set(departed_ids) <= prior_ids | {s.id}
        assert len(departed_ids) == len(set(departed_ids))
        if outcome.accepted:
            assert set(departed_ids) <= prior_ids
            for evicted in departed_ids:
                del shadow[evicted]
            shadow[s.id] = s.objectives.values
        else:
            assert departed_ids in ([], [s.id])

        members = archive.members()
        assert {m.id for m in members} == set(shadow)
        assert not {m.id for m in members} & set(departed_ids)
        assert feedback.archive_size == len(members)
        if kind in ("rn", "grid"):
            assert len(members) <= CAPACITY
        else:
            assert len(members) <= CAPACITY  # at most one incumbent per ray


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_finalize_subset_of_members_and_nondominated(kind):
    rng = np.random.default_rng(17)
    archive = make_archive(kind)
    counters = Counters()
    for s in tradeoff_solutions(rng, 200):
        archive.try_insert(s, counters)
    final_ids = {s.id for s in archive.finalize()}
    member_ids = {s.id for s in archive.members()}
    assert final_ids <= member_ids
