"""At M = 2 the rn and grid stores answer the sweep from their staircase, and
rn finds its closest pair among neighbouring stairs. Driven side by side with
the scalar compare() sweep and, for rn, the average-linkage pair scan, they
must agree after every insertion on the outcome, the order of the
departures, the member order and the counters. The streams are the ones a
staircase can get wrong: points sharing f1 or f2, duplicates and candidates
equal to a member, -0.0 beside 0.0, and points so close that their distances
round to 0 and tie far beyond neighbouring stairs, gaps a few ulps apart, and
insertions that remove a run of stairs. Once rn has overflowed, the
neighbour gaps its store keeps must also equal, bit for bit, the gaps
measured afresh from the staircase."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moealab import Counters, GridArchive, GridSpec, ObjectiveVector, RnArchive
from oracles import (
    OracleTruncateRn,
    ScalarSweepGrid,
    ScalarSweepRn,
    check_store_follows_members,
    sol,
)


class OracleRn(ScalarSweepRn, OracleTruncateRn):
    """RnArchive sweeping with scalar_sweep and truncating with
    cluster_truncate_oracle."""


UNIT_SPEC = GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 4)

ARCHIVES = {
    "rn": (RnArchive, OracleRn),
    "grid": (
        lambda capacity: GridArchive(capacity, UNIT_SPEC),
        lambda capacity: ScalarSweepGrid(capacity, UNIT_SPEC),
    ),
}


def near_diagonal(top):
    # integer points on or just above f1 + f2 = top: mostly mutually
    # nondominated, sharing f1 or f2, and some of them dominated
    return st.tuples(st.integers(0, top), st.integers(0, 2)).map(
        lambda p: (p[0], top - p[0] + p[1])
    )


def scaled(points, scale):
    return points.map(lambda p: (p[0] * scale, p[1] * scale))


@st.composite
def streams(draw, points):
    """Up to 60 points, each new or a repeat of an earlier one, with ids
    permuted against the order of arrival."""
    stream = []
    for _ in range(draw(st.integers(1, 60))):
        if stream and draw(st.integers(0, 4)) == 0:
            stream.append(draw(st.sampled_from(stream)))
        else:
            stream.append(draw(points))
    ids = draw(st.permutations(range(len(stream))))
    return list(zip(ids, stream))


def at_ulps(points, base):
    # integer multiples of the spacing of floats at base, added to base: the
    # gaps are sums of squares of a few ulps, so many of them tie
    ulp = math.ulp(base)
    return points.map(lambda p: (base + p[0] * ulp, base + p[1] * ulp))


def fronts(levels):
    # integer points on f1 + f2 = level for a few levels: a point of a lower
    # level dominates a run of the members of a higher one
    return st.sampled_from(levels).flatmap(
        lambda level: st.integers(0, level).map(lambda x: (x, level - x))
    )


STREAMS = {
    "lattice": streams(scaled(near_diagonal(8), 1.0)),
    "signed_zero": streams(
        st.tuples(*[st.sampled_from((-0.0, 0.0, 1.0, 2.0, 3.0))] * 2)
    ),
    # multiples of one tiny scale: at 5e-324 every distance rounds to 0, at
    # 1e-160 some do
    "close": st.sampled_from((5e-324, 1e-160, 1e-154)).flatmap(
        lambda scale: streams(scaled(near_diagonal(12), scale))
    ),
    # gaps that tie to the last bit, at two magnitudes
    "ulp_spaced": st.sampled_from((1.0, 2.0**40)).flatmap(
        lambda base: streams(at_ulps(near_diagonal(8), base))
    ),
    # insertions that remove a run of neighbouring stairs at once
    "dominated_run": streams(fronts((4, 8, 12))),
}


def check_against_oracle(kind, capacity, stream):
    make, make_oracle = ARCHIVES[kind]
    archive, oracle = make(capacity), make_oracle(capacity)
    counters, oracle_counters = Counters(), Counters()
    arrival = {}
    for order, (sid, values) in enumerate(stream):
        candidate = sol(sid, values)
        arrival[sid] = order
        got = archive.try_insert(candidate, counters)
        want = oracle.try_insert(candidate, oracle_counters)
        assert got == want
        assert [d.id for d in got[0].departed] == [d.id for d in want[0].departed]
        members = [m.id for m in archive.members()]
        assert members == [m.id for m in oracle.members()]
        # member order is the order of arrival
        assert [arrival[i] for i in members] == sorted(arrival[i] for i in members)
        assert counters == oracle_counters
        if kind == "grid":
            assert archive.spec == oracle.spec
            assert archive.cell_occupancy() == oracle.cell_occupancy()
        check_store_follows_members(archive)


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("kind", sorted(ARCHIVES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_staircase_store_matches_the_scalar_oracles(kind, stream, data):
    capacity = data.draw(st.integers(1, 12), label="capacity")
    check_against_oracle(kind, capacity, data.draw(STREAMS[stream], label="stream"))


def test_gaps_are_kept_from_the_first_overflow_on():
    archive = RnArchive(3)
    for i, values in enumerate([(0.0, 4.0), (4.0, 0.0), (1.0, 3.0)]):
        archive.try_insert(sol(i, values), Counters())
    # a store that has never truncated measures no gap
    assert archive._gaps is None
    archive.try_insert(sol(3, (3.0, 1.0)), Counters())
    # (0, 4)-(1, 3) and (3, 1)-(4, 0) tie; the pair of ids (0, 2) goes first
    assert [m.id for m in archive.members()] == [0, 1, 3]
    assert archive._gaps is not None
    check_store_follows_members(archive)
    # (2, 1) dominates (3, 1), whose gaps merge, then splits the merged gap
    archive.try_insert(sol(4, (2.0, 1.0)), Counters())
    assert [m.id for m in archive.members()] == [0, 1, 4]
    check_store_follows_members(archive)
    assert len(archive._gaps) == 2


def test_zero_distances_tie_beyond_neighbouring_stairs():
    # all pairwise distances round to 0, so the pair (0, 1) decides, though
    # ids 0 and 1 are not neighbours on the staircase
    tiny = math.ulp(0.0)
    stream = [(2, (0.0, 3 * tiny)), (0, (tiny, 2 * tiny)), (3, (2 * tiny, tiny)),
              (1, (3 * tiny, 0.0))]
    check_against_oracle("rn", 3, stream)
    archive = RnArchive(3)
    for sid, values in stream:
        outcome, _ = archive.try_insert(sol(sid, values), Counters())
    assert [d.id for d in outcome.departed] == [1]
