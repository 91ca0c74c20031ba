import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import moealab.archives.rn as rn_module
from moealab import (
    Counters,
    DimensionMismatchError,
    ObjectiveVector,
    RnArchive,
    Solution,
    deterioration_check,
    dominance_masks,
)
from oracles import (
    check_store_follows_members,
    cluster_truncate_oracle,
    members_values,
    oracle_pairwise_nondominating,
    random_solutions,
    sol,
    strength_fitness_oracle,
    tradeoff_solutions,
)


class TestRnInsert:
    def test_mutually_incomparable_accepted(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 3.0)), counters)
        archive.try_insert(sol(1, (3.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(2, (2.0, 2.0)), counters)
        assert outcome.accepted and not outcome.departed
        assert set(members_values(archive)) == {(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)}

    def test_dominated_candidate_rejected(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (2.0, 2.0)), counters)
        assert not outcome.accepted
        assert outcome.departed == ()
        assert members_values(archive) == [(1.0, 1.0)]

    def test_equal_candidate_rejected(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.0, 1.0)), counters)
        assert not outcome.accepted
        assert outcome.departed == ()

    def test_dominating_candidate_evicts_the_beaten_members(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (2.0, 2.0)), counters)
        archive.try_insert(sol(1, (5.0, 0.5)), counters)
        outcome, _ = archive.try_insert(sol(2, (1.0, 1.0)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]
        assert {m.id for m in archive.members()} == {1, 2}
        assert [m.objectives.values for m in outcome.departed] == [(2.0, 2.0)]

    def test_overflow_truncation_may_evict_the_candidate_itself(self):
        # candidate (1.9,2.1) merges with (2,2); the id tie-break keeps the
        # older member, so the net membership is unchanged and the outcome is
        # a rejection
        archive = RnArchive(3)
        counters = Counters()
        for s in [sol(0, (0.0, 4.0)), sol(1, (4.0, 0.0)), sol(2, (2.0, 2.0))]:
            archive.try_insert(s, counters)
        candidate = sol(3, (1.9, 2.1))
        outcome, _ = archive.try_insert(candidate, counters)
        assert not outcome.accepted
        assert set(members_values(archive)) == {(0.0, 4.0), (4.0, 0.0), (2.0, 2.0)}
        # the candidate was admitted and left again, so it is reported as
        # departed even though the net outcome is a rejection
        assert outcome.departed == (candidate,)
        assert outcome.departed[-1].objectives.values == (1.9, 2.1)

    def test_comparisons_counted_per_member_scanned(self):
        archive = RnArchive(10)
        counters = Counters()
        for i, values in enumerate([(1.0, 5.0), (2.0, 4.0), (3.0, 3.0)]):
            archive.try_insert(sol(i, values), counters)
        before = counters.dominance_comparisons
        archive.try_insert(sol(3, (0.5, 6.0)), counters)
        assert counters.dominance_comparisons - before == 3  # full scan, incomparable


class TestClusterTruncate:
    def test_no_eviction_at_or_below_target(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(0, (0.0, 1.0)), counters)
        archive.try_insert(sol(1, (1.0, 0.0)), counters)
        assert archive.cluster_truncate() == []
        assert len(archive.members()) == 2

    def test_closest_pair_merges_and_lower_id_represents(self):
        archive = RnArchive(3)
        counters = Counters()
        for s in [sol(0, (0.0, 4.0)), sol(1, (4.0, 0.0)), sol(5, (2.1, 1.9))]:
            archive.try_insert(s, counters)
        outcome, _ = archive.try_insert(sol(3, (2.0, 2.0)), counters)
        # the (2,2)/(2.1,1.9) pair is by far the closest; equal mean distances
        # inside the pair, so the lower id 3, the candidate, stays and the
        # older member with id 5 leaves
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [5]
        assert [m.id for m in archive.members()] == [0, 1, 3]

    def test_collinear_equidistant_ties_break_by_lowest_id_pair(self):
        archive = RnArchive(3)
        counters = Counters()
        stream = [sol(1, (0.0, 3.0)), sol(2, (1.0, 2.0)), sol(3, (2.0, 1.0))]
        for s in stream + [sol(0, (3.0, 0.0))]:
            outcome, _ = archive.try_insert(s, counters)
        # the neighbouring pairs, ids (1,2), (2,3) and (3,0), tie at distance
        # sqrt(2); ordered by (lower id, higher id), (0,3) comes first and its
        # higher id 3 leaves, although it is neither the first pair in member
        # order nor the first by (higher id, lower id)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [3]
        assert [m.id for m in archive.members()] == [1, 2, 0]


@st.composite
def simplex_points(draw, m):
    # positive rows scaled to sum 1: mutually nondominated up to rounding (the
    # archive drops any row that rounding left dominated)
    n = draw(st.integers(2, 14))
    rows = draw(
        st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return [tuple(x / sum(row) for x in row) for row in rows]


@st.composite
def lattice_points(draw, m):
    # distinct integer points with coordinates summing to a fixed total: on an
    # anti-diagonal, so mutually nondominated, with many exactly equal distances
    total = draw(st.integers(2, 6))
    grid = [
        p
        for p in np.ndindex(*([total + 1] * (m - 1)))
        if sum(p) <= total
    ]
    picked = draw(
        st.lists(st.sampled_from(grid), min_size=2, max_size=14, unique=True)
    )
    return [tuple(float(x) for x in (*p, total - sum(p))) for p in picked]


def check_truncate_against_oracle(points, data):
    # ids permuted against member order, so id tie-breaks differ from a
    # row-major scan
    ids = data.draw(st.permutations(range(len(points))))
    archive = RnArchive(len(points))
    for i, values in zip(ids, points):
        archive.try_insert(sol(i, values), Counters())
    members = archive.members()
    assume(len(members) >= 2)
    # one overflow: capacity n - 1
    archive.capacity = len(members) - 1
    departed = archive.cluster_truncate()
    want_departed, want_kept = cluster_truncate_oracle(members, archive.capacity)
    assert [m.id for m in departed] == want_departed
    assert [m.id for m in archive.members()] == want_kept
    check_store_follows_members(archive)


class TestClusterTruncateMatchesOracle:
    """The one removal against the average-linkage pair scan, at an overflow
    of one."""

    @pytest.mark.parametrize("m", [2, 3, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_nondominated_sets(self, m, data):
        check_truncate_against_oracle(data.draw(simplex_points(m)), data)

    @pytest.mark.parametrize("m", [2, 3])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_integer_lattices_with_tied_distances(self, m, data):
        check_truncate_against_oracle(data.draw(lattice_points(m)), data)


def oracle_by_position(members, population, counters=None):
    # the oracle keys by id; strength_fitness lists the population's fitness
    # in population order
    want = strength_fitness_oracle(members, population, counters)
    return [want[p.id] for p in population]


def checked_fitness(archive, population):
    """One strength_fitness call, held to the oracle bit for bit and to the
    n * P charge, whether it computed or reused its result."""
    # a nonzero start, so the charge must be added, not assigned
    counters = Counters()
    counters.dominance_comparisons = 7
    got = archive.strength_fitness(population, counters)
    want = oracle_by_position(archive.members(), population)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert counters.dominance_comparisons == 7 + len(archive) * len(population)
    return got


@contextlib.contextmanager
def computing_calls():
    """Counts the calls of strength_fitness that compute rather than reuse:
    those that walk the staircase at M = 2 or call dominance_masks at other M."""
    computing = mock.Mock()
    staircase = RnArchive._staircase_fitness

    def counted_masks(*args):
        computing()
        return dominance_masks(*args)

    def counted_staircase(self, population):
        computing()
        return staircase(self, population)

    with (
        mock.patch.object(rn_module, "dominance_masks", counted_masks),
        mock.patch.object(RnArchive, "_staircase_fitness", counted_staircase),
    ):
        yield computing


def reuse_fixture(m):
    """An archive and a population whose fitness values are all distinct."""
    archive = RnArchive(10)
    if m == 2:
        front = [(0.0, 4.0), (2.0, 2.0), (4.0, 0.0)]
        crowd = [(1.0, 4.0), (6.0, 6.0), (6.0, 0.0), (2.0, 0.0), (3.0, 6.0)]
    else:
        front = [(0.0, 4.0, 2.0), (2.0, 2.0, 2.0), (4.0, 0.0, 2.0)]
        crowd = [
            (5.0, 4.0, 6.0), (1.0, 4.0, 6.0), (4.0, 1.0, 3.0), (0.0, 3.0, 6.0),
            (2.0, 4.0, 4.0),
        ]
    for i, values in enumerate(front):
        archive.try_insert(sol(i, values), Counters())
    population = [sol(10 + k, values) for k, values in enumerate(crowd)]
    fitness = oracle_by_position(archive.members(), population)
    assert len(set(fitness)) == len(fitness)
    return archive, population


class TestStrengthFitness:
    def test_empty_archive_gives_unit_fitness(self):
        archive = RnArchive(5)
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        fitness = archive.strength_fitness(population)
        assert fitness == [1.0, 1.0]

    def test_single_dominating_member(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(9, (0.0, 0.0)), counters)
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        fitness = archive.strength_fitness(population)
        assert fitness[0] == pytest.approx(1.0 + 2.0 / 3.0)
        assert fitness[1] == pytest.approx(1.0 + 2.0 / 3.0)

    def test_nondominated_population_member_scores_exactly_one(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(9, (0.0, 5.0)), counters)
        archive.try_insert(sol(10, (5.0, 0.0)), counters)
        population = [sol(0, (1.0, 1.0)), sol(1, (6.0, 6.0))]
        fitness = archive.strength_fitness(population)
        assert fitness[0] == 1.0
        assert fitness[1] > 1.0

    def test_lower_fitness_is_better_ordering(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(9, (0.0, 1.0)), counters)
        archive.try_insert(sol(10, (1.0, 0.0)), counters)
        # dominated by member 9 only, by both members, and by neither
        population = [sol(0, (0.5, 1.5)), sol(1, (2.0, 2.0)), sol(2, (0.5, 0.5))]
        fitness = archive.strength_fitness(population)
        assert fitness[2] < fitness[0] < fitness[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_scalar_oracle_on_random_streams(self, seed):
        # lattice points as well as continuous ones, so ties and duplicates occur
        rng = np.random.default_rng(seed)
        archive = RnArchive(capacity=12)
        counters = Counters()
        for i in range(60):
            if seed % 2:
                values = tuple(float(x) for x in rng.integers(0, 5, size=3))
            else:
                values = tuple(float(x) for x in rng.random(2))
            archive.try_insert(sol(i, values), counters)
        for size in (0, 1, 7, 40):
            if seed % 2:
                population = [
                    sol(100 + k, tuple(float(x) for x in rng.integers(0, 5, size=3)))
                    for k in range(size)
                ]
            else:
                population = random_solutions(rng, size, start_id=100)
            # population members that are also archive members share their id
            population += archive.members()[: size // 4]
            got_counters, want_counters = Counters(), Counters()
            got = archive.strength_fitness(population, got_counters)
            want = oracle_by_position(archive.members(), population, want_counters)
            assert got == want
            assert got_counters.dominance_comparisons == want_counters.dominance_comparisons

    def test_empty_archive_and_population_match_oracle(self):
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        empty = RnArchive(5)
        for pop in (population, []):
            got_counters, want_counters = Counters(), Counters()
            assert empty.strength_fitness(pop, got_counters) == oracle_by_position(
                [], pop, want_counters
            )
            assert got_counters.dominance_comparisons == want_counters.dominance_comparisons == 0
        archive = RnArchive(5)
        archive.try_insert(sol(9, (0.0, 3.0)), Counters())
        archive.try_insert(sol(10, (3.0, 0.0)), Counters())
        got_counters, want_counters = Counters(), Counters()
        assert archive.strength_fitness([], got_counters) == oracle_by_position(
            archive.members(), [], want_counters
        )
        assert got_counters.dominance_comparisons == want_counters.dominance_comparisons == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_staircase_matches_the_oracle_bit_for_bit(self, data):
        # lattice coordinates with both zeros, so stairs tie with population
        # members, long runs of stairs dominate one point, and member order
        # (arrival, then truncation) differs from stair order
        coordinate = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        point = st.tuples(coordinate, coordinate)
        archive = RnArchive(data.draw(st.integers(2, 8), label="capacity"))
        arrivals = data.draw(st.lists(point, min_size=1, max_size=20), label="arrivals")
        for i, values in enumerate(arrivals):
            archive.try_insert(sol(i, values), Counters())
        assert archive._bi_objective
        members = archive.members()
        population = []
        for k in range(data.draw(st.integers(1, 12), label="population size")):
            source = data.draw(st.sampled_from(["point", "member", "copy"]))
            if source == "point":
                population.append(sol(100 + k, data.draw(point)))
                continue
            member = data.draw(st.sampled_from(members))
            if source == "copy":
                member = sol(200 + k, member.objectives.values)
            population.append(member)
        checked_fitness(archive, population)

    def test_dominators_are_added_in_member_order_not_stair_order(self):
        # members arrive as (0, 3), (2, 1), (1, 2); the stairs run (0, 3),
        # (1, 2), (2, 1). Of the population, (2, 2) is strictly dominated by
        # (2, 1), of strength 2/3 (it also weakly dominates its copy), and by
        # (1, 2), of strength 1/3
        archive = RnArchive(5)
        for i, values in enumerate([(0.0, 3.0), (2.0, 1.0), (1.0, 2.0)]):
            archive.try_insert(sol(i, values), Counters())
        population = [sol(10, (2.0, 1.0)), sol(11, (2.0, 2.0))]
        member_order = 1.0 + 2 / 3 + 1 / 3
        stair_order = 1.0 + 1 / 3 + 2 / 3
        assert member_order.hex() != stair_order.hex()
        fitness = checked_fitness(archive, population)
        assert [x.hex() for x in fitness] == [(1.0).hex(), member_order.hex()]

    @pytest.mark.parametrize("m, other", [(2, 3), (3, 2)])
    def test_a_population_member_of_another_dimension_raises(self, m, other):
        archive, _ = reuse_fixture(m)
        with pytest.raises(DimensionMismatchError):
            archive.strength_fitness([sol(99, (1.0,) * other)])

    def test_a_population_mixing_dimensions_raises_the_mismatch(self):
        # one member of another length among the right ones is refused by
        # the length check, not by numpy's array of mixed rows
        archive, population = reuse_fixture(3)
        with pytest.raises(DimensionMismatchError):
            archive.strength_fitness(population + [sol(99, (1.0, 1.0))])

    def test_bi_objective_fitness_builds_no_array(self):
        archive, population = reuse_fixture(2)
        # any attribute read of the module's numpy, or a masks call, raises
        with (
            mock.patch.object(rn_module, "np", mock.NonCallableMock(spec=[])),
            mock.patch.object(rn_module, "dominance_masks", None),
        ):
            checked_fitness(archive, population)

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_returned_list_written_as_step_writes_it_leaves_the_next_call_exact(
        self, m
    ):
        archive, population = reuse_fixture(m)
        with computing_calls() as computing:
            fitness = checked_fitness(archive, population)
            # step sets an entrant's slot to the floor in the list it got
            assert fitness[0] > 1.0
            fitness[0] = 1.0
            checked_fitness(archive, population)
            assert computing.call_count == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_the_same_solutions_in_another_order(self, m):
        archive, population = reuse_fixture(m)
        with computing_calls() as computing:
            checked_fitness(archive, population)
            checked_fitness(archive, population[::-1])
            assert computing.call_count == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_slot_replaced_by_an_equal_copy_is_a_new_population(self, m):
        archive, population = reuse_fixture(m)
        with computing_calls() as computing:
            checked_fitness(archive, population)
            old = population[2]
            population[2] = Solution(
                old.id, old.genome, ObjectiveVector(old.objectives.values)
            )
            checked_fitness(archive, population)
            assert computing.call_count == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_rejected_insertion_then_an_accepted_one(self, m):
        archive, population = reuse_fixture(m)
        with computing_calls() as computing:
            before = checked_fitness(archive, population)
            outcome, _ = archive.try_insert(sol(20, (6.0,) * m), Counters())
            assert not outcome.accepted
            checked_fitness(archive, population)
            assert computing.call_count == 1
            outcome, _ = archive.try_insert(sol(21, (1.0,) * m), Counters())
            assert outcome.accepted
            # the entrant changes some fitness, so a stale result would show
            assert checked_fitness(archive, population) != before
            assert computing.call_count == 2

    @pytest.mark.parametrize("m", [2, 3])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interleaved_changes_match_the_oracle_on_every_call(self, m, data):
        # lattice points, so insertions are accepted, rejected and truncating,
        # and population members tie with one another and with the archive
        point = st.tuples(*[st.integers(0, 4).map(float)] * m)
        archive = RnArchive(data.draw(st.integers(1, 4), label="capacity"))
        ids = itertools.count()
        population = [
            sol(next(ids), values)
            for values in data.draw(st.lists(point, min_size=1, max_size=6))
        ]
        ops = st.sampled_from(["insert", "replace", "adopt", "copy", "swap", "none"])
        # each step makes at most one change, then calls strength_fitness,
        # writes into the list as step does, and calls it again unchanged
        for _ in range(data.draw(st.integers(1, 20), label="steps")):
            op = data.draw(ops)
            slot = data.draw(st.integers(0, len(population) - 1))
            if op == "insert":
                archive.try_insert(sol(next(ids), data.draw(point)), Counters())
            elif op == "replace":
                population[slot] = sol(next(ids), data.draw(point))
            elif op == "adopt" and len(archive):
                population[slot] = data.draw(st.sampled_from(archive.members()))
            elif op == "copy":
                old = population[slot]
                population[slot] = Solution(
                    old.id, old.genome, ObjectiveVector(old.objectives.values)
                )
            elif op == "swap":
                other = data.draw(st.integers(0, len(population) - 1))
                population[slot], population[other] = population[other], population[slot]
            with computing_calls() as computing:
                fitness = checked_fitness(archive, population)
                fitness[slot] = 1.0
                checked_fitness(archive, population)
            # the second call's inputs are the first's, so it computes nothing
            assert computing.call_count <= 1


class TestRnInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_members_pairwise_nondominated_after_every_insert(self, seed):
        rng = np.random.default_rng(seed)
        archive = RnArchive(25)
        counters = Counters()
        stream = tradeoff_solutions(rng, 250) + random_solutions(rng, 250, start_id=250)
        for s in stream:
            archive.try_insert(s, counters)
            values = members_values(archive)
            assert len(values) <= 25
            assert oracle_pairwise_nondominating(values)

    def test_deterioration_witness_stream(self):
        archive = RnArchive(3)
        counters = Counters()
        stream = [
            sol(0, (0.0, 10.0)),
            sol(1, (1.0, 9.5)),
            sol(2, (5.0, 5.0)),
            sol(3, (5.4, 4.6)),   # truncated away on arrival
            sol(4, (7.0, 4.65)),  # dominated by the truncated point, retained
        ]
        evicted = []
        for s in stream:
            outcome, _ = archive.try_insert(s, counters)
            evicted += outcome.departed
        assert (7.0, 4.65) in members_values(archive)
        assert (5.4, 4.6) in [m.objectives.values for m in evicted]
        assert deterioration_check(evicted, archive.members()) >= 1
