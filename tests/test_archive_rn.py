import numpy as np
import pytest

from moealab import (
    Counters,
    InsertStatus,
    RnArchive,
    deterioration_check,
)
from oracles import (
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
        assert outcome.status is InsertStatus.ACCEPTED_NEW
        assert set(members_values(archive)) == {(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)}

    def test_dominated_candidate_rejected(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (2.0, 2.0)), counters)
        assert outcome.status is InsertStatus.REJECTED
        assert members_values(archive) == [(1.0, 1.0)]

    def test_equal_candidate_rejected(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.0, 1.0)), counters)
        assert outcome.status is InsertStatus.REJECTED

    def test_dominating_candidate_evicts_the_beaten_members(self):
        archive = RnArchive(10)
        counters = Counters()
        archive.try_insert(sol(0, (2.0, 2.0)), counters)
        archive.try_insert(sol(1, (5.0, 0.5)), counters)
        outcome, _ = archive.try_insert(sol(2, (1.0, 1.0)), counters)
        assert outcome.status is InsertStatus.ACCEPTED_REPLACING
        assert outcome.evicted_ids == (0,)
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
        assert outcome.status is InsertStatus.REJECTED
        assert outcome.evicted_ids == ()
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
        outcome, _ = archive.try_insert(sol(3, (0.5, 6.0)), counters)
        assert outcome.dominance_comparisons_used == 3  # full scan, incomparable
        assert counters.dominance_comparisons - before == 3


class TestClusterTruncate:
    def test_no_eviction_at_or_below_target(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(0, (0.0, 1.0)), counters)
        archive.try_insert(sol(1, (1.0, 0.0)), counters)
        assert archive.cluster_truncate(2) == []
        assert len(archive.members()) == 2

    def test_closest_pair_merges_and_lower_id_represents(self):
        archive = RnArchive(10)
        counters = Counters()
        points = [(0.0, 4.0), (4.0, 0.0), (2.0, 2.0), (2.1, 1.9)]
        for i, values in enumerate(points):
            archive.try_insert(sol(i, values), counters)
        evicted = archive.cluster_truncate(3)
        # the (2,2)/(2.1,1.9) pair is by far the closest; equal mean distances
        # inside the pair, so the lower id (2,2) stays
        assert [m.objectives.values for m in evicted] == [(2.1, 1.9)]
        assert set(members_values(archive)) == {(0.0, 4.0), (4.0, 0.0), (2.0, 2.0)}

    def test_collinear_equidistant_ties_break_by_lowest_id_pair(self):
        archive = RnArchive(10)
        counters = Counters()
        for i, values in enumerate([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]):
            archive.try_insert(sol(i, values), counters)
        evicted = archive.cluster_truncate(2)
        # pairs (0,1) and (1,2) tie at distance sqrt(2); the lowest-id pair
        # (0,1) merges first and keeps id 0
        assert [m.id for m in evicted] == [1]
        assert set(members_values(archive)) == {(0.0, 2.0), (2.0, 0.0)}

    def test_multi_merge_keeps_the_cluster_medoid(self):
        archive = RnArchive(10)
        counters = Counters()
        points = [(0.0, 10.0), (0.2, 9.9), (0.4, 9.8), (10.0, 0.0)]
        for i, values in enumerate(points):
            archive.try_insert(sol(i, values), counters)
        evicted = archive.cluster_truncate(2)
        # the three left points agglomerate; the middle one has the smallest
        # mean distance to its mates
        assert {m.id for m in evicted} == {0, 2}
        assert set(members_values(archive)) == {(0.2, 9.9), (10.0, 0.0)}


class TestStrengthFitness:
    def test_empty_archive_gives_unit_fitness(self):
        archive = RnArchive(5)
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        fitness = archive.strength_fitness(population)
        assert fitness == {0: 1.0, 1: 1.0}

    def test_single_dominating_member(self):
        archive = RnArchive(5)
        counters = Counters()
        archive.try_insert(sol(9, (0.0, 0.0)), counters)
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        fitness = archive.strength_fitness(population)
        assert fitness[9] == pytest.approx(2.0 / 3.0)
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
        archive.try_insert(sol(9, (0.0, 0.0)), counters)
        population = [sol(0, (0.5, 0.5)), sol(1, (9.0, 9.0))]
        fitness = archive.strength_fitness(population)
        # the archive member beats every population member
        assert fitness[9] < fitness[0]

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
            want = strength_fitness_oracle(archive.members(), population, want_counters)
            assert got == want
            assert got_counters.dominance_comparisons == want_counters.dominance_comparisons

    def test_empty_archive_and_population_match_oracle(self):
        population = [sol(0, (1.0, 1.0)), sol(1, (2.0, 2.0))]
        empty = RnArchive(5)
        for pop in (population, []):
            got_counters, want_counters = Counters(), Counters()
            assert empty.strength_fitness(pop, got_counters) == strength_fitness_oracle(
                [], pop, want_counters
            )
            assert got_counters.dominance_comparisons == want_counters.dominance_comparisons == 0
        archive = RnArchive(5)
        archive.try_insert(sol(9, (0.0, 3.0)), Counters())
        archive.try_insert(sol(10, (3.0, 0.0)), Counters())
        got_counters, want_counters = Counters(), Counters()
        assert archive.strength_fitness([], got_counters) == strength_fitness_oracle(
            archive.members(), [], want_counters
        )
        assert got_counters.dominance_comparisons == want_counters.dominance_comparisons == 0


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
