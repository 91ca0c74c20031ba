import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moealab import (
    Counters,
    DimensionMismatchError,
    DominanceRelation,
    ObjectiveVector,
    Solution,
    compare,
    deterioration_check,
    dominance_masks,
    dominates,
    nondominated_filter,
    weak_relations,
)
from moealab.core import first_dominated
from oracles import (
    oracle_front_indices,
    oracle_front_values,
    oracle_pairwise_nondominating,
    sol,
)


def vec(*values):
    return ObjectiveVector(values)


class TestObjectiveVector:
    def test_requires_two_objectives(self):
        with pytest.raises(ValueError):
            ObjectiveVector((1.0,))

    def test_requires_finite_values(self):
        with pytest.raises(ValueError):
            ObjectiveVector((1.0, float("nan")))
        with pytest.raises(ValueError):
            ObjectiveVector((float("inf"), 0.0))

    def test_value_equality_and_hash(self):
        assert vec(1, 2) == vec(1.0, 2.0)
        assert hash(vec(1, 2)) == hash(vec(1.0, 2.0))
        assert vec(1, 2) != vec(2, 1)

    def test_immutable(self):
        v = vec(1, 2)
        with pytest.raises(AttributeError):
            v.values = (3.0, 4.0)


class TestCompare:
    def test_strict_improvement_everywhere(self):
        assert compare(vec(1, 2), vec(2, 3)) is DominanceRelation.DOMINATES

    def test_symmetric_tradeoff(self):
        assert compare(vec(1, 2), vec(2, 1)) is DominanceRelation.INCOMPARABLE

    def test_weak_in_one_strict_in_other(self):
        assert compare(vec(1, 3), vec(1, 4)) is DominanceRelation.DOMINATES

    def test_equal(self):
        assert compare(vec(1, 2), vec(1, 2)) is DominanceRelation.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compare(vec(1, 2), vec(1, 2, 3))

    def test_counts_one_comparison(self):
        counters = Counters()
        compare(vec(1, 2), vec(2, 1), counters)
        compare(vec(1, 2), vec(2, 3), counters)
        assert counters.dominance_comparisons == 2

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_antisymmetry_and_reflexivity(self, seed):
        rng = np.random.default_rng(seed)
        a = ObjectiveVector(rng.integers(0, 6, size=3).astype(float))
        b = ObjectiveVector(rng.integers(0, 6, size=3).astype(float))
        assert compare(a, a) is DominanceRelation.EQUAL
        ab, ba = compare(a, b), compare(b, a)
        flipped = {
            DominanceRelation.DOMINATES: DominanceRelation.DOMINATED_BY,
            DominanceRelation.DOMINATED_BY: DominanceRelation.DOMINATES,
            DominanceRelation.EQUAL: DominanceRelation.EQUAL,
            DominanceRelation.INCOMPARABLE: DominanceRelation.INCOMPARABLE,
        }
        assert ba is flipped[ab]

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_transitivity_on_constructed_chains(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        a = rng.random(m)
        d1 = rng.random(m) * (rng.random(m) < 0.7)
        d2 = rng.random(m) * (rng.random(m) < 0.7)
        d1[int(rng.integers(m))] += 0.1  # ensure strictness
        d2[int(rng.integers(m))] += 0.1
        b = a + d1
        c = b + d2
        va, vb, vc = ObjectiveVector(a), ObjectiveVector(b), ObjectiveVector(c)
        assert compare(va, vb) is DominanceRelation.DOMINATES
        assert compare(vb, vc) is DominanceRelation.DOMINATES
        assert compare(va, vc) is DominanceRelation.DOMINATES


class TestNondominatedFilter:
    def test_known_set(self):
        values = [(1, 3), (2, 2), (3, 1), (2, 3)]
        expected = oracle_front_values([tuple(map(float, v)) for v in values])
        assert expected == {(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)}
        solutions = [sol(i, tuple(map(float, v))) for i, v in enumerate(values)]
        got = {s.objectives.values for s in nondominated_filter(solutions)}
        assert got == expected

    def test_singleton(self):
        s = sol(0, (5.0, 5.0))
        assert nondominated_filter([s]) == [s]

    def test_empty(self):
        assert nondominated_filter([]) == []

    def test_equal_duplicates_both_retained(self):
        a, b = sol(0, (0.0, 0.0)), sol(1, (0.0, 0.0))
        kept = nondominated_filter([a, b])
        assert set(kept) == {a, b}

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 64))
    def test_matches_oracle_and_is_idempotent(self, seed, count):
        rng = np.random.default_rng(seed)
        # integer-ish coordinates so dominance and equality both occur
        values = [
            tuple(float(x) for x in rng.integers(0, 10, size=2))
            for _ in range(count)
        ]
        solutions = [sol(i, v) for i, v in enumerate(values)]
        kept = nondominated_filter(solutions)
        assert {s.objectives.values for s in kept} == oracle_front_values(values)
        assert oracle_pairwise_nondominating([s.objectives.values for s in kept])
        again = nondominated_filter(kept)
        assert [s.id for s in again] == [s.id for s in kept]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(2, 4))
    def test_keeps_the_oracle_front_in_input_order(self, seed, count, m):
        rng = np.random.default_rng(seed)
        # few distinct coordinates, so equal points occur and both copies stay
        values = [
            tuple(float(x) for x in rng.integers(0, 4, size=m)) for _ in range(count)
        ]
        solutions = [sol(i, v) for i, v in enumerate(values)]
        kept = nondominated_filter(solutions)
        assert [s.id for s in kept] == oracle_front_indices(values)

    def test_membership_is_order_independent(self):
        rng = np.random.default_rng(11)
        values = [tuple(float(x) for x in rng.integers(0, 8, size=2)) for _ in range(40)]
        solutions = [sol(i, v) for i, v in enumerate(values)]
        forward = {s.id for s in nondominated_filter(solutions)}
        backward = {s.id for s in nondominated_filter(list(reversed(solutions)))}
        assert forward == backward


def lattice_rows(m: int, max_rows: int = 6):
    # small integer coordinates, so ties and duplicate rows are common
    return st.lists(
        st.tuples(*[st.integers(0, 3)] * m), min_size=0, max_size=max_rows
    )


class TestDominanceMasks:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_compare(self, m, data):
        a_rows = data.draw(lattice_rows(m))
        b_rows = data.draw(lattice_rows(m))
        a = np.array(a_rows, dtype=float).reshape(len(a_rows), m)
        b = np.array(b_rows, dtype=float).reshape(len(b_rows), m)
        weak, strict = dominance_masks(a, b)
        assert weak.shape == strict.shape == (len(a_rows), len(b_rows))
        for i, x in enumerate(a_rows):
            for j, y in enumerate(b_rows):
                rel = compare(vec(*x), vec(*y))
                assert weak[i, j] == (
                    rel is DominanceRelation.DOMINATES or rel is DominanceRelation.EQUAL
                )
                assert strict[i, j] == (rel is DominanceRelation.DOMINATES)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_empty_side(self, m):
        rows = np.arange(3 * m, dtype=float).reshape(3, m)
        empty = np.empty((0, m))
        for a, b, shape in ((empty, rows, (0, 3)), (rows, empty, (3, 0)), (empty, empty, (0, 0))):
            weak, strict = dominance_masks(a, b)
            assert weak.shape == strict.shape == shape

    def test_mismatched_dimension_raises(self):
        with pytest.raises(DimensionMismatchError):
            dominance_masks(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            dominance_masks(np.zeros((0, 2)), np.zeros((1, 5)))


class TestWeakRelations:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_compare(self, m, data):
        rows = data.draw(lattice_rows(m))
        point = data.draw(st.tuples(*[st.integers(0, 3)] * m))
        v = tuple(float(x) for x in point)
        below, above = weak_relations(
            np.array(rows, dtype=float).reshape(len(rows), m), v
        )
        assert below.shape == above.shape == (len(rows),)
        for i, row in enumerate(rows):
            rel = compare(vec(*row), vec(*v))
            assert below[i] == (
                rel is DominanceRelation.DOMINATES or rel is DominanceRelation.EQUAL
            )
            assert above[i] == (
                rel is DominanceRelation.DOMINATED_BY or rel is DominanceRelation.EQUAL
            )
            # the two masks tell all four relations apart
            assert (below[i] and not above[i]) == (rel is DominanceRelation.DOMINATES)
            assert (above[i] and not below[i]) == (rel is DominanceRelation.DOMINATED_BY)
            assert (below[i] and above[i]) == (rel is DominanceRelation.EQUAL)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_empty_rows(self, m):
        below, above = weak_relations(np.empty((0, m)), (1.0,) * m)
        assert below.shape == above.shape == (0,)

    def test_mismatched_dimension_raises(self):
        with pytest.raises(DimensionMismatchError):
            weak_relations(np.zeros((2, 3)), (0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            weak_relations(np.zeros((2, 2)), (0.0, 0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            weak_relations(np.empty((0, 2)), (0.0, 0.0, 0.0, 0.0, 0.0))


def scan_with_dominates(a, solutions, counters):
    """The member-order loop first_dominated replaces: one dominates() call
    per member up to the first hit."""
    for i, s in enumerate(solutions):
        if dominates(a, s.objectives, counters):
            return i
    return None


# lattice values with both signed zeros, which compare equal: rows tie often
# and repeat, and a -0.0 against a 0.0 is a tie, not a strict improvement
SIGNED_LATTICE = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0])


class TestFirstDominated:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_dominates_loop(self, m, data):
        # the point may dominate none of the rows
        row = st.tuples(*[SIGNED_LATTICE] * m)
        rows = data.draw(st.lists(row, max_size=12))
        point = vec(*data.draw(row))
        solutions = [sol(i, r) for i, r in enumerate(rows)]
        start = data.draw(st.integers(0, 5))
        counters, oracle_counters = Counters(start), Counters(start)
        index = first_dominated(point, solutions, counters)
        assert index == scan_with_dominates(point, solutions, oracle_counters)
        assert counters == oracle_counters
        assert first_dominated(point, solutions) == index

    def test_no_hit_charges_every_member(self):
        solutions = [sol(0, (1.0, 1.0)), sol(1, (1.0, 1.0)), sol(2, (0.0, 3.0))]
        counters = Counters()
        assert first_dominated(vec(1.0, 1.0), solutions, counters) is None
        assert counters.dominance_comparisons == 3
        assert first_dominated(vec(1.0, 1.0), [], counters) is None
        assert counters.dominance_comparisons == 3

    def test_first_of_equal_hits_wins(self):
        solutions = [sol(0, (0.0, 0.0)), sol(1, (2.0, 2.0)), sol(2, (2.0, 2.0))]
        counters = Counters()
        assert first_dominated(vec(1.0, 1.0), solutions, counters) == 1
        assert counters.dominance_comparisons == 2

    def test_three_objectives_tie_break_on_the_third(self):
        # every member passes on f1 and f2; only the third objective decides
        point = vec(1.0, 1.0, 1.0)
        beaten_only_on_two = [sol(0, (1.0, 2.0, 0.0)), sol(1, (2.0, 1.0, 0.5))]
        counters = Counters()
        assert first_dominated(point, beaten_only_on_two, counters) is None
        assert counters.dominance_comparisons == 2
        hit = beaten_only_on_two + [sol(2, (1.0, 1.0, 2.0)), sol(3, (2.0, 2.0, 2.0))]
        assert first_dominated(point, hit, counters) == 2
        assert counters.dominance_comparisons == 5
        mismatch = beaten_only_on_two + [sol(2, (2.0, 2.0))]
        with pytest.raises(DimensionMismatchError, match="dimension mismatch: 3 vs 2"):
            first_dominated(point, mismatch, counters)
        assert counters.dominance_comparisons == 7

    def test_mismatched_dimension_raises_after_charging_the_members_before_it(self):
        solutions = [sol(0, (0.0, 0.0)), sol(1, (0.0, 0.0, 0.0)), sol(2, (2.0, 2.0))]
        counters = Counters()
        with pytest.raises(DimensionMismatchError):
            first_dominated(vec(1.0, 1.0), solutions, counters)
        assert counters.dominance_comparisons == 1


class TestDeteriorationCheck:
    def test_empty_history(self):
        assert deterioration_check([], [sol(0, (1.0, 1.0))]) == 0

    def test_single_event(self):
        history = [sol(0, (1.0, 1.0))]
        current = [sol(1, (2.0, 2.0))]
        assert deterioration_check(history, current) == 1

    def test_equal_is_not_deterioration(self):
        history = [sol(0, (1.0, 1.0))]
        current = [sol(1, (1.0, 1.0))]
        assert deterioration_check(history, current) == 0

    def test_counts_members_not_events(self):
        history = [sol(0, (0.0, 0.0)), sol(1, (1.0, 1.0))]
        current = [sol(2, (2.0, 2.0)), sol(3, (0.5, 3.0)), sol(4, (-1.0, 0.5))]
        # (2,2) dominated by both, (0.5,3) by (0,0), (-1,0.5) by nothing
        assert deterioration_check(history, current) == 2


class TestSolution:
    def test_identity_semantics(self):
        a = sol(0, (1.0, 2.0))
        b = sol(1, (1.0, 2.0))
        assert a != b
        assert len({a, b}) == 2

    def test_evaluated_flag(self):
        s = Solution(0, (0.5,))
        assert not s.evaluated
        s.objectives = ObjectiveVector((1.0, 2.0))
        assert s.evaluated
