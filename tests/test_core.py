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
    nondominated_filter,
)
from oracles import oracle_front_values, oracle_pairwise_nondominating, sol


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
