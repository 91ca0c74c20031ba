import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moealab import (
    Counters,
    DimensionMismatchError,
    GridArchive,
    GridSpec,
    ObjectiveVector,
    OutOfBoundsError,
    cell_of,
    complexity_sweep,
)
from oracles import (
    cell_of_oracle,
    members_values,
    oracle_pairwise_nondominating,
    random_solutions,
    sol,
)


def unit_spec(divisions=4):
    return GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), divisions)


def occupancy_rebuilt_from_scratch(archive):
    expected: dict[tuple[int, ...], list[int]] = {}
    for m in archive.members():
        cell = cell_of(m.objectives, archive.spec)
        expected.setdefault(cell, []).append(m.id)
    return {cell: tuple(sorted(ids)) for cell, ids in expected.items()}


def occupancy_sorted(archive):
    return {cell: tuple(sorted(ids)) for cell, ids in archive.cell_occupancy().items()}


class TestGridSpec:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            GridSpec(ObjectiveVector((0.0, 1.0)), ObjectiveVector((1.0, 1.0)), 4)

    def test_divisions_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 0)


class TestGridArchiveInit:
    @pytest.mark.parametrize("inflation", [math.nan, math.inf, -math.inf, -0.5])
    def test_inflation_must_be_finite_and_non_negative(self, inflation):
        with pytest.raises(ValueError) as excinfo:
            GridArchive(10, unit_spec(), inflation)
        assert str(excinfo.value) == f"inflation must be finite and >= 0, got {inflation}"

    @pytest.mark.parametrize("inflation", [0.0, 5e-324, 1e300])
    def test_finite_non_negative_inflation_is_kept(self, inflation):
        assert GridArchive(10, unit_spec(), inflation).inflation == inflation


class TestCellOf:
    def test_interior_point(self):
        assert cell_of(ObjectiveVector((0.3, 0.7)), unit_spec()) == (1, 2)

    def test_upper_corner_clamps_into_last_cell(self):
        assert cell_of(ObjectiveVector((1.0, 1.0)), unit_spec()) == (3, 3)

    def test_lower_corner(self):
        assert cell_of(ObjectiveVector((0.0, 0.0)), unit_spec()) == (0, 0)

    def test_out_of_bounds_signals(self):
        with pytest.raises(OutOfBoundsError):
            cell_of(ObjectiveVector((1.5, 0.5)), unit_spec())

    @pytest.mark.parametrize("values", [(0.5, 0.5, 9.0), (1.5, 0.5, 0.5)])
    def test_wrong_dimension_signals_uncharged(self, values):
        # zip would bin the leading components, in bounds or not
        counters = Counters()
        with pytest.raises(DimensionMismatchError):
            cell_of(ObjectiveVector(values), unit_spec(), counters)
        assert counters.cell_lookups == 0

    def test_counts_lookups_not_comparisons(self):
        counters = Counters()
        cell_of(ObjectiveVector((0.3, 0.7)), unit_spec(), counters)
        assert counters.cell_lookups == 1
        assert counters.dominance_comparisons == 0

    def test_cost_independent_of_archive_size(self):
        # the lookup itself never touches members: one counter tick whatever
        # the archive holds
        archive = GridArchive(100, unit_spec(8))
        counters = Counters()
        for s in random_solutions(np.random.default_rng(0), 60):
            archive.try_insert(s, counters)
        probe = Counters()
        cell_of(ObjectiveVector((0.5, 0.5)), archive.spec, probe)
        assert probe.cell_lookups == 1
        assert probe.dominance_comparisons == 0


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def cell_cases(draw):
    """A vector and a spec with M = 2-4 and random bounds: each component
    lies inside, on the lower or the upper bound, or anywhere (often
    outside); one case in eight has one component more or fewer."""
    m = draw(st.integers(2, 4))
    lower, upper = [], []
    for _ in range(m):
        a, b = draw(finite), draw(finite)
        assume(a != b)
        lower.append(min(a, b))
        upper.append(max(a, b))
    values = []
    for lo, hi in zip(lower, upper):
        kind = draw(st.sampled_from(("inside", "lower", "upper", "any")))
        if kind == "inside":
            values.append(draw(st.floats(lo, hi)))
        elif kind == "lower":
            values.append(lo)
        elif kind == "upper":
            values.append(hi)
        else:
            values.append(draw(finite))
    if draw(st.integers(0, 7)) == 0:
        values = values[:-1] if m > 2 and draw(st.booleans()) else values + [0.0]
    d = draw(st.integers(1, 4096))
    spec = GridSpec(ObjectiveVector(lower), ObjectiveVector(upper), d)
    return ObjectiveVector(values), spec


def unit_case(values, divisions=4):
    return ObjectiveVector(values), unit_spec(divisions)


class TestCellOfMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(cell_cases())
    @example(unit_case((1.0, 1.0), 1))
    @example(unit_case((0.0, 1.0), 4096))
    @example(unit_case((1.0 - 2**-53, 0.5), 4096))
    @example(unit_case((1.5, 0.5, 0.5)))
    @example(unit_case((0.5, -0.0)))
    def test_coords_errors_and_charge_match_the_formula(self, case):
        v, spec = case
        counters = Counters()
        try:
            coords = cell_of_oracle(v, spec)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                cell_of(v, spec, counters)
            assert type(raised.value) is type(exc)
            assert counters.cell_lookups == 0
            return
        index = cell_of(v, spec, counters)
        assert index == coords
        assert type(index) is tuple
        assert counters.cell_lookups == 1


class TestAdaptBounds:
    def test_envelope_covers_escaping_point(self):
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        new_spec = archive.adapt_bounds(ObjectiveVector((1.5, 0.5)), counters)
        assert new_spec.upper[0] >= 1.5
        assert new_spec.lower[0] <= 0.5
        assert occupancy_sorted(archive) == occupancy_rebuilt_from_scratch(archive)

    def test_inside_bounds_is_a_noop(self):
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        spec_before = archive.spec
        assert archive.adapt_bounds(ObjectiveVector((0.9, 0.1)), counters) is spec_before

    def test_two_successive_escapes_cover_both_points(self):
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        first = ObjectiveVector((1.5, 0.4))
        archive.try_insert(sol(1, first), counters)
        second = ObjectiveVector((0.4, 2.0))
        archive.try_insert(sol(2, second), counters)
        spec = archive.spec
        for point in (first, second):
            assert spec.contains(point)
        assert occupancy_sorted(archive) == occupancy_rebuilt_from_scratch(archive)

    @pytest.mark.parametrize("values", [(0.5, 0.5, 9.0), (2.0, 0.5, 9.0)])
    def test_wrong_dimension_raises_and_keeps_the_spec(self, values):
        # one vector inside the 2-objective bounds on its leading components,
        # one outside them
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        spec_before, lookups = archive.spec, counters.cell_lookups
        with pytest.raises(DimensionMismatchError):
            archive.adapt_bounds(ObjectiveVector(values), counters)
        assert archive.spec is spec_before
        assert counters.cell_lookups == lookups
        assert occupancy_sorted(archive) == {(2, 2): (0,)}

    def test_degenerate_envelope_still_produces_valid_bounds(self):
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        spec = archive.adapt_bounds(ObjectiveVector((3.0, 3.0)), counters)
        assert all(lo < hi for lo, hi in zip(spec.lower, spec.upper))


class TestGridInsert:
    def test_empty_archive_accepts_into_its_cell(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        outcome, _ = archive.try_insert(sol(0, (0.3, 0.7)), counters)
        assert outcome.accepted and not outcome.departed
        assert occupancy_sorted(archive) == {(1, 2): (0,)}

    def test_crowded_cell_member_displaced_by_lonely_candidate(self):
        # both members share cell (0,3); the candidate lands in empty (3,0),
        # so the lowest id leaves the crowded cell
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.11, 0.89)), counters)
        outcome, _ = archive.try_insert(sol(2, (0.9, 0.1)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]
        assert set(members_values(archive)) == {(0.11, 0.89), (0.9, 0.1)}

    def test_candidate_into_equally_crowded_cell_rejected(self):
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.9, 0.1)), counters)
        # the candidate lands in id 0's cell, which is already as crowded as
        # the most crowded cell, so nothing is displaced
        outcome, _ = archive.try_insert(sol(2, (0.15, 0.85)), counters)
        assert not outcome.accepted
        assert outcome.departed == ()
        assert len(archive.members()) == 2

    def test_lonely_candidate_displaces_singleton_from_first_crowded_cell(self):
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.9, 0.1)), counters)
        # all occupied cells are singletons; a candidate in an empty cell
        # displaces the lowest-coordinate cell's member deterministically
        outcome, _ = archive.try_insert(sol(2, (0.6, 0.45)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]

    def test_dominated_candidate_rejected_with_zero_change(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        first, _ = archive.try_insert(sol(0, (0.2, 0.2)), counters)
        before = members_values(archive)
        outcome, _ = archive.try_insert(sol(1, (0.6, 0.6)), counters)
        assert not outcome.accepted
        assert members_values(archive) == before
        assert [*first.departed, *outcome.departed] == []

    def test_out_of_bounds_candidate_triggers_adaptation_not_failure(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.4, 0.3)), counters)
        assert outcome.accepted and not outcome.departed
        assert archive.spec.contains(ObjectiveVector((1.4, 0.3)))

    def test_wrong_dimension_candidate_leaves_an_empty_archive_empty(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        with pytest.raises(DimensionMismatchError):
            archive.try_insert(sol(0, (0.5, 0.5, 9.0)), counters)
        assert archive.members() == []
        assert archive.cell_occupancy() == {}
        outcome, _ = archive.try_insert(sol(1, (0.3, 0.7)), counters)
        assert outcome.accepted and not outcome.departed

    def test_in_bounds_insertion_tests_the_bounds_once(self, monkeypatch):
        calls = 0
        contains = GridSpec.contains

        def counting(spec, v):
            nonlocal calls
            calls += 1
            return contains(spec, v)

        monkeypatch.setattr(GridSpec, "contains", counting)
        # 5 * (50 + 100 + 200) insertions, all inside the sweep's unit square
        complexity_sweep("grid", (50, 100, 200))
        assert calls == 1750


def most_occupied_by_sorted_scan(occupancy):
    # every occupied cell in coordinate order; a strictly larger count wins,
    # so ties go to the smallest coordinates
    best_cell, best = None, -1
    for cell in sorted(occupancy):
        if len(occupancy[cell]) > best:
            best_cell, best = cell, len(occupancy[cell])
    return best_cell, best


class TestMostOccupied:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_sorted_scan_with_tied_counts(self, m, seed):
        rng = np.random.default_rng(seed)
        archive = GridArchive(100, unit_spec())
        tied = 0
        for _ in range(20):
            coords = {tuple(int(c) for c in rng.integers(0, 4, size=m)) for _ in range(12)}
            # counts of 1-3 over up to 12 cells: the largest count is often shared
            archive._occupancy = {
                c: list(range(int(rng.integers(1, 4)))) for c in coords
            }
            expected = most_occupied_by_sorted_scan(archive._occupancy)
            assert archive._most_occupied() == expected
            counts = [len(ids) for ids in archive._occupancy.values()]
            tied += counts.count(expected[1]) > 1
        assert tied > 10


class TestGridInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nondominated_occupancy_capacity_after_every_insert(self, seed):
        rng = np.random.default_rng(seed)
        archive = GridArchive(20, unit_spec(6))
        counters = Counters()
        for i in range(400):
            # occasionally escape the current bounds to force re-binning
            scale = 2.0 if rng.random() < 0.05 else 1.0
            values = tuple(float(x) for x in scale * rng.random(2))
            outcome, _ = archive.try_insert(sol(i, values), counters)
            assert len(archive.members()) <= 20
            assert oracle_pairwise_nondominating(members_values(archive))
            assert occupancy_sorted(archive) == occupancy_rebuilt_from_scratch(archive)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_no_trade_for_a_dominated_candidate(self, seed):
        # within fixed bounds, an accepted replacement never swaps a member
        # for a candidate that member dominated
        rng = np.random.default_rng(seed)
        archive = GridArchive(15, unit_spec(5))
        counters = Counters()
        for i in range(500):
            candidate = sol(i, tuple(float(x) for x in rng.random(2)))
            before = {m.id: m for m in archive.members()}
            outcome, _ = archive.try_insert(candidate, counters)
            if not outcome.accepted:
                assert outcome.departed == ()
            for departed in outcome.departed:
                evicted = before[departed.id].objectives.values
                cand = candidate.objectives.values
                dominated_by_evicted = all(
                    e <= c for e, c in zip(evicted, cand)
                ) and any(e < c for e, c in zip(evicted, cand))
                assert not dominated_by_evicted
