import numpy as np
import pytest

from moealab import (
    CellIndex,
    Counters,
    GridArchive,
    GridSpec,
    InsertStatus,
    ObjectiveVector,
    OutOfBoundsError,
    cell_of,
)
from oracles import (
    members_values,
    oracle_pairwise_nondominating,
    random_solutions,
    sol,
)


def unit_spec(divisions=4):
    return GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), divisions)


def occupancy_rebuilt_from_scratch(archive):
    expected: dict[CellIndex, list[int]] = {}
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


class TestCellOf:
    def test_interior_point(self):
        assert cell_of(ObjectiveVector((0.3, 0.7)), unit_spec()).coords == (1, 2)

    def test_upper_corner_clamps_into_last_cell(self):
        assert cell_of(ObjectiveVector((1.0, 1.0)), unit_spec()).coords == (3, 3)

    def test_lower_corner(self):
        assert cell_of(ObjectiveVector((0.0, 0.0)), unit_spec()).coords == (0, 0)

    def test_out_of_bounds_signals(self):
        with pytest.raises(OutOfBoundsError):
            cell_of(ObjectiveVector((1.5, 0.5)), unit_spec())

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

    def test_degenerate_envelope_still_produces_valid_bounds(self):
        archive = GridArchive(10, unit_spec())
        counters = Counters()
        spec = archive.adapt_bounds(ObjectiveVector((3.0, 3.0)), counters)
        assert all(lo < hi for lo, hi in zip(spec.lower, spec.upper))


class TestGridInsert:
    def test_empty_archive_accepts_into_its_cell(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        outcome, feedback = archive.try_insert(sol(0, (0.3, 0.7)), counters)
        assert outcome.status is InsertStatus.ACCEPTED_NEW
        assert feedback.crowding_hint == 1.0
        assert occupancy_sorted(archive) == {CellIndex((1, 2)): (0,)}

    def test_crowded_cell_member_displaced_by_lonely_candidate(self):
        # both members share cell (0,3); the candidate lands in empty (3,0),
        # so the lowest id leaves the crowded cell
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.11, 0.89)), counters)
        outcome, feedback = archive.try_insert(sol(2, (0.9, 0.1)), counters)
        assert outcome.status is InsertStatus.ACCEPTED_REPLACING
        assert outcome.evicted_ids == (0,)
        assert set(members_values(archive)) == {(0.11, 0.89), (0.9, 0.1)}
        assert feedback.crowding_hint == 1.0

    def test_candidate_into_equally_crowded_cell_rejected(self):
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.9, 0.1)), counters)
        # the candidate lands in id 0's cell, which is already as crowded as
        # the most crowded cell, so nothing is displaced
        outcome, _ = archive.try_insert(sol(2, (0.15, 0.85)), counters)
        assert outcome.status is InsertStatus.REJECTED
        assert len(archive.members()) == 2

    def test_lonely_candidate_displaces_singleton_from_first_crowded_cell(self):
        archive = GridArchive(2, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.10, 0.90)), counters)
        archive.try_insert(sol(1, (0.9, 0.1)), counters)
        # all occupied cells are singletons; a candidate in an empty cell
        # displaces the lowest-coordinate cell's member deterministically
        outcome, _ = archive.try_insert(sol(2, (0.6, 0.45)), counters)
        assert outcome.status is InsertStatus.ACCEPTED_REPLACING
        assert outcome.evicted_ids == (0,)

    def test_dominated_candidate_rejected_with_zero_change(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        first, _ = archive.try_insert(sol(0, (0.2, 0.2)), counters)
        before = members_values(archive)
        outcome, _ = archive.try_insert(sol(1, (0.6, 0.6)), counters)
        assert outcome.status is InsertStatus.REJECTED
        assert members_values(archive) == before
        assert [*first.departed, *outcome.departed] == []

    def test_out_of_bounds_candidate_triggers_adaptation_not_failure(self):
        archive = GridArchive(5, unit_spec())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.4, 0.3)), counters)
        assert outcome.status is InsertStatus.ACCEPTED_NEW
        assert archive.spec.contains(ObjectiveVector((1.4, 0.3)))


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
            for evicted_id in outcome.evicted_ids:
                evicted = before[evicted_id].objectives.values
                cand = candidate.objectives.values
                dominated_by_evicted = all(
                    e <= c for e, c in zip(evicted, cand)
                ) and any(e < c for e, c in zip(evicted, cand))
                assert not dominated_by_evicted
