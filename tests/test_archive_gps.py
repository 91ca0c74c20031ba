import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moealab import (
    Counters,
    DegenerateDirectionError,
    DimensionMismatchError,
    GpsArchive,
    ObjectiveVector,
    RaySpec,
    ray_of,
)
from oracles import oracle_front_values, random_solutions, ray_of_oracle, sol


def spec_k(k=4, reference=(0.0, 0.0)):
    return RaySpec(ObjectiveVector(reference), k)


class TestRayOf:
    def test_diagonal_lands_mid_bin(self):
        assert ray_of(ObjectiveVector((1.0, 1.0)), spec_k()) == (2,)

    def test_axis_aligned_first_bin(self):
        assert ray_of(ObjectiveVector((1.0, 0.0)), spec_k()) == (0,)

    def test_vertical_clamps_into_last_bin(self):
        assert ray_of(ObjectiveVector((0.0, 1.0)), spec_k()) == (3,)

    def test_reference_point_is_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            ray_of(ObjectiveVector((0.0, 0.0)), spec_k())

    def test_below_reference_violates_contract(self):
        with pytest.raises(ValueError):
            ray_of(ObjectiveVector((-0.1, 1.0)), spec_k())

    def test_dimension_mismatch_raises(self):
        vector = ObjectiveVector((1.0, 1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            ray_of(vector, spec_k())
        with pytest.raises(DimensionMismatchError):
            GpsArchive(spec_k()).try_insert(sol(0, vector.values), Counters())

    @pytest.mark.parametrize(
        "values, error",
        [
            ((1.0, 1.0, 1.0), DimensionMismatchError),
            ((-0.1, 1.0), ValueError),
            ((0.0, 0.0), DegenerateDirectionError),
        ],
    )
    def test_refusal_signals_uncharged(self, values, error):
        counters = Counters()
        with pytest.raises(ValueError) as raised:
            ray_of(ObjectiveVector(values), spec_k(), counters)
        assert type(raised.value) is error
        archive = GpsArchive(spec_k())
        with pytest.raises(ValueError) as raised:
            archive.try_insert(sol(0, values), counters)
        assert type(raised.value) is error
        assert counters.cell_lookups == 0
        assert archive.members() == []

    def test_counts_lookups_only(self):
        counters = Counters()
        ray_of(ObjectiveVector((1.0, 1.0)), spec_k(), counters)
        assert counters.cell_lookups == 1
        assert counters.dominance_comparisons == 0

    def test_three_objectives_give_two_angular_coords(self):
        spec = RaySpec(ObjectiveVector((0.0, 0.0, 0.0)), 8)
        index = ray_of(ObjectiveVector((1.0, 1.0, 1.0)), spec)
        assert len(index) == 2
        assert all(0 <= c < 8 for c in index)

    def test_scale_invariance_along_a_ray(self):
        spec = spec_k(16)
        a = ray_of(ObjectiveVector((0.3, 0.7)), spec)
        b = ray_of(ObjectiveVector((0.6, 1.4)), spec)
        assert a == b

    @pytest.mark.parametrize(
        "values, true_ray",
        [
            # nearly vertical: squared, 1e-170 would underflow to 0 and the
            # angle would read 0
            ((1e-200, 1e-170), 63),
            # diagonal: squared, 1e200 would overflow to inf and the angle
            # would read pi/2
            ((1e200, 1e200), 32),
            # 9e308 would overflow to inf; the direction is atan(3) = 0.40 pi
            ((1e154, 3e154), 50),
        ],
    )
    def test_extreme_offsets_get_their_directions_ray(self, values, true_ray):
        assert ray_of(ObjectiveVector(values), spec_k(64)) == (true_ray,)

    @pytest.mark.parametrize(
        "values, true_rays",
        [
            # the direction of (1, 1, 1); unscaled, every square overflows
            ((1e200, 1e200, 1e200), (38, 32)),
            # nearly along the last two axes, on the diagonal of their plane;
            # unscaled, every square underflows
            ((1e-200, 1e-170, 1e-170), (63, 32)),
        ],
    )
    def test_extreme_offsets_at_three_objectives_get_their_directions_rays(
        self, values, true_rays
    ):
        spec = spec_k(64, (0.0, 0.0, 0.0))
        assert ray_of(ObjectiveVector(values), spec) == true_rays
        assert ray_of_oracle(ObjectiveVector(values), spec) == true_rays


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def ray_cases(draw):
    """A vector and a spec with M = 2-5 and a non-zero reference: each
    component equals the reference's, lies above it, or lies anywhere (often
    below it)."""
    m = draw(st.integers(2, 5))
    reference = draw(st.lists(finite, min_size=m, max_size=m))
    values = []
    for r in reference:
        kind = draw(st.sampled_from(("equal", "above", "any")))
        if kind == "equal":
            values.append(r)
        elif kind == "above":
            values.append(draw(st.floats(r, r + 1e3, allow_nan=False)))
        else:
            values.append(draw(finite))
    k = draw(st.integers(1, 4096))
    return ObjectiveVector(values), RaySpec(ObjectiveVector(reference), k)


signed_zero = st.sampled_from((-0.0, 0.0))


@st.composite
def bi_objective_ray_cases(draw):
    """A vector and a spec with M = 2, the reference often a signed zero:
    each offset is zero (the value equals the reference, or both are signed
    zeros), one float step above or below it, or anything."""
    reference = [draw(st.one_of(signed_zero, finite)) for _ in range(2)]
    values = []
    for r in reference:
        kind = draw(st.sampled_from(("equal", "signed_zero", "step", "any")))
        if kind == "equal":
            values.append(r)
        elif kind == "signed_zero":
            values.append(draw(signed_zero))
        elif kind == "step":
            toward = draw(st.sampled_from((math.inf, -math.inf)))
            values.append(math.nextafter(r, toward))
        else:
            values.append(draw(finite))
    k = draw(st.integers(1, 4096))
    return ObjectiveVector(values), RaySpec(ObjectiveVector(reference), k)


def edge_case(u, k):
    return ObjectiveVector(u), RaySpec(ObjectiveVector((0.0,) * len(u)), k)


# offsets from a zero reference whose first angle sits on a bin edge: the
# squares after offset 0 put their tiny terms last, so summed left to right
# each is lost against the first, while summed right to left they add up to
# enough to raise the root's last bit, which moves the angle into the next
# bin
SUMMATION_ORDER_EDGES = [
    edge_case(
        (0.14651959224254657, 1.5297257812686196, 1.4808607709550493e-08,
         1.4060420498826408e-08, 1.3419749211463995e-08),
        4096,
    ),
    edge_case((0.17776957525313922, 0.7788593988420766, 7.4394611176826766e-09,
               7.2388769476386955e-09), 7),
    edge_case(
        (0.049864425893705815, 1.0150137069178968, 1.009811359062959e-08,
         8.836830418361342e-09, 8.824351782923154e-09),
        64,
    ),
]


def first_bin(case, squares_in_order):
    (u0, *rest), spec = case
    root = math.sqrt(sum(squares_in_order([d * d for d in rest])))
    k = spec.rays_per_axis
    return min(int(math.atan2(root, u0) / (math.pi / 2.0) * k), k - 1)


class TestRayOfMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(ray_cases())
    @example(SUMMATION_ORDER_EDGES[0])
    @example(SUMMATION_ORDER_EDGES[1])
    @example(SUMMATION_ORDER_EDGES[2])
    @example(edge_case((0.0, 0.0, 0.0), 8))
    @example(edge_case((0.0, 2.0, 0.0, 0.0), 4096))
    @example(edge_case((1.0, 0.0), 1))
    def test_coords_and_errors_match_the_loop(self, case):
        v, spec = case
        try:
            coords = ray_of_oracle(v, spec)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ray_of(v, spec)
            assert type(raised.value) is type(exc)
            return
        index = ray_of(v, spec)
        assert index == coords
        assert type(index) is tuple

    @settings(max_examples=400, deadline=None)
    @given(bi_objective_ray_cases())
    @example((ObjectiveVector((-0.0, 1.0)), spec_k(8)))
    @example((ObjectiveVector((1.0, -0.0)), spec_k(8)))
    @example((ObjectiveVector((0.0, 0.0)), spec_k(8, (-0.0, -0.0))))
    @example((ObjectiveVector((-0.0, -0.0)), spec_k(8)))
    @example((ObjectiveVector((0.0, 3.0)), spec_k(8, (-0.0, 3.0))))
    @example((ObjectiveVector((-1e-300, 1.0)), spec_k(8)))
    def test_bi_objective_coords_errors_and_charge_match_the_loop(self, case):
        # M = 2 takes its own path through ray_of: two scalar offsets in
        # place of the tuple of offsets
        v, spec = case
        counters = Counters()
        try:
            coords = ray_of_oracle(v, spec)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ray_of(v, spec, counters)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            assert counters.cell_lookups == 0
            return
        assert ray_of(v, spec, counters) == coords
        assert counters.cell_lookups == 1

    @pytest.mark.parametrize("case", SUMMATION_ORDER_EDGES)
    def test_edges_tell_the_summation_orders_apart(self, case):
        # the examples above can only catch a reordered sum if the two orders
        # put the vector in different bins
        left_to_right = first_bin(case, list)
        assert left_to_right == ray_of_oracle(*case)[0]
        assert first_bin(case, lambda squares: squares[::-1]) != left_to_right


class TestGpsInsert:
    def test_vacant_ray_accepts(self):
        archive = GpsArchive(spec_k())
        outcome, _ = archive.try_insert(sol(0, (1.0, 1.0)), Counters())
        assert outcome.accepted and not outcome.departed

    def test_closer_candidate_replaces_incumbent(self):
        archive = GpsArchive(spec_k())
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (0.5, 0.5)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]
        assert [m.id for m in archive.members()] == [1]

    def test_same_bin_norm_comparison(self):
        # both directions fall in bin 0 of 4; the shorter vector wins
        spec = spec_k(4)
        assert ray_of(ObjectiveVector((1.0, 0.0)), spec) == (0,)
        assert ray_of(ObjectiveVector((0.9, 0.05)), spec) == (0,)
        archive = GpsArchive(spec)
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 0.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (0.9, 0.05)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]
        assert math.dist((0.9, 0.05), (0.0, 0.0)) < 1.0

    def test_farther_candidate_rejected(self):
        archive = GpsArchive(spec_k())
        counters = Counters()
        archive.try_insert(sol(0, (0.5, 0.5)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.0, 1.0)), counters)
        assert not outcome.accepted
        assert outcome.departed == ()

    def test_equal_norm_keeps_incumbent(self):
        archive = GpsArchive(spec_k())
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        outcome, _ = archive.try_insert(sol(1, (1.0, 1.0)), counters)
        assert not outcome.accepted
        assert outcome.departed == ()
        assert [m.id for m in archive.members()] == [0]

    def test_at_most_one_comparison_per_insert(self):
        archive = GpsArchive(spec_k(8))
        counters = Counters()
        rng = np.random.default_rng(2)
        for s in random_solutions(rng, 200):
            before = counters.dominance_comparisons
            archive.try_insert(s, counters)
            assert counters.dominance_comparisons - before <= 1

    def test_dominated_incumbents_are_tolerated_until_finalize(self):
        archive = GpsArchive(spec_k(8))
        counters = Counters()
        archive.try_insert(sol(0, (0.1, 0.1)), counters)  # diagonal bin 4
        archive.try_insert(sol(1, (1.0, 0.05)), counters)  # bin 0, nondominated
        archive.try_insert(sol(2, (2.0, 0.9)), counters)  # bin 2, dominated by id 0
        members = {m.objectives.values for m in archive.members()}
        assert (2.0, 0.9) in members  # dominated yet stored on its own ray
        final = {m.objectives.values for m in archive.finalize()}
        assert (2.0, 0.9) not in final


class TestGpsFinalize:
    def test_dominated_incumbent_removed(self):
        archive = GpsArchive(spec_k(4))
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        archive.try_insert(sol(1, (2.0, 0.1)), counters)
        # dominated by (1.0, 1.0), and alone on its own ray, so it is admitted
        outcome, _ = archive.try_insert(sol(2, (1.1, 3.0)), counters)
        assert outcome.accepted and not outcome.departed
        final = {m.objectives.values for m in archive.finalize()}
        assert (1.1, 3.0) not in final
        assert (1.0, 1.0) in final

    def test_mutually_incomparable_incumbents_unchanged(self):
        archive = GpsArchive(spec_k(8))
        counters = Counters()
        for i, values in enumerate([(1.0, 0.1), (0.7, 0.7), (0.1, 1.0)]):
            archive.try_insert(sol(i, values), counters)
        assert {m.id for m in archive.finalize()} == {0, 1, 2}

    def test_random_stream_matches_oracle_filter_of_incumbents(self):
        rng = np.random.default_rng(7)
        archive = GpsArchive(spec_k(16))
        counters = Counters()
        for s in random_solutions(rng, 200):
            archive.try_insert(s, counters)
        incumbent_values = [m.objectives.values for m in archive.members()]
        expected = oracle_front_values(incumbent_values)
        assert {m.objectives.values for m in archive.finalize()} == expected


class TestGpsInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_ray_distance_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        spec = spec_k(12)
        archive = GpsArchive(spec)
        counters = Counters()
        best: dict = {}
        for s in random_solutions(rng, 400):
            ray = ray_of(s.objectives, spec)
            archive.try_insert(s, counters)
            incumbent = archive.incumbents[ray]
            d = math.dist(incumbent.objectives.values, spec.reference.values)
            if ray in best:
                assert d <= best[ray] + 1e-12
            best[ray] = d
        assert archive.monotonicity_violations == 0

    def test_tripwire_stays_zero_on_ties_and_farther_points(self):
        # every point comes back unchanged (a tie on its own ray) and scaled
        # away from the reference (farther on its own ray): neither may
        # replace, and the recorded distance only ever falls
        rng = np.random.default_rng(4)
        spec = spec_k(6)
        archive = GpsArchive(spec)
        counters = Counters()
        points = [tuple(float(x) for x in rng.random(2) + 0.01) for _ in range(150)]
        stream = []
        for values in points:
            stream += [values, values, tuple(2.0 * x for x in values)]
        replaced = 0
        for i, values in enumerate(stream):
            outcome, _ = archive.try_insert(sol(i, values), counters)
            replaced += outcome.accepted and bool(outcome.departed)
        assert replaced > 0
        assert archive.monotonicity_violations == 0

    def test_incumbents_are_read_only(self):
        archive = GpsArchive(spec_k())
        archive.try_insert(sol(0, (1.0, 1.0)), Counters())
        ray = ray_of(ObjectiveVector((1.0, 1.0)), archive.spec)
        with pytest.raises(TypeError):
            archive.incumbents[ray] = sol(1, (0.5, 0.5))
        with pytest.raises(TypeError):
            del archive.incumbents[ray]
        assert [m.id for m in archive.incumbents.values()] == [0]

    def test_tripwire_counts_a_replacement_above_the_recorded_distance(self):
        archive = GpsArchive(spec_k())
        counters = Counters()
        archive.try_insert(sol(0, (1.0, 1.0)), counters)
        ray = ray_of(ObjectiveVector((1.0, 1.0)), archive.spec)
        # as if the incumbent had been admitted closer than it lies now
        archive._admitted[ray] = 0.1
        outcome, _ = archive.try_insert(sol(1, (0.5, 0.5)), counters)
        assert outcome.accepted
        assert [d.id for d in outcome.departed] == [0]
        assert archive.monotonicity_violations == 1
        archive.try_insert(sol(2, (0.25, 0.25)), counters)
        assert archive.monotonicity_violations == 1

    def test_replacements_always_beat_the_evicted_on_distance(self):
        rng = np.random.default_rng(9)
        spec = spec_k(10)
        archive = GpsArchive(spec)
        counters = Counters()
        reference = spec.reference.values
        for s in random_solutions(rng, 500):
            before = {m.id: m for m in archive.members()}
            outcome, _ = archive.try_insert(s, counters)
            if not outcome.accepted:
                assert outcome.departed == ()
            for departed in outcome.departed:
                assert math.dist(s.objectives.values, reference) < math.dist(
                    before[departed.id].objectives.values, reference
                )

    def test_memory_tracks_occupied_rays(self):
        rng = np.random.default_rng(3)
        spec = spec_k(32)
        archive = GpsArchive(spec)
        counters = Counters()
        for i, s in enumerate(random_solutions(rng, 300), start=1):
            archive.try_insert(s, counters)
            assert len(archive) == len(archive.members())
            assert len(archive) <= min(i, 32)

    def test_locality_outcome_ignores_other_rays(self):
        # identical candidate, identical own-ray incumbent, different other
        # rays: outcomes must match exactly
        rng = np.random.default_rng(21)
        spec = spec_k(16)
        for _ in range(200):
            candidate = sol(1000, tuple(float(x) for x in rng.random(2) + 0.01))
            ray = ray_of(candidate.objectives, spec)
            a, b = GpsArchive(spec), GpsArchive(spec)
            if rng.random() < 0.7:
                incumbent_values = tuple(float(x) for x in rng.random(2) + 0.01)
                incumbent = sol(500, incumbent_values)
                a.try_insert(incumbent, Counters())
                b.try_insert(incumbent, Counters())
            for archive, n_extra in ((a, 5), (b, 11)):
                added = 0
                while added < n_extra:
                    extra = sol(2000 + added, tuple(float(x) for x in rng.random(2) + 0.01))
                    extra_ray = ray_of(extra.objectives, spec)
                    if extra_ray != ray and extra_ray not in archive.incumbents:
                        archive.try_insert(extra, Counters())
                        added += 1
            out_a, _ = a.try_insert(candidate, Counters())
            out_b, _ = b.try_insert(candidate, Counters())
            assert out_a == out_b
