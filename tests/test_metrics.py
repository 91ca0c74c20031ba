import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moealab
from moealab import (
    ObjectiveVector,
    complexity_sweep,
    coverage,
    generational_distance,
    spacing,
    true_front_sample,
    get_problem,
)
from moealab.metrics import _slope_fit, _t_quantile
from oracles import (
    gd_broadcast_oracle,
    linregress_ci_oracle,
    oracle_gd,
    oracle_spacing,
    spacing_broadcast_oracle,
)


def vecs(*values):
    return [ObjectiveVector(v) for v in values]


class TestGenerationalDistance:
    def test_zero_when_front_subset_of_reference(self):
        reference = vecs((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))
        assert generational_distance(reference[:2], reference) == 0.0

    def test_single_nearest_distance(self):
        front = vecs((0.1, 1.0))
        reference = vecs((0.0, 1.0), (1.0, 0.0))
        assert generational_distance(front, reference) == pytest.approx(0.1)

    def test_empty_inputs_are_contract_violations(self):
        points = vecs((0.0, 1.0))
        with pytest.raises(ValueError):
            generational_distance([], points)
        with pytest.raises(ValueError):
            generational_distance(points, [])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_on_random_fronts(self, seed):
        rng = np.random.default_rng(seed)
        front = [tuple(float(x) for x in rng.random(2)) for _ in range(40)]
        reference = [p.values for p in true_front_sample(get_problem("zdt1"), 200)]
        got = generational_distance(
            [ObjectiveVector(p) for p in front],
            [ObjectiveVector(p) for p in reference],
        )
        assert got == pytest.approx(oracle_gd(front, reference))

    def test_zero_iff_every_point_in_reference(self):
        reference = vecs((0.0, 1.0), (1.0, 0.0))
        on = generational_distance(reference, reference)
        off = generational_distance(vecs((0.0, 1.0), (0.9, 0.1)), reference)
        assert on == 0.0
        assert off > 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        front = vecs(*[tuple(rng.random(2)) for _ in range(10)])
        reference = vecs(*[tuple(rng.random(2)) for _ in range(10)])
        forward = generational_distance(front, reference)
        shuffled = generational_distance(list(reversed(front)), list(reversed(reference)))
        assert forward == pytest.approx(shuffled)


def rows_with_repeats(m):
    # a few distinct rows drawn again and again, so duplicate points are common
    coordinate = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    pool = st.lists(st.tuples(*[coordinate] * m), min_size=1, max_size=6)
    return pool.flatmap(lambda rows: st.lists(st.sampled_from(rows), min_size=2, max_size=25))


def peak_traced_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBroadcastParity:
    @pytest.mark.parametrize("m", [2, 3, 5])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_gd_and_spacing_equal_the_broadcast_bit_for_bit(self, m, data):
        front = data.draw(rows_with_repeats(m))
        reference = data.draw(rows_with_repeats(m))
        vectors = vecs(*front)
        assert repr(generational_distance(vectors, vecs(*reference))) == repr(
            gd_broadcast_oracle(front, reference)
        )
        assert repr(spacing(vectors)) == repr(spacing_broadcast_oracle(front))
        inside = data.draw(st.lists(st.sampled_from(reference), min_size=1, max_size=10))
        assert generational_distance(vecs(*inside), vecs(*reference)) == 0.0

    def test_gd_builds_no_front_by_reference_array(self):
        rng = np.random.default_rng(0)
        front = [tuple(float(x) for x in rng.random(2)) for _ in range(100)]
        reference = [p.values for p in true_front_sample(get_problem("zdt1"), 500)]
        vectors, reference_vectors = vecs(*front), vecs(*reference)
        assert peak_traced_mb(lambda: generational_distance(vectors, reference_vectors)) < 0.2
        assert peak_traced_mb(lambda: gd_broadcast_oracle(front, reference)) > 1.6


class TestSpacing:
    def test_evenly_spaced_collinear_is_zero(self):
        front = vecs((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
        assert spacing(front) == pytest.approx(0.0)

    def test_symmetric_three_point_front_is_zero(self):
        assert spacing(vecs((0.0, 1.0), (0.5, 0.5), (1.0, 0.0))) == pytest.approx(0.0)

    def test_fewer_than_two_points_signaled(self):
        with pytest.raises(ValueError):
            spacing(vecs((1.0, 1.0)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        front = [tuple(float(x) for x in rng.random(2)) for _ in range(30)]
        got = spacing([ObjectiveVector(p) for p in front])
        assert got == pytest.approx(oracle_spacing(front))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        front = [ObjectiveVector(tuple(rng.random(2))) for _ in range(12)]
        assert spacing(front) == pytest.approx(spacing(list(reversed(front))))


class TestCoverage:
    def test_identical_sets_fully_covered(self):
        a = vecs((0.0, 1.0), (1.0, 0.0))
        assert coverage(a, list(a)) == 1.0

    def test_no_coverage(self):
        a = vecs((1.0, 1.0))
        b = vecs((0.0, 0.5), (0.5, 0.0))
        assert coverage(a, b) == 0.0

    def test_single_dominator_covers_everything(self):
        a = vecs((0.0, 0.0))
        b = vecs((1.0, 1.0), (2.0, 2.0))
        assert coverage(a, b) == 1.0

    def test_empty_b_is_an_error(self):
        with pytest.raises(ValueError):
            coverage(vecs((0.0, 0.0)), [])

    def test_empty_a_covers_nothing(self):
        assert coverage([], vecs((0.0, 0.0))) == 0.0

    def test_partial(self):
        a = vecs((0.5, 0.5))
        b = vecs((1.0, 1.0), (0.0, 0.2))
        assert coverage(a, b) == 0.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(14)
        a = vecs(*[tuple(rng.random(2)) for _ in range(8)])
        b = vecs(*[tuple(rng.random(2)) for _ in range(8)])
        assert coverage(a, b) == coverage(list(reversed(a)), list(reversed(b)))


class TestComplexitySweep:
    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            complexity_sweep("rn", [25])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            complexity_sweep("hash", [8, 16])

    def test_equal_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            complexity_sweep("gps", [8, 8])

    def test_a_repeated_size_among_distinct_ones_is_rejected(self):
        # fitted as a third observation, the repeat would narrow the slope's
        # interval to zero width from two distinct sizes
        with pytest.raises(ValueError, match="distinct"):
            complexity_sweep("gps", [2, 3, 3])

    def test_two_sizes_give_an_infinite_interval(self):
        report = complexity_sweep("gps", [8, 16], seed=2)
        assert report.slope_ci == (-math.inf, math.inf)

    def test_to_dict_writes_an_unbounded_interval_as_null(self):
        report = complexity_sweep("gps", [8, 16], seed=2)
        assert report.to_dict()["slope_ci"] == [None, None]
        assert report.slope_ci == (-math.inf, math.inf)

    def test_report_shape_and_determinism(self):
        a = complexity_sweep("gps", [8, 16, 32], seed=4)
        b = complexity_sweep("gps", [8, 16, 32], seed=4)
        assert a == b
        assert [n for n, _ in a.entries] == [8, 16, 32]
        assert all(mean >= 0 for _, mean in a.entries)
        payload = a.to_dict()
        assert payload["archiver"] == "gps"
        assert "cmp_slope" in payload

    def test_rn_mean_tracks_size_on_small_sweep(self):
        report = complexity_sweep("rn", [8, 16, 32], seed=1)
        means = dict(report.entries)
        # full incomparable scans: the mean equals the archive size
        assert means[8] == pytest.approx(8.0)
        assert means[32] == pytest.approx(32.0)
        assert 0.8 <= report.slope <= 1.2


def test_import_loads_numpy_random_and_not_scipy():
    code = "import sys, moealab; print('scipy' in sys.modules, 'numpy.random' in sys.modules)"
    path = [str(Path(moealab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


# the benchmark's archive-sweep sizes, then the CLI's default sizes
SWEEPS = [
    ("rn", (25, 50, 100)),
    ("grid", (50, 100, 200)),
    ("gps", (512, 1024, 2048, 4096)),
    ("rn", (25, 50, 100, 200)),
    ("grid", (25, 50, 100, 200)),
    ("gps", (25, 50, 100, 200)),
]


class TestSlopeFitMatchesScipy:
    @pytest.fixture(autouse=True)
    def _needs_scipy(self):
        pytest.importorskip("scipy.stats")

    @pytest.mark.parametrize("kind,sizes", SWEEPS)
    def test_sweep_reports_equal_the_oracle(self, kind, sizes):
        # every rn insertion scans every member, so rn's means are its sizes
        # at any seed; one seed keeps its ~12 s sweep at size 200 to one run
        for seed in [0] if kind == "rn" else range(4):
            report = complexity_sweep(kind, sizes, seed)
            if kind == "rn":
                assert all(mean == size for size, mean in report.entries)
            x = np.log([n for n, _ in report.entries])
            y = np.log([max(c, 1e-12) for _, c in report.entries])
            assert repr((report.slope, report.slope_ci)) == repr(linregress_ci_oracle(x, y))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_fits_equal_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 5, 8):
            x = np.log(np.sort(rng.choice(np.arange(1, 5000), n, replace=False)).astype(float))
            y = np.log(rng.random(n) * 100 + 1e-3)
            got, want = _slope_fit(x, y), linregress_ci_oracle(x, y)
            if n <= 4:
                assert repr(got) == repr(want)
            else:
                # df >= 3: the t quantile may differ from scipy's in the last bits
                assert got[0] == want[0]
                assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    def test_constant_means_give_a_nan_interval(self):
        x = np.log([25.0, 50.0, 100.0, 200.0])
        got = _slope_fit(x, np.zeros(4))
        assert got[0] == 0.0
        assert all(math.isnan(end) for end in got[1])
        assert repr(got) == repr(linregress_ci_oracle(x, np.zeros(4)))

    def test_exact_line_gives_a_zero_width_interval(self):
        x = np.log([25.0, 50.0, 100.0, 200.0])
        assert _slope_fit(x, x.copy()) == (1.0, (1.0, 1.0))
        assert repr(_slope_fit(x, x.copy())) == repr(linregress_ci_oracle(x, x.copy()))

    def test_t_quantile(self):
        from scipy import stats

        for df in (1, 2):
            assert _t_quantile(0.975, df) == stats.t.ppf(0.975, df)
        for df in range(3, 101):
            assert _t_quantile(0.975, df) == pytest.approx(stats.t.ppf(0.975, df), rel=1e-12)
