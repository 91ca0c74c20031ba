import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moealab import (
    ProblemSpec,
    UnknownProblemError,
    brute_force_front,
    evaluate,
    get_problem,
    nondominated_filter,
    true_front_sample,
)
from oracles import oracle_front_values, sol

# zdt genes on [0, 1], with both zeros, subnormals and the upper bound drawn
# often
ZDT_GENE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0]),
    st.floats(0.0, 1.0),
)


class TestRegistry:
    def test_known_ids(self):
        for pid in ("sch", "zdt1", "zdt2", "lattice:5:0"):
            assert get_problem(pid).id == pid

    def test_unknown_id(self):
        with pytest.raises(UnknownProblemError):
            get_problem("nope")

    def test_malformed_lattice_id(self):
        with pytest.raises(UnknownProblemError):
            get_problem("lattice:5")
        with pytest.raises(UnknownProblemError):
            get_problem("lattice:a:b")

    @pytest.mark.parametrize(
        "problem_id, message",
        [
            ("lattice:0:0", "lattice size must be >= 1, got 0"),
            (
                "lattice:101:0",
                "lattice:101:0 has 10201 points, above the 10000-point enumeration guard",
            ),
            (
                "lattice:1000000:0",
                "lattice:1000000:0 has 1000000000000 points, above the "
                "10000-point enumeration guard",
            ),
            ("lattice:5:-1", "lattice seed must be >= 0, got -1"),
        ],
    )
    def test_bad_lattice_refused_before_the_table_is_drawn(
        self, monkeypatch, problem_id, message
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("the lattice table was drawn before the guard")

        monkeypatch.setattr("moealab.problems.np.random.default_rng", no_draw)
        with pytest.raises(UnknownProblemError) as excinfo:
            get_problem(problem_id)
        assert str(excinfo.value) == message


class TestEvaluate:
    def test_sch_substitution(self):
        problem = get_problem("sch")
        assert evaluate(problem, (1.0,)).values == (1.0, 1.0)
        assert evaluate(problem, (0.0,)).values == (0.0, 4.0)

    def test_zdt1_all_zeros(self):
        problem = get_problem("zdt1")
        v = evaluate(problem, (0.0,) * 30)
        assert v.values == (0.0, 1.0)

    @settings(max_examples=400, deadline=None)
    @given(genome=st.lists(ZDT_GENE, min_size=30, max_size=30))
    @example(genome=[1.0] * 30)
    @example(genome=[-0.0] * 30)
    @example(genome=[5e-324] + [0.0] * 29)
    @example(genome=[0.5] + [2.2250738585072014e-308] * 29)
    def test_zdt1_matches_the_numpy_scalar_formula(self, genome):
        # numpy's scalar root is an independent correctly rounded sqrt, so
        # the evaluator must give the very same float
        f1 = genome[0]
        g = 1.0 + 9.0 * sum(genome[1:]) / 29
        expected = (f1, g * (1.0 - np.sqrt(f1 / g)))
        problem = get_problem("zdt1")
        raw = problem.evaluator(tuple(genome))
        assert [type(v) for v in raw] == [float, float]
        values = evaluate(problem, genome).values
        assert [v.hex() for v in values] == [float(v).hex() for v in expected]

    def test_zdt2_first_gene_one(self):
        problem = get_problem("zdt2")
        genome = (1.0,) + (0.0,) * 29
        v = evaluate(problem, genome)
        assert v.values == (1.0, 0.0)

    def test_out_of_bounds_genome_rejected(self):
        problem = get_problem("sch")
        with pytest.raises(ValueError):
            evaluate(problem, (6.0,))

    def test_wrong_arity_rejected(self):
        problem = get_problem("sch")
        with pytest.raises(ValueError):
            evaluate(problem, (1.0, 2.0))

    def test_evaluators_are_pure(self):
        rng = np.random.default_rng(0)
        for pid in ("sch", "zdt1", "lattice:6:3"):
            problem = get_problem(pid)
            genome = tuple(
                lo + (hi - lo) * float(rng.random()) for lo, hi in problem.bounds
            )
            assert evaluate(problem, genome).values == evaluate(problem, genome).values

    def test_lattice_rounds_real_genomes_to_the_grid(self):
        problem = get_problem("lattice:4:1")
        exact = evaluate(problem, (2.0, 3.0))
        rounded = evaluate(problem, (2.4, 2.6))
        assert rounded.values == exact.values


class TestTrueFrontSample:
    def test_zdt1_endpoints(self):
        points = true_front_sample(get_problem("zdt1"), 2)
        assert [p.values for p in points] == [(0.0, 1.0), (1.0, 0.0)]

    def test_zdt2_midpoint(self):
        points = true_front_sample(get_problem("zdt2"), 3)
        assert points[1].values == (0.5, 0.75)

    def test_sch_endpoints(self):
        points = true_front_sample(get_problem("sch"), 2)
        assert [p.values for p in points] == [(0.0, 4.0), (4.0, 0.0)]

    def test_samples_are_mutually_nondominated(self):
        for pid in ("sch", "zdt1", "zdt2"):
            points = [p.values for p in true_front_sample(get_problem(pid), 64)]
            assert oracle_front_values(points) == set(points)

    def test_unknown_front_is_signaled(self):
        with pytest.raises(UnknownProblemError):
            true_front_sample(get_problem("lattice:4:0"), 10)


class TestBruteForceFront:
    def test_single_point(self):
        problem = get_problem("lattice:1:0")
        front = brute_force_front(problem)
        assert len(front) == 1
        assert front[0].values == evaluate(problem, (0.0, 0.0)).values

    def test_known_tiny_table(self):
        problem = get_problem("lattice:2:0")
        problem.table[0, 0] = (1.0, 1.0)
        problem.table[0, 1] = (2.0, 2.0)
        problem.table[1, 0] = (1.0, 2.0)
        problem.table[1, 1] = (2.0, 1.0)
        front = {v.values for v in brute_force_front(problem)}
        assert front == {(1.0, 1.0)}

    def test_size_guard(self):
        # get_problem refuses this size, so the oracle's own guard is tested
        # on a hand-built problem
        problem = ProblemSpec(
            id="lattice:101:0",
            bounds=((0.0, 100.0), (0.0, 100.0)),
            m=2,
            evaluator=lambda genome: (0.0, 0.0),
            table=np.zeros((101, 101, 2)),
        )
        with pytest.raises(ValueError, match="10201 points"):
            brute_force_front(problem)

    def test_non_lattice_problem_refused(self):
        with pytest.raises(UnknownProblemError):
            brute_force_front(get_problem("sch"))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_independent_filter(self, seed):
        problem = get_problem(f"lattice:20:{seed}")
        k = 20
        points = [
            tuple(float(v) for v in problem.table[i, j])
            for i in range(k)
            for j in range(k)
        ]
        via_filter = {
            s.objectives.values
            for s in nondominated_filter([sol(i, p) for i, p in enumerate(points)])
        }
        via_oracle = oracle_front_values(points)
        via_brute = {v.values for v in brute_force_front(problem)}
        assert via_brute == via_filter == via_oracle

    def test_objective_floor_sits_below_every_point(self):
        problem = get_problem("lattice:10:5")
        floor = problem.objective_floor
        for i in range(10):
            for j in range(10):
                v = evaluate(problem, (float(i), float(j)))
                assert all(f < x for f, x in zip(floor, v))
