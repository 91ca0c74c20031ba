import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moealab import (
    ArchiveConfig,
    ConfigError,
    LocalSearchConfig,
    ObjectiveVector,
    RunConfig,
    Solution,
    VariationConfig,
    deterioration_check,
    initialize,
    run,
    step,
    update_population,
)
from moealab import cli, engine
from moealab.archives import RnArchive
from moealab.engine import DeteriorationTracker
from oracles import (
    TrackerOracle,
    oracle_deterioration_count,
    oracle_front_indices,
    oracle_front_values,
    oracle_pairwise_nondominating,
    sol,
    strength_fitness_oracle,
)


def assert_history_is_evicted_front(tracker, evicted):
    # the tracker's rows, as a set and without repeats, are the nondominated
    # subset of every point evicted so far
    values = sorted({s.objectives.values for s in evicted})
    rows = history_rows(tracker)
    assert len(rows) == len(set(rows))
    assert set(rows) == {values[i] for i in oracle_front_indices(values)}


def history_rows(tracker):
    # in the tracker's order, from an (n, M) array or from a list of tuples
    return [tuple(map(float, row)) for row in tracker._history]


def assert_staircase(rows):
    # an M = 2 nondominated set in increasing f1 has strictly decreasing f2
    assert all(a[0] < b[0] and a[1] > b[1] for a, b in zip(rows, rows[1:]))


def signed_row_set(rows):
    # repr tells -0.0 from 0.0, so the set shows which of two equal rows was kept
    return {repr(row) for row in rows}


class StubStore:
    """An archive whose members are whatever the test puts in `current`."""

    # its evictions are arbitrary, so the tracker must test them
    departures_dominate_no_member = False

    def __init__(self):
        self.current = []

    def members(self):
        return list(self.current)


class PairedTracker:
    """DeteriorationTracker and TrackerOracle fed the same calls; after every
    observe their counts, deteriorated ids and history rows must agree.

    The oracle keeps rows in eviction order: a kept row keeps its place and a
    new row goes last. For M = 2 the tracker keeps a staircase, whose order
    its values fix, so there the rows must form a staircase and equal the
    oracle's as a set; for other M they must equal the oracle's in order."""

    def __init__(self, m):
        self.m = m
        self.tracker = DeteriorationTracker(m)
        self.oracle = TrackerOracle(m)
        self.peak = 0

    def observe(self, archive, candidate, accepted, newly_evicted):
        self.tracker.observe(archive, candidate, accepted, newly_evicted)
        self.oracle.observe(archive, candidate, accepted, newly_evicted)
        assert self.tracker.count() == self.oracle.count()
        assert self.tracker._deteriorated == self.oracle._deteriorated
        rows, expected = history_rows(self.tracker), history_rows(self.oracle)
        if self.m == 2:
            assert_staircase(rows)
            assert len(rows) == len(expected)
            assert signed_row_set(rows) == signed_row_set(expected)
        else:
            assert rows == expected
        self.peak = max(self.peak, self.tracker.count())

    def count(self):
        return self.tracker.count()


# lattice coordinates with both signs of zero, so that rows share f1 or f2,
# repeat, and compare equal while their reprs differ
lattice_coordinate = st.sampled_from((-0.0, 0.0, 1.0, 2.0, 3.0))
# per step: the candidate's objectives, whether it is accepted, and the
# positions of the members that leave
tracker_steps = st.lists(
    st.tuples(
        st.tuples(lattice_coordinate, lattice_coordinate),
        st.booleans(),
        st.frozensets(st.integers(0, 11)),
    ),
    max_size=60,
)


def small_config(**overrides):
    defaults = dict(
        problem="sch",
        archive=ArchiveConfig("grid", capacity=20, divisions=8),
        population_size=10,
        max_evaluations=200,
        seed=3,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigValidation:
    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            small_config(problem="mystery").validate()

    def test_unknown_archiver(self):
        with pytest.raises(ConfigError):
            small_config(archive=ArchiveConfig("tree")).validate()

    def test_population_too_small(self):
        with pytest.raises(ConfigError):
            small_config(population_size=1).validate()

    def test_budget_below_population(self):
        with pytest.raises(ConfigError):
            small_config(population_size=50, max_evaluations=49).validate()

    def test_replacement_count_range(self):
        with pytest.raises(ConfigError):
            small_config(replacement_count=0).validate()
        with pytest.raises(ConfigError):
            small_config(replacement_count=11).validate()

    def test_gps_needs_an_objective_floor(self):
        # every registered problem defines a floor, so this one has it removed
        problem = dataclasses.replace(engine.get_problem("sch"), objective_floor=None)
        ArchiveConfig("rn").validate(problem)
        ArchiveConfig("grid").validate(problem)
        message = "gps archiver needs an objective floor, which sch does not define"
        with pytest.raises(ConfigError, match=message):
            ArchiveConfig("gps").validate(problem)

    @pytest.mark.parametrize("inflation", [math.nan, math.inf, -math.inf, -0.5])
    def test_inflation_must_be_finite_and_non_negative(self, inflation):
        # a non-finite inflation would pad the bounds to inf or nan at the
        # first out-of-grid candidate, so it is refused before the run starts
        config = small_config(archive=ArchiveConfig("grid", inflation=inflation))
        message = f"inflation must be finite and >= 0, got {inflation}"
        with pytest.raises(ConfigError) as excinfo:
            config.validate()
        assert str(excinfo.value) == message
        with pytest.raises(ConfigError, match="inflation must be finite"):
            run(config)

    def test_lattice_up_to_the_enumeration_guard(self):
        # 100 x 100 is exactly the 10,000-point limit
        assert RunConfig(problem="lattice:100:0").validate().id == "lattice:100:0"
        with pytest.raises(ConfigError, match="10201 points"):
            RunConfig(problem="lattice:101:0").validate()

    def test_lattice_guard_lives_in_the_problem_registry_only(self):
        assert not hasattr(engine, "LATTICE_POINT_LIMIT")
        assert not hasattr(cli, "LATTICE_POINT_LIMIT")

    def test_preset_and_kind_must_agree(self):
        with pytest.raises(ConfigError):
            small_config(preset=2).validate()  # preset 2 needs the rn archiver
        with pytest.raises(ConfigError):
            small_config(
                archive=ArchiveConfig("rn", capacity=20), preset=4
            ).validate()

    def test_preset_two_disables_archive_selection(self):
        config = small_config(
            archive=ArchiveConfig("rn", capacity=20),
            preset=2,
            variation=VariationConfig(archive_parent_prob=0.9),
        )
        config.validate()
        assert config.archive_parent_prob() == 0.0
        assert not config.uses_strength_fitness()

    def test_preset_defaults_follow_the_archiver(self):
        assert small_config().effective_preset() == 4
        assert small_config(archive=ArchiveConfig("rn")).effective_preset() == 3


class TestInitialize:
    def test_population_evaluated_and_counted(self):
        state = initialize(small_config())
        assert len(state.population) == 10
        assert all(s.evaluated for s in state.population)
        assert state.counters.evaluations == 10

    def test_same_seed_gives_identical_population(self):
        a = initialize(small_config())
        b = initialize(small_config())
        assert [s.genome for s in a.population] == [s.genome for s in b.population]

    @pytest.mark.parametrize("kind", ["rn", "grid"])
    def test_archive_subset_of_nondominated_initial_population(self, kind):
        config = small_config(archive=ArchiveConfig(kind, capacity=20, divisions=8))
        state = initialize(config)
        pop_values = [s.objectives.values for s in state.population]
        oracle = oracle_front_values(pop_values)
        member_values = {s.objectives.values for s in state.archive.members()}
        assert member_values <= oracle

    def test_ids_unique(self):
        state = initialize(small_config())
        ids = [s.id for s in state.population]
        assert len(set(ids)) == len(ids)


class TestStep:
    def test_steady_state_adds_one_evaluation(self):
        config = small_config(replacement_count=1)
        state = initialize(config)
        before = state.counters.evaluations
        stats = step(state, config)
        assert state.counters.evaluations == before + 1
        assert stats.generation == 1
        assert stats.evaluations_done == state.counters.evaluations

    def test_generational_mode_replaces_population_size_candidates(self):
        config = small_config(replacement_count=10)
        state = initialize(config)
        before = state.counters.evaluations
        step(state, config)
        assert state.counters.evaluations == before + 10

    def test_budget_respected_mid_generation(self):
        config = small_config(max_evaluations=13, replacement_count=10)
        state = initialize(config)
        step(state, config)
        assert state.counters.evaluations == 13

    def test_population_size_is_invariant(self):
        config = small_config()
        state = initialize(config)
        for _ in range(30):
            step(state, config)
        assert len(state.population) == 10

    def test_stats_archive_size_matches_archive(self):
        config = small_config()
        state = initialize(config)
        stats = step(state, config)
        assert stats.archive_size == len(state.archive.members())

    @pytest.mark.parametrize("replacement_count", [1, 10, 40])
    def test_tournament_reads_each_members_strength_fitness(
        self, monkeypatch, replacement_count
    ):
        # at every parent draw, fitness[i] is the oracle's value for a member
        # present when the generation began and the strength floor 1.0 for an
        # entrant; update_population reports the slot each child took
        fitness_of = RnArchive.strength_fitness
        select = engine.select_parents
        place = engine.update_population
        snapshot = {}
        seen = {"dominated": 0, "entrants": 0}

        def recording_fitness(archive, population, counters=None):
            snapshot["population"] = list(population)
            snapshot["want"] = strength_fitness_oracle(archive.members(), population)
            return fitness_of(archive, population, counters)

        def checking_select(population, archive_members, rng, prob, fitness=None):
            assert len(fitness) == len(population)
            for i, member in enumerate(population):
                if member is snapshot["population"][i]:
                    assert fitness[i] == snapshot["want"][member.id]
                    seen["dominated"] += fitness[i] > 1.0
                else:
                    assert fitness[i] == 1.0
                    seen["entrants"] += 1
            return select(population, archive_members, rng, prob, fitness=fitness)

        def checking_place(state, child, accepted):
            before = list(state.population)
            index = place(state, child, accepted)
            if index is None:
                assert state.population == before
            else:
                assert state.population[index] is child
                assert state.population[:index] + state.population[index + 1:] == (
                    before[:index] + before[index + 1:]
                )
            return index

        monkeypatch.setattr(RnArchive, "strength_fitness", recording_fitness)
        monkeypatch.setattr(engine, "select_parents", checking_select)
        monkeypatch.setattr(engine, "update_population", checking_place)
        for seed in range(4):
            run(RunConfig(
                problem="zdt1",
                archive=ArchiveConfig("rn", capacity=30),
                population_size=40,
                preset=3,
                replacement_count=replacement_count,
                max_evaluations=400,
                seed=seed,
            ))
        assert seen["dominated"] > 0
        assert (seen["entrants"] > 0) == (replacement_count > 1)


class TestUpdatePopulation:
    def _state(self):
        config = small_config()
        return initialize(config)

    def _child(self, state, values):
        child = Solution(10_000, (1.0,), ObjectiveVector(values))
        return child

    def test_accepted_child_replaces_a_member_it_dominates(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((0.2, 0.2))
        state.population[4].objectives = ObjectiveVector((30.0, 30.0))
        child = self._child(state, (0.5, 0.5))  # dominates only member 4
        assert update_population(state, child, True) == 4
        assert state.population[4] is child

    def test_rejected_child_dominated_by_sampled_member_is_discarded(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((0.1, 0.1))
        before = list(state.population)
        child = self._child(state, (5.0, 5.0))
        assert update_population(state, child, False) is None
        assert state.population == before

    def test_accepted_incomparable_child_swaps_exactly_one_member(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((0.0, 10.0))
        child = self._child(state, (1.0, 1.0))  # incomparable to every member
        before = list(state.population)
        index = update_population(state, child, True)
        swapped = [i for i, (a, b) in enumerate(zip(before, state.population)) if a is not b]
        assert swapped == [index]
        assert state.population[index] is child

    def test_rejected_child_dominating_sampled_member_enters(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((5.0, 5.0))
        child = self._child(state, (0.5, 0.5))
        index = update_population(state, child, False)
        assert index is not None and state.population[index] is child


class TestRun:
    def test_zero_step_run_reports_the_initial_archive(self):
        config = small_config(max_evaluations=10)  # equals population_size
        result = run(config)
        assert result.summary["evaluations"] == 10
        assert len(result.stats) == 1
        initial = initialize(small_config(max_evaluations=10))
        expected = {s.objectives.values for s in initial.archive.finalize()}
        assert {s.objectives.values for s in result.front} == expected

    def test_front_is_pairwise_nondominated_sch_grid(self):
        config = RunConfig(
            problem="sch",
            archive=ArchiveConfig("grid", capacity=50, divisions=16),
            population_size=20,
            max_evaluations=5000,
            seed=7,
        )
        result = run(config)
        assert oracle_pairwise_nondominating(
            [s.objectives.values for s in result.front]
        )

    @pytest.mark.parametrize("kind", ["rn", "grid", "gps"])
    def test_replay_determinism_across_archivers(self, kind):
        config = RunConfig(
            problem="sch",
            archive=ArchiveConfig(kind, capacity=25, divisions=8, rays_per_axis=32),
            population_size=12,
            max_evaluations=400,
            seed=11,
            local_search=LocalSearchConfig(steps=2, step_scale=0.05),
        )
        a, b = run(config), run(config)
        assert a.stats == b.stats
        assert [(s.id, s.genome, s.objectives.values) for s in a.front] == [
            (s.id, s.genome, s.objectives.values) for s in b.front
        ]
        assert a.summary == b.summary

    def test_budget_never_exceeded_across_random_configs(self):
        # randomized mini-runs, local search included in the accounting
        rng = np.random.default_rng(0)
        for case in range(1000):
            pop = int(rng.integers(2, 7))
            budget = pop + int(rng.integers(0, 21))
            ls_on = bool(rng.random() < 0.4)
            config = RunConfig(
                problem="sch",
                archive=ArchiveConfig("grid", capacity=8, divisions=4),
                population_size=pop,
                max_evaluations=budget,
                replacement_count=int(rng.integers(1, pop + 1)),
                seed=case,
                local_search=LocalSearchConfig(steps=3 if ls_on else 0, step_scale=0.1),
            )
            result = run(config)
            assert result.summary["evaluations"] <= budget

    def test_every_evaluation_goes_through_engine_evaluate(self, monkeypatch):
        # the name a profiler wraps to count a run's evaluations
        calls = 0
        evaluate = engine.evaluate

        def counted(problem, genome):
            nonlocal calls
            calls += 1
            return evaluate(problem, genome)

        monkeypatch.setattr(engine, "evaluate", counted)
        result = run(
            RunConfig(
                problem="sch",
                archive=ArchiveConfig("grid"),
                population_size=10,
                max_evaluations=300,
                seed=0,
                local_search=LocalSearchConfig(steps=3),
            )
        )
        assert calls == result.summary["evaluations"] == 300

    def test_metrics_snapshots_at_checkpoints(self):
        config = small_config(max_evaluations=100, metrics_every=25)
        result = run(config)
        snapshot_evals = [
            st.evaluations_done for st in result.stats if st.metrics
        ]
        assert snapshot_evals == [25, 50, 75, 100]
        for st in result.stats:
            if st.metrics:
                assert "gd" in st.metrics

    def test_tracker_matches_deterioration_oracle(self, monkeypatch):
        # every solution that leaves an rn archive, collected from the
        # outcomes of all insertions, the initial population's included
        evicted = []
        insert = RnArchive.try_insert

        def recording_insert(archive, candidate, counters):
            outcome, feedback = insert(archive, candidate, counters)
            evicted.extend(outcome.departed)
            return outcome, feedback

        monkeypatch.setattr(RnArchive, "try_insert", recording_insert)
        # small rn archives force truncation and deterioration
        for seed in range(25):
            evicted.clear()
            config = RunConfig(
                problem="lattice:12:3",
                archive=ArchiveConfig("rn", capacity=4),
                population_size=8,
                max_evaluations=200,
                seed=seed,
            )
            state = initialize(config)
            while state.counters.evaluations < config.max_evaluations:
                stats = step(state, config)
                expected = deterioration_check(evicted, state.archive.members())
                assert stats.deterioration_events == expected
                # the tracker and deterioration_check share one kernel; the
                # plain-loop oracle keeps the check independent of it
                assert stats.deterioration_events == oracle_deterioration_count(
                    evicted, state.archive.members()
                )
                assert_history_is_evicted_front(state.tracker, evicted)

    @pytest.mark.parametrize("seed", range(4))
    def test_tracker_matches_oracle_on_arbitrary_evictions(self, seed):
        # archivers evict mutually nondominated points, so a run rarely makes
        # one eviction batch dominate some members and not others; a stub
        # archive with random evictions does so on most steps
        rng = np.random.default_rng(seed)
        tracker = DeteriorationTracker(2)
        store = StubStore()
        history = []
        for i in range(300):
            candidate = sol(i, tuple(float(x) for x in rng.integers(0, 6, size=2)))
            evicted = [m for m in store.current if rng.random() < 0.2]
            store.current = [m for m in store.current if m not in evicted]
            accepted = bool(rng.random() < 0.7)
            if accepted:
                store.current.append(candidate)
            history += evicted
            tracker.observe(store, candidate, accepted, evicted)
            assert tracker.count() == oracle_deterioration_count(history, store.current)
            assert_history_is_evicted_front(tracker, history)

    @pytest.mark.parametrize("seed", range(4))
    def test_tracker_matches_the_broadcast_tracker_on_arbitrary_evictions(self, seed):
        # batches of several rows, with duplicates and rows that dominate one
        # another, evicted from members that need not be nondominated
        rng = np.random.default_rng(seed)
        paired = PairedTracker(3)
        store = StubStore()
        multi = duplicates = dominating = 0
        for i in range(300):
            candidate = sol(i, tuple(float(x) for x in rng.integers(0, 4, size=3)))
            evicted = [m for m in store.current if rng.random() < 0.3]
            store.current = [m for m in store.current if m not in evicted]
            accepted = bool(rng.random() < 0.8)
            if accepted:
                store.current.append(candidate)
            rows = [s.objectives.values for s in evicted]
            multi += len(rows) > 1
            duplicates += len(set(rows)) < len(rows)
            dominating += any(
                a != b and all(x <= y for x, y in zip(a, b)) for a in rows for b in rows
            )
            paired.observe(store, candidate, accepted, evicted)
        assert multi > 20 and duplicates > 0 and dominating > 10
        assert paired.peak > 0

    @settings(max_examples=300, deadline=None)
    @given(tracker_steps)
    # (0.0, 1.0) leaves, then the equal (-0.0, 1.0): the first stays kept
    @example([
        ((0.0, 1.0), True, frozenset()),
        ((-0.0, 1.0), True, frozenset()),
        ((3.0, 3.0), False, frozenset({0})),
        ((3.0, 3.0), False, frozenset({0})),
    ])
    # one batch of two equal rows and a row both of them dominate
    @example([
        ((2.0, 2.0), True, frozenset()),
        ((1.0, 1.0), True, frozenset()),
        ((1.0, 1.0), True, frozenset()),
        ((0.0, 3.0), True, frozenset()),
        ((3.0, 0.0), True, frozenset({0, 1, 2})),
    ])
    def test_staircase_matches_the_broadcast_tracker(self, steps):
        # a stub's members need not be nondominated, so one eviction batch can
        # hold duplicates and rows that dominate one another
        paired = PairedTracker(2)
        store = StubStore()
        for i, (values, accepted, picks) in enumerate(steps):
            candidate = sol(i, values)
            evicted = [m for k, m in enumerate(store.current) if k in picks]
            store.current = [m for m in store.current if m not in evicted]
            if accepted:
                store.current.append(candidate)
            paired.observe(store, candidate, accepted, evicted)

    def test_tracker_matches_the_broadcast_tracker_in_runs(self, monkeypatch):
        monkeypatch.setattr(engine, "DeteriorationTracker", PairedTracker)
        configs = [
            RunConfig(
                problem="lattice:12:3",
                archive=ArchiveConfig("rn", capacity=4),
                population_size=8,
                max_evaluations=200,
                seed=seed,
            )
            for seed in range(25)
        ]
        configs.append(
            RunConfig(
                problem="zdt1",
                archive=ArchiveConfig("grid", capacity=100),
                population_size=40,
                max_evaluations=3000,
            )
        )
        configs.append(
            RunConfig(
                problem="zdt2",
                archive=ArchiveConfig("gps"),
                population_size=40,
                max_evaluations=3000,
            )
        )
        peaks = {}
        for config in configs:
            state = initialize(config)
            while state.counters.evaluations < config.max_evaluations:
                step(state, config)
            peaks[config.problem] = max(peaks.get(config.problem, 0), state.tracker.peak)
        # the lattice and gps runs deteriorate, so the id sets are exercised
        assert peaks["lattice:12:3"] > 0
        assert peaks["zdt2"] > 0

    def test_summary_reports_gps_monotonicity(self):
        config = RunConfig(
            problem="sch",
            archive=ArchiveConfig("gps", rays_per_axis=32),
            population_size=10,
            max_evaluations=300,
            seed=5,
        )
        result = run(config)
        assert result.summary["gps_monotonic"] is True
        assert result.summary["archive_size"] == len(result.archive.members())
