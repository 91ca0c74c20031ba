import numpy as np
import pytest

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
from moealab.archives import FeedbackSignal, RnArchive
from moealab.engine import DeteriorationTracker
from oracles import (
    oracle_deterioration_count,
    oracle_front_indices,
    oracle_front_values,
    oracle_pairwise_nondominating,
    sol,
)


def assert_history_is_evicted_front(tracker, evicted):
    # the tracker's rows, as a set and without repeats, are the nondominated
    # subset of every point evicted so far
    values = sorted({s.objectives.values for s in evicted})
    rows = [tuple(row) for row in tracker._history.tolist()]
    assert len(rows) == len(set(rows))
    assert set(rows) == {values[i] for i in oracle_front_indices(values)}


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

    def test_m_mismatch(self):
        with pytest.raises(ConfigError):
            small_config(m=3).validate()

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
        assert state.evaluations_done == 10
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
        before = state.evaluations_done
        stats = step(state, config)
        assert state.evaluations_done == before + 1
        assert stats.generation == 1
        assert stats.evaluations_done == state.evaluations_done

    def test_generational_mode_replaces_population_size_candidates(self):
        config = small_config(replacement_count=10)
        state = initialize(config)
        before = state.evaluations_done
        step(state, config)
        assert state.evaluations_done == before + 10

    def test_budget_respected_mid_generation(self):
        config = small_config(max_evaluations=13, replacement_count=10)
        state = initialize(config)
        step(state, config)
        assert state.evaluations_done == 13

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
        update_population(state, child, FeedbackSignal(True, 0.0, 1))
        assert state.population[4] is child

    def test_rejected_child_dominated_by_sampled_member_is_discarded(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((0.1, 0.1))
        before = list(state.population)
        child = self._child(state, (5.0, 5.0))
        update_population(state, child, FeedbackSignal(False, 0.0, 1))
        assert state.population == before

    def test_accepted_incomparable_child_swaps_exactly_one_member(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((0.0, 10.0))
        child = self._child(state, (1.0, 1.0))  # incomparable to every member
        before = list(state.population)
        update_population(state, child, FeedbackSignal(True, 0.0, 1))
        swapped = [i for i, (a, b) in enumerate(zip(before, state.population)) if a is not b]
        assert len(swapped) == 1
        assert state.population[swapped[0]] is child

    def test_rejected_child_dominating_sampled_member_enters(self):
        state = self._state()
        for member in state.population:
            member.objectives = ObjectiveVector((5.0, 5.0))
        child = self._child(state, (0.5, 0.5))
        update_population(state, child, FeedbackSignal(False, 0.0, 1))
        assert child in state.population


class TestRun:
    def test_zero_step_run_reports_the_initial_archive(self):
        config = small_config(max_evaluations=10)  # equals population_size
        result = run(config)
        assert result.counters.evaluations == 10
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
            local_search=LocalSearchConfig(enabled=True, steps=2, step_scale=0.05),
        )
        a, b = run(config), run(config)
        assert [s.to_dict() for s in a.stats] == [s.to_dict() for s in b.stats]
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
                local_search=LocalSearchConfig(
                    enabled=ls_on, steps=3 if ls_on else 0, step_scale=0.1
                ),
            )
            result = run(config)
            assert result.counters.evaluations <= budget

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
            while state.evaluations_done < config.max_evaluations:
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
        class Store:
            def __init__(self):
                self.current = []

            def members(self):
                return list(self.current)

        rng = np.random.default_rng(seed)
        tracker = DeteriorationTracker(2)
        store = Store()
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
        assert result.summary["occupied_rays"] == len(result.archive.members())
