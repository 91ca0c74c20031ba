"""The steady-state main loop: initialize, generate, evaluate, archive update,
population update, terminate on the evaluation budget.

The replacement count per generation parameterizes the generation gap:
1 is fully steady-state, population_size is generational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .archives import (
    Archive,
    FeedbackSignal,
    GpsArchive,
    GridArchive,
    GridSpec,
    RaySpec,
    RnArchive,
)
from .core import (
    Counters,
    ObjectiveVector,
    Solution,
    deterioration_check,  # not called here; the benchmark's trace list names it
    dominance_masks,
    dominates,
    nondominated_filter,
)
from .generator import (
    LocalSearchConfig,
    VariationConfig,
    generate,
    local_search,
    select_parents,
)
from .metrics import generational_distance, spacing
from .problems import (
    ProblemSpec,
    UnknownProblemError,
    brute_force_front,
    evaluate,
    get_problem,
    true_front_sample,
)

ARCHIVE_KINDS = ("rn", "grid", "gps")

# taxonomy presets: 2 = elitist store without selection feedback,
# 3 = mixed selection over population and archive, 4 = sampling archivers
PRESET_KINDS = {2: ("rn",), 3: ("rn",), 4: ("grid", "gps")}

_FRONT_SAMPLE_SIZE = 500


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class ArchiveConfig:
    kind: str
    capacity: int = 100
    divisions: int = 32
    inflation: float = 0.1
    rays_per_axis: int = 64
    grid_lower: tuple[float, ...] | None = None
    grid_upper: tuple[float, ...] | None = None

    def validate(self) -> None:
        if self.kind not in ARCHIVE_KINDS:
            raise ConfigError(
                f"unknown archive kind {self.kind!r}; expected one of {ARCHIVE_KINDS}"
            )
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        if self.divisions < 1:
            raise ConfigError(f"divisions must be >= 1, got {self.divisions}")
        if self.rays_per_axis < 1:
            raise ConfigError(f"rays_per_axis must be >= 1, got {self.rays_per_axis}")
        if self.inflation < 0:
            raise ConfigError(f"inflation must be >= 0, got {self.inflation}")


@dataclass(frozen=True)
class RunConfig:
    problem: str
    archive: ArchiveConfig = field(default_factory=lambda: ArchiveConfig("grid"))
    m: int | None = None
    population_size: int = 40
    variation: VariationConfig = field(default_factory=VariationConfig)
    local_search: LocalSearchConfig = field(default_factory=LocalSearchConfig)
    seed: int = 0
    max_evaluations: int = 5000
    replacement_count: int = 1
    preset: int | None = None
    metrics_every: int | None = None

    def validate(self) -> ProblemSpec:
        """Check every invariant; returns the resolved problem."""
        try:
            problem = get_problem(self.problem)
        except UnknownProblemError as exc:
            raise ConfigError(str(exc)) from exc
        self.archive.validate()
        if self.m is not None and self.m != problem.m:
            raise ConfigError(
                f"configured m={self.m} but problem {problem.id} has m={problem.m}"
            )
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_evaluations < self.population_size:
            raise ConfigError(
                "max_evaluations must cover at least the initial population "
                f"({self.max_evaluations} < {self.population_size})"
            )
        if not 1 <= self.replacement_count <= self.population_size:
            raise ConfigError(
                f"replacement_count must be in [1, population_size], got {self.replacement_count}"
            )
        if self.preset is not None:
            if self.preset not in PRESET_KINDS:
                raise ConfigError(f"preset must be one of {sorted(PRESET_KINDS)}")
            if self.archive.kind not in PRESET_KINDS[self.preset]:
                raise ConfigError(
                    f"preset {self.preset} requires an archive kind in "
                    f"{PRESET_KINDS[self.preset]}, got {self.archive.kind!r}"
                )
        if self.metrics_every is not None and self.metrics_every < 1:
            raise ConfigError(f"metrics_every must be >= 1, got {self.metrics_every}")
        return problem

    def effective_preset(self) -> int:
        if self.preset is not None:
            return self.preset
        return 3 if self.archive.kind == "rn" else 4

    def archive_parent_prob(self) -> float:
        # preset 2 keeps the archive out of selection entirely
        if self.effective_preset() == 2:
            return 0.0
        return self.variation.archive_parent_prob

    def uses_strength_fitness(self) -> bool:
        return self.archive.kind == "rn" and self.effective_preset() == 3


@dataclass
class GenerationStats:
    generation: int
    evaluations_done: int
    archive_size: int
    accepted_count: int
    deterioration_events: int
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "evaluations_done": self.evaluations_done,
            "archive_size": self.archive_size,
            "accepted_count": self.accepted_count,
            "deterioration_events": self.deterioration_events,
            "metrics": dict(self.metrics),
        }


class DeteriorationTracker:
    """Incrementally tracks which current members are strictly dominated by
    some point evicted earlier in the run.

    The history keeps only the nondominated, duplicate-free subset of the
    evicted rows. That is enough: a dropped row is weakly dominated by a kept
    one, and whatever a dropped row strictly dominates, that kept row strictly
    dominates too. So the history grows with the front of the evicted points,
    not with the number of evaluations.
    """

    def __init__(self, m: int):
        self._history = np.empty((0, m), dtype=float)
        self._deteriorated: set[int] = set()

    @property
    def _used(self) -> int:
        # the benchmark reads this as history_rows
        return len(self._history)

    def _remember(self, rows: np.ndarray) -> None:
        # one row at a time: rows of one batch may dominate or equal each other
        for row in rows:
            row = row[None]
            covered, _ = dominance_masks(self._history, row)
            if covered.any():
                continue
            _, beaten = dominance_masks(row, self._history)
            self._history = np.concatenate((self._history[~beaten[0]], row))

    def observe(
        self,
        archive: Archive,
        candidate: Solution,
        accepted: bool,
        newly_evicted: Sequence[Solution],
    ) -> None:
        members = archive.members()
        member_ids = {s.id for s in members}
        self._deteriorated &= member_ids
        if newly_evicted:
            evicted_rows = np.asarray(
                [s.objectives.values for s in newly_evicted], dtype=float
            )
            if members:
                _, strict = dominance_masks(
                    evicted_rows,
                    np.array([s.objectives.values for s in members], dtype=float),
                )
                self._deteriorated.update(
                    m.id for m, beaten in zip(members, strict.any(axis=0).tolist()) if beaten
                )
            self._remember(evicted_rows)
        if accepted and candidate.id in member_ids and len(self._history):
            _, strict = dominance_masks(
                self._history, np.array([candidate.objectives.values], dtype=float)
            )
            if strict.any():
                self._deteriorated.add(candidate.id)

    def count(self) -> int:
        return len(self._deteriorated)


@dataclass
class RunState:
    problem: ProblemSpec
    population: list[Solution]
    archive: Archive
    counters: Counters
    generation: int
    rng: np.random.Generator
    ids: Iterator[int]
    tracker: DeteriorationTracker
    last_feedback: FeedbackSignal | None = None
    front_reference: list[ObjectiveVector] | None = None

    @property
    def evaluations_done(self) -> int:
        return self.counters.evaluations


@dataclass
class RunResult:
    config: RunConfig
    front: list[Solution]
    stats: list[GenerationStats]
    counters: Counters
    archive: Archive
    summary: dict


def build_archive(config: ArchiveConfig, problem: ProblemSpec) -> Archive:
    config.validate()
    if config.kind == "rn":
        return RnArchive(config.capacity)
    if config.kind == "grid":
        lower = config.grid_lower if config.grid_lower is not None else (0.0,) * problem.m
        upper = config.grid_upper if config.grid_upper is not None else (1.0,) * problem.m
        if len(lower) != problem.m or len(upper) != problem.m:
            raise ConfigError("grid bounds must match the problem's objective count")
        spec = GridSpec(ObjectiveVector(lower), ObjectiveVector(upper), config.divisions)
        return GridArchive(config.capacity, spec, config.inflation)
    if problem.objective_floor is None:
        raise ConfigError(
            f"gps archiver needs an objective floor, which {problem.id} does not define"
        )
    return GpsArchive(RaySpec(problem.objective_floor, config.rays_per_axis))


def _evaluate(state: RunState, genome: tuple[float, ...]) -> ObjectiveVector:
    state.counters.evaluations += 1
    return evaluate(state.problem, genome)


def _offer(state: RunState, candidate: Solution) -> FeedbackSignal:
    outcome, feedback = state.archive.try_insert(candidate, state.counters)
    state.tracker.observe(state.archive, candidate, outcome.accepted, outcome.departed)
    state.last_feedback = feedback
    return feedback


def initialize(config: RunConfig) -> RunState:
    """Sample and evaluate the initial population, offering every member to
    the archive."""
    problem = config.validate()
    rng = np.random.default_rng(config.seed)
    ids = itertools.count()
    state = RunState(
        problem=problem,
        population=[],
        archive=build_archive(config.archive, problem),
        counters=Counters(),
        generation=0,
        rng=rng,
        ids=ids,
        tracker=DeteriorationTracker(problem.m),
    )
    for _ in range(config.population_size):
        genome = tuple(
            lo + (hi - lo) * r
            for (lo, hi), r in zip(problem.bounds, rng.random(problem.n_var).tolist())
        )
        sol = Solution(next(ids), genome)
        sol.objectives = _evaluate(state, genome)
        state.population.append(sol)
    for sol in state.population:
        _offer(state, sol)
    return state


def update_population(
    state: RunState, child: Solution, feedback: FeedbackSignal
) -> None:
    """Feedback-driven replacement: an archive-accepted child always enters the
    population (displacing a member it dominates when one exists, otherwise a
    random member); a rejected child only enters by dominating a randomly
    sampled member."""
    pop = state.population
    if feedback.accepted:
        index = None
        for i, member in enumerate(pop):
            if dominates(child.objectives, member.objectives, state.counters):
                index = i
                break
        if index is None:
            index = int(state.rng.integers(len(pop)))
        pop[index] = child
    else:
        index = int(state.rng.integers(len(pop)))
        if dominates(child.objectives, pop[index].objectives, state.counters):
            pop[index] = child


def _front_reference(state: RunState) -> list[ObjectiveVector] | None:
    if state.front_reference is not None:
        return state.front_reference
    problem = state.problem
    if problem.front_sampler is not None:
        state.front_reference = true_front_sample(problem, _FRONT_SAMPLE_SIZE)
    elif problem.table is not None:
        state.front_reference = brute_force_front(problem)
    return state.front_reference


def compute_metrics(state: RunState) -> dict[str, float]:
    """Convergence/diversity snapshot of the archive's nondominated members."""
    front = nondominated_filter(state.archive.members())
    values: dict[str, float] = {}
    reference = _front_reference(state)
    vectors = [s.objectives for s in front]
    if reference and vectors:
        values["gd"] = generational_distance(vectors, reference)
    if len(vectors) >= 2:
        values["spacing"] = spacing(vectors)
    return values


def step(state: RunState, config: RunConfig) -> GenerationStats:
    """One generation: replacement_count child insertions (or fewer when the
    evaluation budget runs out mid-generation)."""
    accepted_count = 0
    fitness = None
    if config.uses_strength_fitness():
        fitness = state.archive.strength_fitness(state.population, state.counters)
    parent_prob = config.archive_parent_prob()
    evals_before = state.counters.evaluations
    for _ in range(config.replacement_count):
        if state.counters.evaluations >= config.max_evaluations:
            break
        parents = select_parents(
            state.population,
            state.archive.members(),
            state.rng,
            parent_prob,
            fitness_by_id=fitness,
            feedback=state.last_feedback,
        )
        child = generate(
            parents, config.variation, state.problem.bounds, state.rng, state.ids
        )
        child.objectives = _evaluate(state, child.genome)
        if config.local_search.enabled:
            child = local_search(
                child,
                state.problem,
                config.local_search,
                state.rng,
                state.ids,
                state.counters,
                max_evaluations=config.max_evaluations,
            )
        feedback = _offer(state, child)
        if feedback.accepted:
            accepted_count += 1
        update_population(state, child, feedback)
        if fitness is not None:
            # entrants newer than this generation's fitness snapshot count as
            # archive-nondominated, which is exactly the strength floor
            fitness[child.id] = 1.0
    state.generation += 1
    metrics: dict[str, float] = {}
    if config.metrics_every is not None:
        if evals_before // config.metrics_every < state.counters.evaluations // config.metrics_every:
            metrics = compute_metrics(state)
    return GenerationStats(
        generation=state.generation,
        evaluations_done=state.counters.evaluations,
        archive_size=len(state.archive.members()),
        accepted_count=accepted_count,
        deterioration_events=state.tracker.count(),
        metrics=metrics,
    )


def run(config: RunConfig) -> RunResult:
    """Execute a full run; (config, seed) determines every output."""
    state = initialize(config)
    stats = [
        GenerationStats(
            generation=0,
            evaluations_done=state.counters.evaluations,
            archive_size=len(state.archive.members()),
            accepted_count=len(state.archive.members()),
            deterioration_events=state.tracker.count(),
        )
    ]
    while state.counters.evaluations < config.max_evaluations:
        stats.append(step(state, config))
    front = state.archive.finalize()
    summary = {
        "problem": state.problem.id,
        "archive_kind": config.archive.kind,
        "seed": config.seed,
        "front_size": len(front),
        "archive_size": len(state.archive.members()),
        "evaluations": state.counters.evaluations,
        "dominance_comparisons": state.counters.dominance_comparisons,
        "cell_lookups": state.counters.cell_lookups,
        "deterioration_events": state.tracker.count(),
        "metrics": compute_metrics(state),
    }
    if isinstance(state.archive, GpsArchive):
        summary["gps_monotonic"] = state.archive.monotonicity_violations == 0
        summary["occupied_rays"] = state.archive.occupied_rays()
    return RunResult(
        config=config,
        front=front,
        stats=stats,
        counters=state.counters,
        archive=state.archive,
        summary=summary,
    )


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    return replace(config, seed=seed)
