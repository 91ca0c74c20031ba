"""The steady-state main loop: initialize, generate, evaluate, archive update,
population update, terminate on the evaluation budget.

The replacement count per generation parameterizes the generation gap:
1 is fully steady-state, population_size is generational.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .archives import (
    Archive,
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
    first_dominated,
    nondominated_filter,
    staircase_run,
    weak_relations,
)
from .generator import RandomStream, VariationConfig, generate, select_parents
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

    def validate(self, problem: ProblemSpec) -> None:
        """Check every invariant, including those the problem's objectives
        set: grid bounds of its dimension, and a floor for gps."""
        if self.kind not in ARCHIVE_KINDS:
            raise ConfigError(
                f"unknown archive kind {self.kind!r}; expected one of {ARCHIVE_KINDS}"
            )
        if self.capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {self.capacity}")
        for name in ("divisions", "rays_per_axis"):
            count = getattr(self, name)
            if count < 1:
                raise ConfigError(f"{name} must be >= 1, got {count}")
            # cell_of and ray_of scale by the count as a float
            if count > sys.float_info.max:
                raise ConfigError(
                    f"{name} must be at most the largest float, {sys.float_info.max!r}"
                )
        if not 0 <= self.inflation <= sys.float_info.max:
            raise ConfigError(
                f"inflation must be finite and >= 0, got {self.inflation}"
            )
        if self.kind == "grid":
            lower, upper = self._grid_bounds(problem.m)
            if len(lower) != problem.m or len(upper) != problem.m:
                raise ConfigError("grid bounds must match the problem's objective count")
            if not all(lo < hi for lo, hi in zip(lower, upper)):
                raise ConfigError(
                    f"archive grid_lower {lower} must be strictly below grid_upper "
                    f"{upper} on every axis"
                )
        if self.kind == "gps" and problem.objective_floor is None:
            raise ConfigError(
                f"gps archiver needs an objective floor, which {problem.id} does not define"
            )

    def _grid_bounds(self, m: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """grid_lower and grid_upper, defaulting to 0 and 1 on each of m axes."""
        lower = self.grid_lower if self.grid_lower is not None else (0.0,) * m
        upper = self.grid_upper if self.grid_upper is not None else (1.0,) * m
        return lower, upper


@dataclass(frozen=True)
class LocalSearchConfig:
    steps: int = 0  # 0 runs no local search
    step_scale: float = 0.05

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.step_scale <= 0:
            raise ValueError(f"step_scale must be > 0, got {self.step_scale}")


@dataclass(frozen=True)
class RunConfig:
    problem: str
    archive: ArchiveConfig = field(default_factory=lambda: ArchiveConfig("grid"))
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
        self.archive.validate(problem)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


class DeteriorationTracker:
    """Incrementally tracks which current members are strictly dominated by
    some point evicted earlier in the run.

    The history keeps only the nondominated, duplicate-free subset of the
    evicted rows. That is enough: a dropped row is weakly dominated by a kept
    one, and whatever a dropped row strictly dominates, that kept row strictly
    dominates too. So the history grows with the front of the evicted points,
    not with the number of evaluations.

    For M = 2 that subset is a staircase, and both tests and updates go
    through core.staircase_run. For other M the rows are an array tested with
    weak_relations.
    """

    def __init__(self, m: int):
        self._staircase = m == 2
        self._history: list[tuple[float, ...]] | np.ndarray = (
            [] if self._staircase else np.empty((0, m), dtype=float)
        )
        self._deteriorated: set[int] = set()

    @property
    def _used(self) -> int:
        # the benchmark reads this as history_rows
        return len(self._history)

    def _remember(self, rows: Iterable[tuple[float, ...]]) -> None:
        # one row at a time: rows of one batch may dominate or equal each other
        if self._staircase:
            history = self._history
            for values in rows:
                start, i, end = staircase_run(history, values)
                if start == i:
                    history[i:end] = [values]
            return
        for values in rows:
            covered, beaten = weak_relations(self._history, values)
            if covered.any():
                continue
            # nothing kept weakly dominates the row, so every kept row it
            # weakly dominates it dominates
            kept = self._history[~beaten] if beaten.any() else self._history
            self._history = np.concatenate((kept, [values]))

    def _dominated(self, values: tuple[float, ...]) -> bool:
        """Whether some kept row strictly dominates `values`."""
        history = self._history
        if self._staircase:
            start, i, _ = staircase_run(history, values)
            # a kept row equal to values is the last of the run
            return start < i and history[i - 1] != values
        below, above = weak_relations(history, values)
        return bool((below & ~above).any())

    def observe(
        self,
        archive: Archive,
        candidate: Solution,
        accepted: bool,
        newly_evicted: Sequence[Solution],
    ) -> None:
        """Take in one insertion: `newly_evicted` is its outcome's departed,
        the only way a member leaves, and an accepted candidate is a member."""
        if newly_evicted:
            self._deteriorated.difference_update(s.id for s in newly_evicted)
            rows = [s.objectives.values for s in newly_evicted]
            # a store that declares no departure can dominate a member left
            # (rn and grid do, gps does not) needs no test of them
            if not archive.departures_dominate_no_member:
                members = archive.members()
                if members:
                    _, strict = dominance_masks(
                        rows, [m.objectives.values for m in members]
                    )
                    self._deteriorated.update(
                        m.id
                        for m, hit in zip(members, strict.any(axis=0).tolist())
                        if hit
                    )
            self._remember(rows)
        if accepted and len(self._history) and self._dominated(candidate.objectives.values):
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
    # every draw of the run goes through it
    rng: RandomStream
    ids: Iterator[int]
    tracker: DeteriorationTracker
    front_reference: list[ObjectiveVector] | None = None


@dataclass
class RunResult:
    config: RunConfig
    front: list[Solution]
    stats: list[GenerationStats]
    archive: Archive
    summary: dict


def build_archive(config: ArchiveConfig, problem: ProblemSpec) -> Archive:
    config.validate(problem)
    if config.kind == "rn":
        return RnArchive(config.capacity)
    if config.kind == "grid":
        lower, upper = config._grid_bounds(problem.m)
        spec = GridSpec(ObjectiveVector(lower), ObjectiveVector(upper), config.divisions)
        return GridArchive(config.capacity, spec, config.inflation)
    return GpsArchive(RaySpec(problem.objective_floor, config.rays_per_axis))


def _evaluate(state: RunState, genome: tuple[float, ...]) -> ObjectiveVector:
    state.counters.evaluations += 1
    return evaluate(state.problem, genome)


def local_search(state: RunState, child: Solution, config: RunConfig) -> Solution:
    """Up to config.local_search.steps single-coordinate perturbations of the
    child, each of magnitude at most step_scale times the variable's range; a
    move is kept only when its objectives dominate the current ones.

    The returned solution is therefore never dominated by the child. Every
    trial is one evaluation of the run's budget, and none is made once
    config.max_evaluations is spent.
    """
    rng, bounds, counters = state.rng, state.problem.bounds, state.counters
    step_scale = config.local_search.step_scale
    current = child
    n = len(child.genome)
    for _ in range(config.local_search.steps):
        if counters.evaluations >= config.max_evaluations:
            break
        k = rng.integers(n)
        lo, hi = bounds[k]
        genes = list(current.genome)
        delta = (2.0 * rng.random() - 1.0) * step_scale * (hi - lo)
        genes[k] = min(hi, max(lo, genes[k] + delta))
        genome = tuple(genes)
        objectives = _evaluate(state, genome)
        if dominates(objectives, current.objectives, counters):
            current = Solution(next(state.ids), genome, objectives)
    return current


def _offer(state: RunState, candidate: Solution) -> bool:
    """Offer a candidate to the archive; returns whether it was accepted."""
    outcome, _ = state.archive.try_insert(candidate, state.counters)
    state.tracker.observe(state.archive, candidate, outcome.accepted, outcome.departed)
    return outcome.accepted


def initialize(config: RunConfig) -> RunState:
    """Sample and evaluate the initial population, offering every member to
    the archive."""
    problem = config.validate()
    rng = RandomStream(np.random.default_rng(config.seed))
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
        genome = tuple(lo + (hi - lo) * rng.random() for lo, hi in problem.bounds)
        sol = Solution(next(ids), genome)
        sol.objectives = _evaluate(state, genome)
        state.population.append(sol)
    for sol in state.population:
        _offer(state, sol)
    return state


def update_population(state: RunState, child: Solution, accepted: bool) -> int | None:
    """Archive-driven replacement: an archive-accepted child always enters the
    population (displacing a member it dominates when one exists, otherwise a
    random member); a rejected child only enters by dominating a randomly
    sampled member. Returns the slot the child took, or None."""
    pop = state.population
    if accepted:
        index = first_dominated(child.objectives, pop, state.counters)
        if index is None:
            index = state.rng.integers(len(pop))
    else:
        index = state.rng.integers(len(pop))
        if not dominates(child.objectives, pop[index].objectives, state.counters):
            return None
    pop[index] = child
    return index


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
            fitness=fitness,
        )
        child = generate(
            parents, config.variation, state.problem.bounds, state.rng, state.ids
        )
        child.objectives = _evaluate(state, child.genome)
        if config.local_search.steps:
            child = local_search(state, child, config)
        accepted = _offer(state, child)
        accepted_count += accepted
        index = update_population(state, child, accepted)
        if fitness is not None and index is not None:
            # entrants newer than this generation's fitness snapshot count as
            # archive-nondominated, which is exactly the strength floor
            fitness[index] = 1.0
    state.generation += 1
    metrics: dict[str, float] = {}
    if config.metrics_every is not None:
        if evals_before // config.metrics_every < state.counters.evaluations // config.metrics_every:
            metrics = compute_metrics(state)
    return _generation_stats(state, accepted_count, metrics)


def _generation_stats(
    state: RunState, accepted_count: int, metrics: dict[str, float]
) -> GenerationStats:
    """The record of the generation that just ended."""
    return GenerationStats(
        generation=state.generation,
        evaluations_done=state.counters.evaluations,
        archive_size=len(state.archive),
        accepted_count=accepted_count,
        deterioration_events=state.tracker.count(),
        metrics=metrics,
    )


def run(config: RunConfig) -> RunResult:
    """Execute a full run; (config, seed) determines every output."""
    state = initialize(config)
    # generation 0 is the initial population; every member it left in the
    # archive counts as accepted
    stats = [_generation_stats(state, len(state.archive), {})]
    while state.counters.evaluations < config.max_evaluations:
        stats.append(step(state, config))
    front = state.archive.finalize()
    summary = {
        "problem": state.problem.id,
        "archive_kind": config.archive.kind,
        "seed": config.seed,
        "front_size": len(front),
        "archive_size": len(state.archive),
        "evaluations": state.counters.evaluations,
        "dominance_comparisons": state.counters.dominance_comparisons,
        "cell_lookups": state.counters.cell_lookups,
        "deterioration_events": state.tracker.count(),
        "metrics": compute_metrics(state),
    }
    if isinstance(state.archive, GpsArchive):
        summary["gps_monotonic"] = state.archive.monotonicity_violations == 0
    return RunResult(
        config=config,
        front=front,
        stats=stats,
        archive=state.archive,
        summary=summary,
    )
