"""Benchmark objective functions with known fronts.

All problems minimize both objectives:

- sch:   f1 = x^2, f2 = (x-2)^2 on x in [-3, 5]; front is x in [0, 2] (convex).
- zdt1:  f1 = x1, f2 = g*(1 - sqrt(f1/g)) with g = 1 + 9*sum(x2..xn)/(n-1),
         x in [0,1]^30; front is f2 = 1 - sqrt(f1) (convex).
- zdt2:  same g, f2 = g*(1 - (f1/g)^2); front is f2 = 1 - f1^2 (concave).
- lattice:<k>:<seed>: a k x k integer grid whose objective pairs come from a
         seeded random table, so the exact Pareto set can be enumerated by
         brute force and used as a test oracle. Genomes are reals rounded to
         the grid at evaluation so the standard real-coded generator applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ObjectiveVector

ZDT_N_VAR = 30
LATTICE_POINT_LIMIT = 10_000

# margin below the table minima so no lattice point coincides with a ray
# archiver's reference point
_LATTICE_FLOOR_MARGIN = 1e-6


class UnknownProblemError(ValueError):
    """Problem id not recognized by the registry."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A pure, deterministic objective evaluator plus its metadata.

    objective_floor is a componentwise lower bound of the attainable
    objective values (used as the ray archiver's reference point).
    """

    id: str
    n_var: int
    bounds: tuple[tuple[float, float], ...]
    m: int
    evaluator: Callable[[tuple[float, ...]], tuple[float, ...]]
    front_sampler: Callable[[int], list[ObjectiveVector]] | None = None
    objective_floor: ObjectiveVector | None = None
    table: np.ndarray | None = None  # lattice problems only


def evaluate(problem: ProblemSpec, genome: Sequence[float]) -> ObjectiveVector:
    """Evaluate a genome; out-of-bounds genomes violate the contract."""
    if len(genome) != problem.n_var:
        raise ValueError(
            f"{problem.id}: genome has {len(genome)} variables, expected {problem.n_var}"
        )
    for x, (lo, hi) in zip(genome, problem.bounds):
        if not lo <= x <= hi:
            raise ValueError(f"{problem.id}: gene {x} outside bounds [{lo}, {hi}]")
    return ObjectiveVector(problem.evaluator(tuple(genome)))


def true_front_sample(problem: ProblemSpec, count: int) -> list[ObjectiveVector]:
    """Evenly spaced points on the analytic front, for convergence metrics."""
    if problem.front_sampler is None:
        raise UnknownProblemError(f"{problem.id} has no known analytic front")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return problem.front_sampler(count)


def brute_force_front(problem: ProblemSpec) -> list[ObjectiveVector]:
    """Exact nondominated subset of a lattice problem's table, by all-pairs
    comparison. Refuses tables larger than LATTICE_POINT_LIMIT points.

    Deliberately written with its own reversed scan rather than reusing the
    core filter, so it can serve as an independent oracle.
    """
    if problem.table is None:
        raise UnknownProblemError(f"{problem.id} is not a lattice problem")
    k = problem.table.shape[0]
    if k * k > LATTICE_POINT_LIMIT:
        raise ValueError(f"lattice with {k * k} points exceeds the enumeration guard")
    points = [
        tuple(float(v) for v in problem.table[i, j])
        for i in range(k)
        for j in range(k)
    ]
    front: list[ObjectiveVector] = []
    for i, p in enumerate(points):
        dominated = False
        for j in range(len(points) - 1, -1, -1):
            if j == i:
                continue
            q = points[j]
            if all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p)):
                dominated = True
                break
        if not dominated:
            front.append(ObjectiveVector(p))
    return front


def _sch() -> ProblemSpec:
    def evaluator(genome: tuple[float, ...]) -> tuple[float, ...]:
        x = genome[0]
        return (x * x, (x - 2.0) * (x - 2.0))

    def front(count: int) -> list[ObjectiveVector]:
        xs = np.linspace(0.0, 2.0, count)
        return [ObjectiveVector((x * x, (x - 2.0) ** 2)) for x in xs]

    return ProblemSpec(
        id="sch",
        n_var=1,
        bounds=((-3.0, 5.0),),
        m=2,
        evaluator=evaluator,
        front_sampler=front,
        objective_floor=ObjectiveVector((0.0, 0.0)),
    )


def _zdt(problem_id: str, shape: Callable[[float, float], float],
         front_f2: Callable[[float], float]) -> ProblemSpec:
    n = ZDT_N_VAR

    def evaluator(genome: tuple[float, ...]) -> tuple[float, ...]:
        f1 = genome[0]
        g = 1.0 + 9.0 * sum(genome[1:]) / (n - 1)
        return (f1, shape(f1, g))

    def front(count: int) -> list[ObjectiveVector]:
        f1s = np.linspace(0.0, 1.0, count)
        return [ObjectiveVector((f1, front_f2(f1))) for f1 in f1s]

    return ProblemSpec(
        id=problem_id,
        n_var=n,
        bounds=tuple(((0.0, 1.0),) * n),
        m=2,
        evaluator=evaluator,
        front_sampler=front,
        objective_floor=ObjectiveVector((0.0, 0.0)),
    )


def _zdt1() -> ProblemSpec:
    return _zdt(
        "zdt1",
        lambda f1, g: g * (1.0 - math.sqrt(f1 / g)),
        lambda f1: 1.0 - np.sqrt(f1),
    )


def _zdt2() -> ProblemSpec:
    return _zdt(
        "zdt2",
        lambda f1, g: g * (1.0 - (f1 / g) ** 2),
        lambda f1: 1.0 - f1 * f1,
    )


def _lattice(k: int, seed: int) -> ProblemSpec:
    # refused before the table is drawn, so an oversized k costs no memory;
    # the metrics and the oracle enumerate every point
    if k < 1:
        raise UnknownProblemError(f"lattice size must be >= 1, got {k}")
    if k * k > LATTICE_POINT_LIMIT:
        raise UnknownProblemError(
            f"lattice:{k}:{seed} has {k * k} points, above the "
            f"{LATTICE_POINT_LIMIT}-point enumeration guard"
        )
    if seed < 0:
        raise UnknownProblemError(f"lattice seed must be >= 0, got {seed}")
    table = np.random.default_rng(seed).random((k, k, 2))

    def evaluator(genome: tuple[float, ...]) -> tuple[float, ...]:
        i = min(int(round(genome[0])), k - 1)
        j = min(int(round(genome[1])), k - 1)
        return (float(table[i, j, 0]), float(table[i, j, 1]))

    floor = ObjectiveVector(
        (
            float(table[:, :, 0].min()) - _LATTICE_FLOOR_MARGIN,
            float(table[:, :, 1].min()) - _LATTICE_FLOOR_MARGIN,
        )
    )
    return ProblemSpec(
        id=f"lattice:{k}:{seed}",
        n_var=2,
        bounds=((0.0, float(k - 1)), (0.0, float(k - 1))) if k > 1 else ((0.0, 0.0), (0.0, 0.0)),
        m=2,
        evaluator=evaluator,
        objective_floor=floor,
        table=table,
    )


def get_problem(problem_id: str) -> ProblemSpec:
    """Resolve a stable problem id: sch, zdt1, zdt2, or lattice:<k>:<seed>."""
    if problem_id == "sch":
        return _sch()
    if problem_id == "zdt1":
        return _zdt1()
    if problem_id == "zdt2":
        return _zdt2()
    if problem_id.startswith("lattice:"):
        parts = problem_id.split(":")
        if len(parts) != 3:
            raise UnknownProblemError(
                f"lattice id must look like lattice:<k>:<seed>, got {problem_id!r}"
            )
        try:
            k, seed = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise UnknownProblemError(f"bad lattice parameters in {problem_id!r}") from exc
        return _lattice(k, seed)
    raise UnknownProblemError(f"unknown problem id {problem_id!r}")
