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
from operator import sub
from types import MappingProxyType

from ..core import Counters, DimensionMismatchError, ObjectiveVector, Solution
from .base import Archive, FeedbackSignal, InsertOutcome


# the width of the angle range every ray bin divides
_QUARTER = math.pi / 2.0


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


def ray_of(
    v: ObjectiveVector, spec: RaySpec, counters: Counters | None = None
) -> tuple[int, ...]:
    """Bin the direction of (v - reference) into M-1 angular coordinates.

    Each spherical angle lies in [0, pi/2] because v >= reference componentwise;
    bin k of K covers [k*(pi/2)/K, (k+1)*(pi/2)/K) with the top edge clamped
    into the last bin. Angle k is the atan2 of the root of the squared offsets
    after k, summed left to right, and offset k, all first scaled by the power
    of two that brings the largest of them into [0.5, 1); for M = 2 the one
    angle is the atan2 of the two offsets themselves. Cost is independent of the
    archive size. Raises DimensionMismatchError, ValueError below the reference
    or DegenerateDirectionError at it, and charges a lookup only when it raises
    none of them.
    """
    values = v.values
    reference = spec.reference.values
    if len(values) != len(reference):
        raise DimensionMismatchError(
            f"dimension mismatch: {len(values)} vs {len(reference)}"
        )
    if len(values) == 2:
        # two scalar offsets: no tuple is built for the one angle
        x = values[0] - reference[0]
        y = values[1] - reference[1]
        below, degenerate = x < 0 or y < 0, not (x or y)
    else:
        u = tuple(map(sub, values, reference))
        below, degenerate = min(u) < 0, not any(u)
    if below:
        raise ValueError(
            f"{v} is below the reference point {spec.reference} in some component"
        )
    if degenerate:
        raise DegenerateDirectionError(
            f"{v} equals the reference point; direction undefined"
        )
    if counters is not None:
        counters.cell_lookups += 1
    k_rays = spec.rays_per_axis
    if len(values) == 2:
        # one angle, taken from the offsets themselves, so no square can
        # underflow or overflow
        c = int(math.atan2(abs(y), x) / _QUARTER * k_rays)
        return (c if c < k_rays else k_rays - 1,)
    coords = []
    for k in range(len(u) - 1):
        # scaled by the power of two that brings the largest of the offsets
        # from k on into [0.5, 1), none of their squares overflows and the
        # largest does not underflow. The scaling is exact but for offsets
        # more than 2**1000 below the largest, too small to move a bin
        e = -math.frexp(max(u[k:]))[1]
        x, *rest = [math.ldexp(d, e) for d in u[k:]]
        angle = math.atan2(math.sqrt(sum([d * d for d in rest])), x)
        c = int(angle / _QUARTER * k_rays)
        coords.append(c if c < k_rays else k_rays - 1)
    return tuple(coords)


class GpsArchive(Archive):
    """At most one incumbent per ray; the incumbent's distance to the reference
    never increases over a run."""

    def __init__(self, spec: RaySpec):
        self.spec = spec
        self._reference = spec.reference.values
        # only try_insert writes these two, always together
        self._incumbents: dict[tuple[int, ...], Solution] = {}
        # each ray's distance to the reference, as recorded when its incumbent
        # was admitted
        self._admitted: dict[tuple[int, ...], float] = {}
        self.incumbents = MappingProxyType(self._incumbents)
        # replacements that did not strictly lower their ray's recorded distance
        self.monotonicity_violations = 0

    def members(self) -> list[Solution]:
        return list(self._incumbents.values())

    def __len__(self) -> int:
        return len(self._incumbents)

    def try_insert(
        self, candidate: Solution, counters: Counters
    ) -> tuple[InsertOutcome, FeedbackSignal]:
        ray = ray_of(candidate.objectives, self.spec, counters)
        incumbent = self._incumbents.get(ray)
        d_new = math.dist(candidate.objectives.values, self._reference)
        if incumbent is not None:
            # exactly one comparison: the incumbent of the candidate's own ray
            counters.dominance_comparisons += 1
            d_old = math.dist(incumbent.objectives.values, self._reference)
            if not d_new < d_old:
                outcome = InsertOutcome.of(False, ())
                return outcome, FeedbackSignal(False, len(self._incumbents))
            if not d_new < self._admitted[ray]:
                self.monotonicity_violations += 1
        # a new ray or a replacement of its incumbent
        self._incumbents[ray] = candidate
        self._admitted[ray] = d_new
        outcome = InsertOutcome.of(True, () if incumbent is None else (incumbent,))
        return outcome, FeedbackSignal(True, len(self._incumbents))
