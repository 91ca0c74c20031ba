"""Convergence and diversity indicators, plus the empirical complexity sweep
that measures how per-insertion dominance cost scales with archive size.

Stable metric names used in stats output: "gd", "spacing", "coverage",
"cmp_slope".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .archives import Archive, GpsArchive, GridArchive, GridSpec, RaySpec, RnArchive
from .core import Counters, ObjectiveVector, Solution, dominance_masks, pairwise_distances

METRIC_CMP_SLOPE = "cmp_slope"

# per sweep size: the first N insertions are warm-up (excluded from the mean,
# so capacity effects dominate the measurement), then this many multiples of N
# are measured
_MEASURED_MULTIPLE = 4


def _as_matrix(front: Sequence[ObjectiveVector]) -> np.ndarray:
    return np.asarray([v.values for v in front], dtype=float)


def generational_distance(
    front: Sequence[ObjectiveVector], reference: Sequence[ObjectiveVector]
) -> float:
    """Mean Euclidean distance from each front point to its nearest reference
    point. Zero exactly when every front point lies in the reference set."""
    if not front or not reference:
        raise ValueError("generational_distance needs non-empty front and reference")
    f = _as_matrix(front)
    r = _as_matrix(reference)
    # one front row at a time, so no (n, |reference|) array is built; sqrt is
    # monotone and correctly rounded, so the root of the smallest squared
    # distance is the smallest distance
    nearest = np.empty(len(f))
    for i, row in enumerate(f):
        diff = r - row
        nearest[i] = math.sqrt((diff * diff).sum(axis=1).min())
    return float(nearest.mean())


def spacing(front: Sequence[ObjectiveVector]) -> float:
    """Standard deviation of nearest-neighbour distances within the front;
    zero for evenly spread fronts. Undefined below two points."""
    if len(front) < 2:
        raise ValueError(f"spacing needs at least 2 points, got {len(front)}")
    dists = pairwise_distances(_as_matrix(front))
    np.fill_diagonal(dists, np.inf)
    nearest = dists.min(axis=1)
    return float(nearest.std())


def coverage(
    a: Sequence[ObjectiveVector], b: Sequence[ObjectiveVector]
) -> float:
    """Fraction of b weakly dominated by some member of a (weak dominance
    includes equality, so coverage(x, x) is 1)."""
    if not b:
        raise ValueError("coverage needs a non-empty second set")
    if not a:
        return 0.0
    weak, _ = dominance_masks(_as_matrix(a), _as_matrix(b))
    return int(weak.any(axis=0).sum()) / len(b)


@dataclass(frozen=True)
class ComplexityReport:
    """Mean dominance comparisons per insertion at each archive size, with the
    fitted log-log slope and its 95% confidence interval."""

    archiver: str
    entries: tuple[tuple[int, float], ...]
    slope: float
    slope_ci: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "archiver": self.archiver,
            "entries": [[size, mean] for size, mean in self.entries],
            METRIC_CMP_SLOPE: self.slope,
            # JSON has no token for an unbounded (two sizes) or undefined
            # (constant means) interval end
            "slope_ci": [c if math.isfinite(c) else None for c in self.slope_ci],
        }


def _sweep_archive(kind: str, size: int) -> Archive:
    """The archive complexity_sweep measures at one size. Not build_archive:
    the sweep has no problem to take m or an objective floor from, gps's ray
    count is the swept size, and the benchmark harness swaps this by name."""
    if kind == "rn":
        return RnArchive(size)
    if kind == "grid":
        spec = GridSpec(ObjectiveVector((0.0, 0.0)), ObjectiveVector((1.0, 1.0)), 32)
        return GridArchive(size, spec)
    if kind == "gps":
        return GpsArchive(RaySpec(ObjectiveVector((0.0, 0.0)), size))
    raise ValueError(f"unknown archiver kind {kind!r}")


def _incomparable_stream(rng: np.random.Generator, count: int) -> Iterator[ObjectiveVector]:
    # points on the anti-correlated line f1 + f2 = 1: pairwise incomparable,
    # so dominance scans cannot terminate early
    for t in rng.random(count):
        yield ObjectiveVector((t, 1.0 - t))


def _t_central(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) * tan(theta)) for Student's t with integer df >= 3,
    by the finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df)."""
    c = math.cos(theta)
    c2 = c * c
    if df % 2 == 0:
        term = total = 1.0
        for k in range(1, df // 2):
            term *= c2 * (2 * k - 1) / (2 * k)
            total += term
        return math.sin(theta) * total
    term = total = c
    for k in range(1, (df - 1) // 2):
        term *= c2 * (2 * k) / (2 * k + 1)
        total += term
    return 2 / math.pi * (theta + math.sin(theta) * total)


def _t_quantile(p: float, df: int) -> float:
    """The p quantile, 0.5 < p < 1, of Student's t with integer df >= 1.

    df 1 and 2 are closed forms, equal to scipy.stats.t.ppf bit for bit at
    p = 0.975. Larger df bisect theta = arctan(t / sqrt(df)) on the series
    of _t_central until the bracket is two adjacent floats; the result is
    then within 1e-14 of t.ppf, relatively, for df 3 to 200.
    """
    if df == 1:
        return 1 / math.tan(math.pi * (1 - p))
    if df == 2:
        return (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    target = 2 * p - 1
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return math.sqrt(df) * math.tan(mid)
        if _t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid


def _slope_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of y on x and its two-sided 95% confidence interval.

    The arithmetic is scipy.stats.linregress's (1.17), step for step, so the
    slope and its standard error equal it bit for bit. With two points the
    interval is infinite; with a constant y it is NaN.
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = float(ssxym / ssxm)
    df = len(x) - 2
    if df > 0:
        stderr = np.sqrt((1 - r**2) * ssym / ssxm / df)
        half_width = float(_t_quantile(0.975, df) * stderr)
    else:
        half_width = math.inf
    return slope, (slope - half_width, slope + half_width)


def complexity_sweep(
    kind: str, sizes: Sequence[int], seed: int = 0
) -> ComplexityReport:
    """Feed a seeded incomparable-rich stream into archives of increasing size
    and fit the log-log slope of mean dominance comparisons per insertion.

    A slope near 1 means the insertion cost scales with the archive size
    (full-membership dominance scans); a slope near 0 means size-independent
    cost (single-incumbent comparisons).
    """
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 sizes, got {len(sizes)}")
    ordered = sorted(int(s) for s in sizes)
    if ordered[0] < 1:
        raise ValueError("sizes must be positive")
    if len(set(ordered)) < len(ordered):
        # a repeated size would enter the fit as one more observation and
        # narrow the slope's interval without measuring anything new
        raise ValueError(f"sizes must be distinct, got {list(sizes)}")
    entries = []
    for size in ordered:
        rng = np.random.default_rng(seed)
        ids = itertools.count()
        archive = _sweep_archive(kind, size)
        counters = Counters()
        warmup = size
        measured = _MEASURED_MULTIPLE * size
        for vec in _incomparable_stream(rng, warmup):
            archive.try_insert(Solution(next(ids), (0.0,), vec), counters)
        measured_start = counters.dominance_comparisons
        for vec in _incomparable_stream(rng, measured):
            archive.try_insert(Solution(next(ids), (0.0,), vec), counters)
        mean = (counters.dominance_comparisons - measured_start) / measured
        entries.append((size, mean))
    logs_n = np.log([n for n, _ in entries])
    logs_c = np.log([max(c, 1e-12) for _, c in entries])
    slope, slope_ci = _slope_fit(logs_n, logs_c)
    return ComplexityReport(
        archiver=kind, entries=tuple(entries), slope=slope, slope_ci=slope_ci
    )
