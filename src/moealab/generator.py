"""Candidate production: parent selection over population and archive, and
real-coded variation, from one random stream."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import Solution


@dataclass(frozen=True)
class VariationConfig:
    """Knobs for the crossover/mutation pipeline.

    mutation_prob of None resolves to 1/n per gene at generation time; the
    spreads are the usual distribution indices (higher = children closer to
    their parents).
    """

    crossover_prob: float = 0.9
    crossover_spread: float = 15.0
    mutation_prob: float | None = None
    mutation_spread: float = 20.0
    archive_parent_prob: float = 0.5

    def __post_init__(self):
        for name in ("crossover_prob", "archive_parent_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if self.crossover_spread <= 0 or self.mutation_spread <= 0:
            raise ValueError("distribution indices must be positive")


# raw 64-bit words a stream takes from its bit generator at a time
_BLOCK = 1024


class RandomStream:
    """A run's random draws, served from blocks of raw PCG64 words: each
    random() and integers(n) equals the one scalar call it stands for on the
    wrapped numpy Generator, bit for bit.

    numpy makes a double of one 64-bit word w as (w >> 11) * 2**-53, so a
    block's doubles are made in one numpy pass. integers(n) is Lemire's
    bounded multiply-and-reject on 32-bit draws (Lemire 2019, "Fast random
    integer generation in an interval"), as numpy does for n <= 2**32: a
    32-bit draw takes a word's low half and buffers its high half for the
    next one, and doubles leave that half alone. The stream starts from the
    half the Generator has buffered, if any, and keeps its own from then on.

    The Generator runs up to one block ahead of the draws served, so once it
    is wrapped nothing may draw from it directly.
    """

    __slots__ = ("_bits", "_raw", "_doubles", "_pos", "_half")

    def __init__(self, rng: np.random.Generator):
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError(f"RandomStream needs a PCG64 Generator, got {type(bits).__name__}")
        state = bits.state
        self._bits = bits
        self._half: int | None = state["uinteger"] if state["has_uint32"] else None
        # the words of the current block and their doubles; _pos is the next
        # word to serve in both
        self._raw = np.empty(0, dtype=np.uint64)
        self._doubles: list[float] = []
        self._pos = 0

    def _refill(self, k: int) -> None:
        """Serve from a new block that starts with the unserved words and
        holds at least k: whole blocks are drawn until it does."""
        tail = self._raw[self._pos :]
        fresh = self._bits.random_raw(-(-(k - len(tail)) // _BLOCK) * _BLOCK)
        doubles = ((fresh >> 11) * 2.0**-53).tolist()
        if len(tail):
            fresh = np.concatenate((tail, fresh))
            doubles = self._doubles[self._pos :] + doubles
        self._raw = fresh
        self._doubles = doubles
        self._pos = 0

    def random(self) -> float:
        """The next double in [0, 1), as Generator.random() returns it."""
        pos = self._pos
        if pos == len(self._doubles):
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return self._doubles[pos]

    def peek(self, k: int) -> tuple[list[float], int]:
        """The next k doubles without serving them: they are list[start],
        list[start + 1], ... Follow with consume(used), the doubles used."""
        if self._pos + k > len(self._doubles):
            self._refill(k)
        return self._doubles, self._pos

    def consume(self, used: int) -> None:
        """Serve the first `used` doubles of the last peek."""
        self._pos += used

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        pos = self._pos
        if pos == len(self._doubles):
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        word = self._raw.item(pos)
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), as Generator.integers(n) returns it. n
        above 2**32 takes numpy's 64-bit path, which is not reproduced, so
        it is refused."""
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"integers(n) needs 1 <= n <= 2**32, got {n}")
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32


def select_parents(
    population: Sequence[Solution],
    archive_members: Sequence[Solution],
    rng: RandomStream,
    archive_parent_prob: float,
    fitness: Sequence[float] | None = None,
) -> tuple[Solution, Solution]:
    """Draw two parents, each independently from the archive with probability
    archive_parent_prob (uniformly), otherwise from the population.

    Population draws use a binary tournament on fitness (lower wins, ties to
    the lower id), where fitness[i] belongs to population[i], when it is
    supplied, uniform choice otherwise.
    """
    if not population:
        raise ValueError("population must be non-empty")
    random, integers = rng.random, rng.integers

    def one() -> Solution:
        if archive_members and random() < archive_parent_prob:
            return archive_members[integers(len(archive_members))]
        if fitness is None:
            return population[integers(len(population))]
        i = integers(len(population))
        j = integers(len(population))
        a, b = population[i], population[j]
        return a if (fitness[i], a.id) <= (fitness[j], b.id) else b

    return one(), one()


def generate(
    parents: tuple[Solution, Solution],
    config: VariationConfig,
    bounds: Sequence[tuple[float, float]],
    rng: RandomStream,
    ids: Iterator[int],
) -> Solution:
    """Produce an unevaluated child: per-gene simulated-binary crossover, then
    per-gene polynomial mutation, clamped to bounds.

    Identical (stream position, parents, config) always yields an identical
    child, using the uniforms of one rng.random() call each. A gene uses at
    most five (crossover test, SBX u, child choice, mutation test, mutation
    u), so the next 5n are peeked and walked, and only the number used is
    consumed. The arithmetic stays on Python floats: numpy's power is not
    bit-identical to Python's ** on every host (SIMD builds round some results
    differently).
    """
    x1s, x2s = parents[0].genome, parents[1].genome
    n = len(x1s)
    mutation_prob = config.mutation_prob if config.mutation_prob is not None else 1.0 / n
    crossover_prob = config.crossover_prob
    exponent_c = 1.0 / (config.crossover_spread + 1.0)
    eta_m = config.mutation_spread
    block, start = rng.peek(5 * n)
    pos = start
    genome = []
    append = genome.append
    for x1, x2, (lo, hi) in zip(x1s, x2s, bounds, strict=True):
        if block[pos] < crossover_prob:
            u = block[pos + 1]
            if u <= 0.5:
                beta = (2.0 * u) ** exponent_c
            else:
                beta = (1.0 / (2.0 * (1.0 - u))) ** exponent_c
            if block[pos + 2] < 0.5:
                g = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
            else:
                g = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
            pos += 3
        else:
            g = x1
            pos += 1
        if hi > lo:
            if block[pos] < mutation_prob:
                g = _polynomial_mutation(g, lo, hi, eta_m, block[pos + 1])
                pos += 2
            else:
                pos += 1
        # min(hi, max(lo, g)), operand for operand (signed zeros included)
        if not g > lo:
            g = lo
        if not g < hi:
            g = hi
        append(g)
    rng.consume(pos - start)
    return Solution(next(ids), tuple(genome))


def _polynomial_mutation(x: float, lo: float, hi: float, eta: float, u: float) -> float:
    span = hi - lo
    delta_l = (x - lo) / span
    delta_r = (hi - x) / span
    if u < 0.5:
        xy = 1.0 - delta_l
        val = 2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0)
        delta_q = val ** (1.0 / (eta + 1.0)) - 1.0
    else:
        xy = 1.0 - delta_r
        val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0)
        delta_q = 1.0 - val ** (1.0 / (eta + 1.0))
    return x + delta_q * span
