"""RandomStream serves a run's draws from blocks of raw PCG64 words. Every
random(), integers(n) and peeked double must equal the one scalar numpy call
it stands for, bit for bit, across block boundaries and from a start with
half of a 64-bit output buffered."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moealab import RandomStream
from moealab import generator

EDGE_BOUNDS = [1, 2, 40, 2**31 + 1, 2**32 - 1, 2**32]

bounds = st.sampled_from(EDGE_BOUNDS) | st.integers(1, 2**32)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("random")),
        st.tuples(st.just("integers"), bounds),
        # (k, used): peek at k doubles, then consume `used` of them
        st.integers(0, 40).flatmap(
            lambda k: st.tuples(st.just("peek"), st.just(k), st.integers(0, k))
        ),
    ),
    max_size=60,
)


def started(seed, warmup):
    """A Generator after `warmup` integers(40) draws: an odd count leaves half
    of a 64-bit output buffered."""
    rng = np.random.default_rng(seed)
    for _ in range(warmup):
        rng.integers(40)
    return rng


def ahead(oracle, k):
    """The oracle's next k doubles, leaving the oracle where it was."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = oracle.bit_generator.state
    return [copy.random() for _ in range(k)]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.sampled_from([1, 2, 3, 7, 64, 1024]),
    ops,
)
def test_draws_match_one_scalar_numpy_call_each(seed, warmup, block, steps):
    oracle = started(seed, warmup)
    with mock.patch.object(generator, "_BLOCK", block):
        rng = RandomStream(started(seed, warmup))
        for op, *args in steps:
            if op == "random":
                assert rng.random().hex() == oracle.random().hex()
            elif op == "integers":
                (n,) = args
                got = rng.integers(n)
                assert type(got) is int
                assert got == oracle.integers(n)
            else:
                k, used = args
                doubles, start = rng.peek(k)
                window = doubles[start : start + k]
                assert len(window) == k
                assert list(map(float.hex, window)) == list(map(float.hex, ahead(oracle, k)))
                rng.consume(used)
                for _ in range(used):
                    oracle.random()
        # the last draws pin the buffered half as well as the word position
        assert rng.integers(2**32) == oracle.integers(2**32)
        assert rng.random().hex() == oracle.random().hex()


@pytest.mark.parametrize("warmup", [0, 1])
def test_integers_of_one_draws_nothing(warmup):
    oracle = started(5, warmup)
    rng = RandomStream(started(5, warmup))
    for _ in range(3):
        assert rng.integers(1) == oracle.integers(1) == 0
    assert rng.integers(2**32) == oracle.integers(2**32)
    assert rng.random().hex() == oracle.random().hex()


@pytest.mark.parametrize(
    "n, half",
    [
        # a buffered half x gives the leftover x * n mod 2**32; numpy rejects
        # it below 2**32 % n and keeps it from there on
        (2**31 + 1, 0x7FFFFFFE),  # 2**32 % n - 1: rejected
        (2**31 + 1, 0xFFFFFFFF),  # 2**32 % n: kept
        (3, 0x00000000),  # 0 below 1: rejected
        (3, 0xAAAAAAAB),  # 1: kept
    ],
)
def test_lemire_rejects_exactly_the_leftovers_below_its_threshold(n, half):
    def buffered():
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        rng.bit_generator.state = {**state, "has_uint32": 1, "uinteger": half}
        return rng

    oracle, rng = buffered(), RandomStream(buffered())
    for _ in range(3):
        assert rng.integers(n) == oracle.integers(n)
    assert rng.random().hex() == oracle.random().hex()


@pytest.mark.parametrize("n", [0, -1, -(2**40), 2**32 + 1, 2**63])
def test_bounds_outside_the_32_bit_path_are_refused_without_a_draw(n):
    oracle = started(9, 1)
    rng = RandomStream(started(9, 1))
    with pytest.raises(ValueError):
        rng.integers(n)
    assert rng.integers(2**32) == oracle.integers(2**32)
    assert rng.random().hex() == oracle.random().hex()


def test_a_generator_on_another_bit_generator_is_refused():
    with pytest.raises(TypeError):
        RandomStream(np.random.Generator(np.random.MT19937(0)))
