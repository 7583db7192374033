import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaprekar4.digits import (
    DigitQuad,
    split_digits,
    step_value,
    to_digits,
)
from kaprekar4.enumeration import _step
from oracles import oracle_digits, oracle_step, oracle_value

bases = st.integers(2, 300)


def base_and_value():
    return bases.flatmap(
        lambda b: st.tuples(st.just(b), st.integers(0, b**4 - 1))
    )


def test_to_digits_examples():
    assert to_digits(309, 10).digits == (0, 3, 0, 9)
    assert to_digits(0, 7).digits == (0, 0, 0, 0)
    # independent positional expansion by repeated division
    assert to_digits(201, 4).digits == oracle_digits(201, 4) == (3, 0, 2, 1)


def test_to_digits_errors():
    with pytest.raises(ValueError):
        to_digits(10**4, 10)
    with pytest.raises(ValueError):
        to_digits(-1, 10)
    with pytest.raises(ValueError):
        to_digits(3, 1)


def test_digit_quad_validation():
    with pytest.raises(ValueError):
        DigitQuad(10, (0, 1, 2))
    with pytest.raises(ValueError):
        DigitQuad(10, (0, 1, 2, 10))
    with pytest.raises(ValueError):
        DigitQuad(1, (0, 0, 0, 0))


def test_value_examples():
    assert DigitQuad(10, (0, 3, 0, 9)).value == 309
    assert DigitQuad(2, (1, 1, 1, 1)).value == 15
    assert DigitQuad(4, (3, 0, 2, 1)).value == 201


@given(base_and_value())
@settings(max_examples=300)
def test_round_trip(bv):
    b, x = bv
    assert to_digits(x, b).value == x
    assert split_digits(x, b) == oracle_digits(x, b)


def test_step_value_examples():
    assert to_digits(step_value(889, 10), 10).digits == (8, 9, 9, 1)
    assert to_digits(step_value(6174, 10), 10).digits == (6, 1, 7, 4)
    # 3322 - 2233 is 1089, not the 889 sometimes misprinted for this chain
    assert to_digits(step_value(3223, 10), 10).digits == (1, 0, 8, 9)
    assert step_value(3223, 10) == 1089
    assert to_digits(step_value(15, 2), 2).digits == (0, 0, 0, 0)


@given(base_and_value())
@settings(max_examples=300)
def test_step_matches_value_subtraction_oracle(bv):
    b, x = bv
    assert step_value(x, b) == oracle_step(x, b)


@pytest.mark.parametrize("b", range(2, 17))
def test_step_matches_numpy_sort_on_whole_domain(b):
    # the place-by-place step against the integer oracle's _step, which
    # sorts the digits with numpy and subtracts the two whole numerals
    want = _step(np.arange(b**4, dtype=np.int64), b).tolist()
    assert [step_value(x, b) for x in range(b**4)] == want


@pytest.mark.parametrize("b", [17, 255, 256, 257, 40960, 65535, 65536])
def test_step_matches_sorted_reference_on_samples(b):
    # above the whole-domain range: around a one-byte digit, at b = 5 * 2^13
    # and at the top of the declared range.  Half the numerals draw each
    # digit anywhere, so every order of four distinct digits occurs; half
    # draw from {0, 1, b/2, b-1}, so the sorting network meets ties
    rng = random.Random(b)
    pool = (0, 1, b // 2, b - 1)
    quads = [tuple(rng.randrange(b) for _ in range(4)) for _ in range(1000)]
    quads += [tuple(rng.choice(pool) for _ in range(4)) for _ in range(1000)]
    xs = [oracle_value(q, b) for q in quads]
    assert [step_value(x, b) for x in xs] == [oracle_step(x, b) for x in xs]


@given(base_and_value())
@settings(max_examples=300)
def test_step_divisible_by_base_minus_one(bv):
    b, x = bv
    assert step_value(x, b) % (b - 1) == 0 if b > 2 else True
    if b == 2:
        assert step_value(x, b) % 1 == 0


@given(base_and_value(), st.permutations([0, 1, 2, 3]))
@settings(max_examples=300)
def test_step_depends_only_on_digit_multiset(bv, perm):
    b, x = bv
    q = to_digits(x, b)
    shuffled = DigitQuad(b, tuple(q.digits[i] for i in perm))
    assert step_value(q.value, b) == step_value(shuffled.value, b)


@given(bases, st.integers(0, 2**16 - 1))
@settings(max_examples=200)
def test_repdigit_fixed_iff_zero(b, c):
    c %= b
    q = DigitQuad(b, (c, c, c, c))
    stepped = step_value(q.value, b)
    assert stepped == 0
    assert (stepped == q.value) == (c == 0)
