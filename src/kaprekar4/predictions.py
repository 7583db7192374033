"""Closed-form predictions: which bases have a fixed numeral, its digits,
the worst-case distance, and the convergent fraction.

Everything here is a predictor but :func:`grid_landing`, the plain walker
the test suite checks :mod:`.verify`'s landing memo with; it stays here
because the benchmark's tracer records it as a span.  Measurements live
in :mod:`.dynamics`; the two sides are compared by :mod:`.verify` and the
test suite, never merged.  :mod:`.dynamics` reads :func:`classify_base` only
to pick each base's route, never a predicted number, and the deep checks
``no-fixed-numeral``, ``fixed-numerals-exist`` and ``fixed-pair-unique``
still test that classification against the pair step table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digits import DigitQuad, check_base, step_value
from .pairs import Pair, step_pair


@dataclass(frozen=True)
class TwoOrFour:
    """b in {2, 4}: fixed numerals exist but follow no 5|b formula."""


@dataclass(frozen=True)
class FiveMultiple:
    """b = 5 * m * 2**n with m odd: the formula-bearing family."""

    m: int
    n: int


@dataclass(frozen=True)
class NoFixedPoint:
    """No non-zero fixed numeral exists."""


BaseClass = TwoOrFour | FiveMultiple | NoFixedPoint


def classify_base(b: int) -> BaseClass:
    check_base(b)
    if b in (2, 4):
        return TwoOrFour()
    if b % 5 == 0:
        q = b // 5
        n = (q & -q).bit_length() - 1
        return FiveMultiple(m=q >> n, n=n)
    return NoFixedPoint()


def fixed_point_digits(b: int) -> DigitQuad:
    """Digits (3b/5, b/5 - 1, 4b/5 - 1, 2b/5) of the fixed numeral, 5 | b."""
    check_base(b)
    if b % 5 != 0:
        raise ValueError(f"base {b} is not a multiple of 5")
    u = b // 5
    q = DigitQuad(b, (3 * u, u - 1, 4 * u - 1, 2 * u))
    if step_value(q.value, b) != q.value:
        raise RuntimeError(f"digit formula gives {q.digits}, not a fixed numeral of base {b}")
    return q


_EXPLICIT_MAX_DISTANCE = {2: 1, 4: 3, 5: 4, 10: 7, 20: 10}


def predict_max_distance(b: int) -> int | None:
    """Largest finite distance to a fixed numeral, or None when none exists.

    The five small bases come from an explicit list; b = 5m*2^n with odd
    m > 1 gives n + 2; b = 5*2^n with n >= 3 follows the n mod 4 display.
    """
    check_base(b)
    if b in _EXPLICIT_MAX_DISTANCE:
        return _EXPLICIT_MAX_DISTANCE[b]
    cls = classify_base(b)
    if not isinstance(cls, FiveMultiple):
        return None
    if cls.m > 1:
        return cls.n + 2
    n = cls.n  # n >= 3 here: n in {0, 1, 2} is covered by the explicit list
    return (4 * n + 6, 3 * n + 5, 3 * n + 5, 5 * n + 6)[n % 4]


def predict_convergent_fraction(b: int) -> Fraction | None:
    """Predicted fraction of the b^4 inputs reaching the fixed numeral.

    Exact for b = 5m*2^n with odd m > 1: (8 + 40*4^n) / (5 b^2).  For
    b = 5*2^n with n = 0 or n odd every non-repdigit converges, giving
    (b^4 - b) / b^4.  No formula is emitted for the remaining bases.
    """
    check_base(b)
    cls = classify_base(b)
    if not isinstance(cls, FiveMultiple):
        return None
    if cls.m > 1:
        return Fraction(8 + 40 * 4**cls.n, 5 * b * b)
    if cls.n == 0 or cls.n % 2 == 1:
        return Fraction(b**4 - b, b**4)
    return None


# ---------------------------------------------------------------------------
# Landing on the coarse grid (bases 5 * 2^n)
# ---------------------------------------------------------------------------
#
# For b = 5 * 2^n every pair orbit reaches a pair whose coordinates are both
# multiples of g = b/5 = 2^n; such pairs are written g*(p, q) with
# 0 <= q <= p <= 4 and called grid cells.


def grid_landing(pair: Pair, b: int) -> tuple[int, Pair]:
    """Steps until both coordinates are first divisible by b/5, and the cell;
    b = 5 * 2^n with n >= 2.

    The reference walk the tests compare :mod:`.verify`'s landing memo with.
    Exceeding the proven bound by a wide margin is treated as a hard failure
    rather than returning a wrong answer.
    """
    cls = classify_base(b)
    if not isinstance(cls, FiveMultiple) or cls.m != 1 or cls.n < 2:
        raise ValueError(f"base {b} is not 5 * 2^n with n >= 2")
    g = b // 5
    budget = 2 * cls.n + 8
    cur = pair
    for steps in range(budget + 1):
        if cur[0] % g == 0 and cur[1] % g == 0:
            return steps, (cur[0] // g, cur[1] // g)
        cur = step_pair(cur, b)
    raise RuntimeError(f"pair {pair} found no grid pair within {budget} steps in base {b}")
