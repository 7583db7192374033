"""Difference pairs: the two digit spreads that determine the next step.

For sorted digits s3 >= s2 >= s1 >= s0 the pair is (s3 - s0, s2 - s1),
written (outer, inner).  The subtraction step's output value is
outer*(b^3 - 1) + inner*(b^2 - b), so the pair is a sufficient statistic:
two numerals with the same pair have the same image.  That collapses the
b^4 integer states to b*(b+1)/2 canonical pairs.

Pair ``(d, dp)`` has the code ``d(d+1)/2 + dp``, its index when the pairs
are listed outer-major: d ascending, then dp from 0 to d.  The step table of
a base maps codes to codes.
The predecessor rules build each row directly as a set of canonical pairs.
"""

from __future__ import annotations

from array import array
from enum import Enum
from math import isqrt
from typing import NoReturn

from .digits import Digits, check_base

Pair = tuple[int, int]


class PairType(Enum):
    ZERO = "zero"
    A = "a"
    B = "b"
    C = "c"


def pair_of_digits(digits: Digits) -> Pair:
    s0, s1, s2, s3 = sorted(digits)
    return (s3 - s0, s2 - s1)


def classify_pair(pair: Pair, b: int) -> PairType:
    """Classify with precedence ZERO, C, B, A so every pair gets one tag.

    A bare (d, 0) with d > 0 satisfies the A condition too, but only the C
    step formula matches the integer dynamics, so C wins.
    """
    d, dp = pair
    if d == 0:
        return PairType.ZERO
    if dp == 0:
        return PairType.C
    if d == dp or d + dp == b:
        return PairType.B
    return PairType.A


def step_pair(pair: Pair, b: int) -> Pair:
    """Image of a canonical pair under the subtraction step, re-canonicalized.

    For the B case only the larger coordinate enters the formula; when the
    coordinates sum to b, substituting the smaller one yields the same
    unordered result, so the choice is immaterial.
    """
    d, dp = pair
    if d == 0:
        return (0, 0)
    if dp == 0:
        x, y = d - 1, b - d
    elif d == dp or d + dp == b:
        x, y = abs(2 * d - (b - 1)), abs(2 * d - (b + 1))
    else:
        x, y = abs(2 * d - b), abs(2 * dp - b)
    return (x, y) if x >= y else (y, x)


def _code(pair: Pair) -> int:
    d, dp = pair
    return d * (d + 1) // 2 + dp


def _pair_at(code: int) -> Pair:
    d = (isqrt(8 * code + 1) - 1) // 2
    return (d, code - d * (d + 1) // 2)


def _step_table(b: int) -> array:
    """Entry ``c`` is the code of the image of the pair with code ``c``."""
    check_base(b)
    table = array("l")
    for d in range(b):
        for dp in range(d + 1):
            x, y = step_pair((d, dp), b)
            table.append(x * (x + 1) // 2 + y)
    return table


def _not_canonical(d: int, dp: int, b: int) -> NoReturn:
    """The one error for a pair outside 0 <= dp <= d < b; callers test inline."""
    raise ValueError(f"({d}, {dp}) is not canonical for base {b}")


def fixed_pair(b: int) -> Pair:
    """The pair (3b/5, b/5) of the non-zero fixed numeral; needs 5 | b."""
    check_base(b)
    if b % 5 != 0:
        raise ValueError(f"base {b} is not a multiple of 5, no fixed pair exists")
    return (3 * b // 5, b // 5)


# ---------------------------------------------------------------------------
# Predecessor enumeration
# ---------------------------------------------------------------------------
#
# Inverting the four-case step formula gives, for each target type, a short
# list of candidate predecessors guarded by parity and sum conditions.  The
# class of unordered B-type predecessors {e, b-e} collapses to the governed
# component e in the derivations below.
#
# One published form of this inversion lists, for an odd base, the row
# "d = d' = (b+1)/2  <-  ((b+2)/2, 0)", which is not integral; the correct
# row (re-derived from the C step {e-1, b-e} with e-1 = b-e) is
# "d = d' = (b-1)/2  <-  ((b+1)/2, 0)" and is what is implemented here.
# The exhaustive-scan tests pin this down for every base from 2 to 60 and
# for 97, 98, 99, 100 and 320.  The rows are checked where they are used,
# not here: by the guard step in the BFS of ``dynamics.pair_distance_map``
# and by verify's predecessor-inversion check.
#
# Both rule sets branch in :func:`step_pair`'s order and emit each row
# already canonical.  With d >= dp the four A-type sign candidates come out
# ordered: (b+d)/2 >= (b+dp)/2 >= (b-dp)/2 >= (b-d)/2, and likewise
# h+i >= h+j >= h-j >= h-i in the condensed rules.


def _canon(x: int, y: int) -> Pair:
    return (x, y) if x >= y else (y, x)


def predecessors_of(pair: Pair, b: int) -> set[Pair]:
    """Exact preimage of a canonical pair under :func:`step_pair`, unchecked."""
    d, dp = pair
    if not 0 <= dp <= d < b:
        _not_canonical(d, dp, b)
    if d == 0:
        return {(0, 0)}

    if dp == 0:  # C
        out: set[Pair] = set()
        if b % 2 == 0 and d % 2 == 0:
            out = {((b + d) // 2, b // 2), (b // 2, (b - d) // 2)}
        elif b % 2 == 1 and d == 2:
            e1, e2 = (b + 1) // 2, (b - 1) // 2
            out = {(e1, e1), (e1, e2), (e2, e2)}
        if d == b - 1:
            out.add((1, 0))
        return out

    if d == dp:  # B
        if b % 2 == 0:
            return {(b // 2, b // 2)} if d == 1 else set()
        return {((b + 1) // 2, 0)} if 2 * d == b - 1 else set()

    if d + dp == b:  # B
        if d % 2 == 0 and dp % 2 == 0:
            u, v, w, z = (b + d) // 2, (b + dp) // 2, (b - dp) // 2, (b - d) // 2
            return {(u, v), (u, w), (w, z), (v, z)}
        if d == dp + 2 and b % 4 == 0:
            return {(3 * b // 4, 3 * b // 4), (3 * b // 4, b // 4), (b // 4, b // 4)}
        return set()

    # A
    out = set()
    if d % 2 == b % 2 and dp % 2 == b % 2:
        u, v, w, z = (b + d) // 2, (b + dp) // 2, (b - dp) // 2, (b - d) // 2
        out = {(u, v), (u, w), (w, z), (v, z)}
    elif d == dp + 2:  # d, dp share a parity, so here it is not b's
        e1, e2 = (b - 1 + d) // 2, (b + 1 - d) // 2
        out = {(e1, e1), (e1, e2), (e2, e2)}
    if d + dp == b - 1:
        out.add((d + 1, 0))
        out.add((dp + 1, 0))
    return out


def condensed_predecessors_of(pair: Pair, b: int) -> set[Pair]:
    """Preimage via the condensed rules available when 4 | b and b > 4.

    Kept separate from :func:`predecessors_of` so the condensed rule set is
    itself verified rather than derived from the general one.
    """
    if b % 4 != 0 or b <= 4:
        raise ValueError(f"condensed predecessor rules need 4 | b and b > 4, got {b}")
    d, dp = pair
    if not 0 <= dp <= d < b:
        _not_canonical(d, dp, b)
    if d == 0:
        return {(0, 0)}
    if dp == 0 and d == b - 1:
        return {(1, 0)}
    h = b // 2
    if d == dp:
        return {(h, h)} if d == 1 else set()

    if d % 2 == 0 and dp % 2 == 0:  # (2i, 2j) <- (h +/- i, h +/- j)
        i, j = d // 2, dp // 2
        return {(h + i, h + j), (h + i, h - j), (h + j, h - i), (h - j, h - i)}
    if d % 2 == 1 and dp == d - 2:  # (2k+1, 2k-1) <- (h +/- k, h +/- k)
        k = (d - 1) // 2
        return {(h + k, h + k), (h + k, h - k), (h - k, h - k)}
    if d + dp == b - 1:
        return {(d + 1, 0), (dp + 1, 0)}
    return set()


# ---------------------------------------------------------------------------
# Counting numerals per pair
# ---------------------------------------------------------------------------


def pair_count(pair: Pair, b: int) -> int:
    """Number of the b^4 numerals whose difference pair equals ``pair``.

    Sorted digits with pair (d, dp) are (s+d, s+t+dp, s+t, s) for a shift
    s in [0, b-d) and a slack t in [0, d-dp]; each (s, t) contributes the
    arrangements of the offset multiset {0, t, t+dp, d}.  Summing those over
    t gives one exact closed form per pair shape: b for d = 0,
    (b-d)(12d-4) for dp = 0, 6(b-d) for d = dp, and 24(b-d)(d-dp) otherwise.
    """
    d, dp = pair
    if not 0 <= dp <= d < b:
        _not_canonical(d, dp, b)
    if d == 0:
        return b
    if dp == 0:
        return (b - d) * (12 * d - 4)
    if d == dp:
        return 6 * (b - d)
    return 24 * (b - d) * (d - dp)
