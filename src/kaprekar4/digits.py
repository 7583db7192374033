"""Four-digit base-b numerals and the digit-rearrangement subtraction step.

A numeral keeps its leading zeros: 0309 and 3090 are different inputs even
though they share a digit multiset.  The step sorts the digits, writes them
descending and ascending, and subtracts the ascending arrangement from the
descending one.  Its kernel sorts the four digits with a five-comparator
sorting network, not ``sorted``; every integer step in the package, the
oracle's numpy table aside, goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_BASE = 2
# Python ints never overflow, but numpy paths do: 65536**4 = 2**64 does not
# fit in int64, and b**4 fits only for b <= 55108
MAX_BASE = 1 << 16

Digits = tuple[int, int, int, int]


def check_base(b: int) -> None:
    if not isinstance(b, int) or isinstance(b, bool):
        raise ValueError(f"base must be an integer, got {b!r}")
    if not MIN_BASE <= b <= MAX_BASE:
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {b}")


@dataclass(frozen=True)
class DigitQuad:
    """A four-digit numeral, most-significant digit first, leading zeros kept."""

    base: int
    digits: Digits

    def __post_init__(self) -> None:
        check_base(self.base)
        digits = tuple(self.digits)
        if len(digits) != 4:
            raise ValueError(f"expected exactly 4 digits, got {len(digits)}")
        if any(not 0 <= a < self.base for a in digits):
            raise ValueError(f"digits {digits} out of range for base {self.base}")
        object.__setattr__(self, "digits", digits)

    @property
    def value(self) -> int:
        return join_digits(self.digits, self.base)


def _check_value(x: int, b: int) -> None:
    check_base(b)
    if not 0 <= x < b**4:
        raise ValueError(f"value {x} outside [0, {b**4}) for base {b}")


def split_digits(x: int, b: int) -> Digits:
    """Positional expansion of x as exactly four base-b digits."""
    _check_value(x, b)
    x, a0 = divmod(x, b)
    x, a1 = divmod(x, b)
    a3, a2 = divmod(x, b)
    return (a3, a2, a1, a0)


def join_digits(digits: Digits, b: int) -> int:
    a3, a2, a1, a0 = digits
    return ((a3 * b + a2) * b + a1) * b + a0


def to_digits(x: int, b: int) -> DigitQuad:
    return DigitQuad(b, split_digits(x, b))


def step_value(x: int, b: int) -> int:
    """One subtraction step: D - A, the digits sorted descending minus ascending.

    The difference is taken place by place, the descending arrangement's
    digit minus the ascending one's, and the four place differences are
    read as one base-b number.
    """
    _check_value(x, b)
    return _step_value(x, b)


def _step_value(x: int, b: int) -> int:
    """:func:`step_value`'s arithmetic, unchecked: the caller has checked b
    and 0 <= x < b^4.

    The digits are sorted in place by the five-comparator network for four
    inputs: (a0, a1) and (a2, a3) sort each half, (a0, a2) and (a1, a3) put
    the least digit in a0 and the greatest in a3, and (a1, a2) orders the
    middle two.  With ``%`` and ``//`` for the digits, this takes fewer
    interpreter steps than three ``divmod`` calls and ``sorted``.
    """
    a0 = x % b
    x //= b
    a1 = x % b
    x //= b
    a2 = x % b
    a3 = x // b
    if a0 > a1:
        a0, a1 = a1, a0
    if a2 > a3:
        a2, a3 = a3, a2
    if a0 > a2:
        a0, a2 = a2, a0
    if a1 > a3:
        a1, a3 = a3, a1
    if a1 > a2:
        a1, a2 = a2, a1
    return (((a3 - a0) * b + (a2 - a1)) * b + (a1 - a2)) * b + (a0 - a3)
