"""Independent brute-force oracles for the test suite.

Deliberately different mechanics from the package: the step splits and
rebuilds numerals with its own digit loops, converts both whole
rearrangements to integers and subtracts them (the package's
``step_value`` subtracts the sorted digits place by place and reads the
four signed differences as one base-b number), and preimages/counts come
from exhaustive scans.  Pair distances come from a forward walk of every
pair orbit (the package walks predecessors backwards).
The full-table helpers step every value of [0, b^4), each with its own
digits sorted by ``np.sort``, and solve distances value by value on that
whole table (the package steps each sorted digit quadruple once, weighed
by its arrangements, sums the weights per image by sorting, and solves
distances only on the image set), so they are the reference for small
bases.  :func:`canonical_pairs` lists the pairs the scans and walks run
over; the package itself only ever indexes them by code.
:func:`integer_distance` is the exception: it reads a numeral's distance
off the package's own pair map, so the tests can hold that map against
orbits run value by value.  :func:`fixed_point_digits` is the paper's
digit formula for the fixed numeral, which the package does not use; the
tests hold it against the package's fixed numerals and full scans.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from kaprekar4.digits import DigitQuad, check_base
from kaprekar4.dynamics import BaseReport, PairDistanceMap, fixed_numerals
from kaprekar4.pairs import pair_of_digits, step_pair


def canonical_pairs(b: int):
    """All canonical pairs of a base, outer-major: the order of pair codes."""
    check_base(b)
    for d in range(b):
        for dp in range(d + 1):
            yield (d, dp)


def integer_distance(q: DigitQuad, pdm: PairDistanceMap) -> int | None:
    """Distance of a numeral to the fixed numeral via the pair map.

    A numeral whose pair sits t steps from the fixed pair lies exactly t+1
    steps from the fixed numeral (the last pair step lands on the fixed
    numeral itself and no earlier step can), except for the fixed numeral.
    """
    if q.base != pdm.base:
        raise ValueError(f"numeral base {q.base} != distance map base {pdm.base}")
    if q.value in fixed_numerals(q.base):
        return 0
    s = pdm.steps.get(pair_of_digits(q.digits))
    return None if s is None else s + 1


def oracle_digits(x: int, b: int) -> tuple[int, int, int, int]:
    digs = []
    v = x
    for _ in range(4):
        v, r = divmod(v, b)
        digs.append(r)
    return (digs[3], digs[2], digs[1], digs[0])


def oracle_value(digits, b: int) -> int:
    acc = 0
    for a in digits:
        acc = acc * b + a
    return acc


def oracle_step(x: int, b: int) -> int:
    digs = sorted(oracle_digits(x, b))
    return oracle_value(digs[::-1], b) - oracle_value(digs, b)


def fixed_point_digits(b: int) -> DigitQuad:
    """The paper's digits (3b/5, b/5 - 1, 4b/5 - 1, 2b/5) of the fixed
    numeral, 5 | b; a value that is not its own image raises RuntimeError."""
    check_base(b)
    if b % 5 != 0:
        raise ValueError(f"base {b} is not a multiple of 5")
    u = b // 5
    q = DigitQuad(b, (3 * u, u - 1, 4 * u - 1, 2 * u))
    if oracle_step(q.value, b) != q.value:
        raise RuntimeError(f"digit formula gives {q.digits}, not a fixed numeral of base {b}")
    return q


def oracle_pair(x: int, b: int) -> tuple[int, int]:
    s = sorted(oracle_digits(x, b))
    return (s[3] - s[0], s[2] - s[1])


def oracle_pair_step(pair: tuple[int, int], b: int) -> tuple[int, int]:
    # image via a representative numeral carrying the pair
    d, dp = pair
    return oracle_pair(oracle_step(oracle_value((d, dp, 0, 0), b), b), b)


def oracle_preimages(b: int) -> dict[tuple[int, int], set[tuple[int, int]]]:
    out: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for d in range(b):
        for dp in range(d + 1):
            out.setdefault(oracle_pair_step((d, dp), b), set()).add((d, dp))
    return out


def oracle_pair_counts(b: int) -> Counter:
    counts: Counter = Counter()
    for x in range(b**4):
        counts[oracle_pair(x, b)] += 1
    return counts


def oracle_orbit(x: int, b: int, cap: int = 100000) -> list[int]:
    """Orbit until the first repetition of any value (inclusive prefix)."""
    seen = {x}
    out = [x]
    for _ in range(cap):
        x = oracle_step(x, b)
        if x in seen:
            return out
        seen.add(x)
        out.append(x)
    raise AssertionError("oracle orbit cap exceeded")


def oracle_distance(x: int, b: int, fixed_values: set[int], cap: int = 100000) -> int | None:
    """Steps until a member of fixed_values appears, or None if never."""
    cur = x
    seen = set()
    for steps in range(cap):
        if cur in fixed_values:
            return steps
        if cur in seen:
            return None
        seen.add(cur)
        cur = oracle_step(cur, b)
    raise AssertionError("oracle distance cap exceeded")


def oracle_pair_distances(
    b: int, fixed: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], int]:
    """Steps from each pair to the nearest of ``fixed``, by walking every
    pair orbit forward."""
    steps: dict[tuple[int, int], int] = dict.fromkeys(fixed, 0)
    for start in canonical_pairs(b):
        path: list[tuple[int, int]] = []
        on_path: set[tuple[int, int]] = set()
        cur = start
        while cur not in steps and cur not in on_path:
            path.append(cur)
            on_path.add(cur)
            cur = step_pair(cur, b)
        if cur in steps:
            base_steps = steps[cur]
            for offset, q in enumerate(reversed(path), start=1):
                steps[q] = base_steps + offset
        # a revisit within the path means a cycle avoiding the fixed pairs:
        # every pair on the path stays absent
    return steps


# ---------------------------------------------------------------------------
# Full per-value tables
# ---------------------------------------------------------------------------

_FULL_CHUNK = 1 << 21


def _sorted_digit_chunk(lo: int, hi: int, b: int) -> np.ndarray:
    # the full tables are for small bases, where b^4 fits in int32
    x = np.arange(lo, hi, dtype=np.int32)
    a0 = x % b
    r = x // b
    a1 = r % b
    r //= b
    a2 = r % b
    a3 = r // b
    digs = np.stack([a0, a1, a2, a3], axis=1)
    digs.sort(axis=1)
    return digs


def full_step_table(b: int) -> np.ndarray:
    """K-image of every value in [0, b^4), as an int32 array."""
    n = b**4
    out = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _FULL_CHUNK):
        hi = min(lo + _FULL_CHUNK, n)
        digs = _sorted_digit_chunk(lo, hi, b)
        asc = ((digs[:, 0] * b + digs[:, 1]) * b + digs[:, 2]) * b + digs[:, 3]
        desc = ((digs[:, 3] * b + digs[:, 2]) * b + digs[:, 1]) * b + digs[:, 0]
        out[lo:hi] = (desc - asc).astype(np.int32)
    return out


def pair_code_table(b: int) -> np.ndarray:
    """outer*b + inner of every value in [0, b^4), as an int32 array."""
    n = b**4
    out = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _FULL_CHUNK):
        hi = min(lo + _FULL_CHUNK, n)
        digs = _sorted_digit_chunk(lo, hi, b)
        out[lo:hi] = ((digs[:, 3] - digs[:, 0]) * b + (digs[:, 2] - digs[:, 1])).astype(np.int32)
    return out


def full_distance_table(b: int):
    """(distances, fixed values) for every value of [0, b^4).

    Distance -1 marks orbits that never reach a non-zero fixed numeral.
    """
    k = full_step_table(b)
    fixed_mask = k == np.arange(k.size, dtype=np.int32)
    fixed_mask[0] = False
    fixed_values = np.flatnonzero(fixed_mask).astype(np.int32)

    dist = np.full(k.size, -1, dtype=np.int32)
    dist[fixed_values] = 0
    while True:
        nd = dist[k]
        mask = (dist < 0) & (nd >= 0)
        if not mask.any():
            break
        dist[mask] = nd[mask] + 1
    return dist, fixed_values


def full_report(b: int) -> BaseReport:
    """The BaseReport of base ``b`` counted value by value."""
    dist, fixed_values = full_distance_table(b)
    counts = np.bincount(dist[dist >= 0])
    return BaseReport(
        base=b,
        histogram={i: int(c) for i, c in enumerate(counts) if c},
        fixed_numerals=[int(v) for v in fixed_values],
    )


def zero_orbit_values(b: int) -> np.ndarray:
    """All values whose orbit falls into the zero sink."""
    k = full_step_table(b)
    reach = np.zeros(k.size, dtype=bool)
    reach[0] = True
    while True:
        mask = ~reach & reach[k]
        if not mask.any():
            break
        reach[mask] = True
    return np.flatnonzero(reach)
