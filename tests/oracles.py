"""Independent brute-force oracles for the test suite.

Deliberately different mechanics from the package: the step is computed by
converting whole rearrangements to integers and subtracting (the package
subtracts digit columns), and preimages/counts come from exhaustive scans.  Pair distances come from a
forward walk of every pair orbit (the package walks predecessors backwards).
"""

from __future__ import annotations

from collections import Counter

from kaprekar4.pairs import canonical_pairs, step_pair


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


def oracle_pair_distances(b: int, fixed: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Steps from each pair to ``fixed``, by walking every pair orbit forward."""
    steps: dict[tuple[int, int], int] = {fixed: 0}
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
        # a revisit within the path means a cycle avoiding the fixed pair:
        # every pair on the path stays absent
    return steps
