"""Brute-force integer-level route, vectorised with numpy.

This is the oracle side of every dual check: the step table is built by
expanding, sorting and subtracting actual digit columns for all b^4 values,
and distances come from pulling along the functional graph, with no use of
the pair reduction.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .digits import check_base
from .dynamics import BaseReport

# b^4 (and every table entry) must fit in int32
MAX_ENUM_BASE = 215
_CHUNK = 1 << 21


def _check_enum_base(b: int) -> None:
    check_base(b)
    if b > MAX_ENUM_BASE:
        raise ValueError(f"full enumeration supports bases up to {MAX_ENUM_BASE}, got {b}")


def _sorted_digit_chunk(lo: int, hi: int, b: int) -> np.ndarray:
    x = np.arange(lo, hi, dtype=np.int64)
    a0 = x % b
    r = x // b
    a1 = r % b
    r //= b
    a2 = r % b
    a3 = r // b
    digs = np.stack([a0, a1, a2, a3], axis=1)
    digs.sort(axis=1)
    return digs


def step_table(b: int) -> np.ndarray:
    """K-image of every value in [0, b^4), as an int32 array."""
    _check_enum_base(b)
    n = b**4
    out = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        digs = _sorted_digit_chunk(lo, hi, b)
        asc = ((digs[:, 0] * b + digs[:, 1]) * b + digs[:, 2]) * b + digs[:, 3]
        desc = ((digs[:, 3] * b + digs[:, 2]) * b + digs[:, 1]) * b + digs[:, 0]
        out[lo:hi] = (desc - asc).astype(np.int32)
    return out


def pair_code_table(b: int) -> np.ndarray:
    """outer*b + inner of every value in [0, b^4), as an int32 array."""
    _check_enum_base(b)
    n = b**4
    out = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        digs = _sorted_digit_chunk(lo, hi, b)
        out[lo:hi] = ((digs[:, 3] - digs[:, 0]) * b + (digs[:, 2] - digs[:, 1])).astype(np.int32)
    return out


def distance_table(b: int, with_basins: bool = False):
    """(distances, fixed values, basin roots) for all of [0, b^4).

    distance -1 marks orbits that never reach a non-zero fixed numeral
    (the zero sink and genuine cycles).  The basin roots (each value's fixed
    numeral) are None unless ``with_basins``; at b = 40 they would take
    another 4 bytes per state.
    """
    k = step_table(b)
    x = np.arange(k.size, dtype=np.int32)
    fixed_mask = k == x
    fixed_mask[0] = False
    fixed_values = np.flatnonzero(fixed_mask).astype(np.int32)

    dist = np.full(k.size, -1, dtype=np.int32)
    dist[fixed_values] = 0
    root = None
    if with_basins:
        root = np.full(k.size, -1, dtype=np.int32)
        root[fixed_values] = fixed_values
    while True:
        nd = dist[k]
        mask = (dist < 0) & (nd >= 0)
        if not mask.any():
            break
        dist[mask] = nd[mask] + 1
        if root is not None:
            root[mask] = root[k][mask]
    return dist, fixed_values, root


def convergence_report(b: int, with_basins: bool = False) -> BaseReport:
    """BaseReport assembled purely from integer orbits."""
    dist, fixed_values, root = distance_table(b, with_basins)
    converged = dist >= 0
    count = int(converged.sum())
    if count:
        counts = np.bincount(dist[converged])
        histogram = {i: int(c) for i, c in enumerate(counts) if c}
        max_distance = int(counts.size - 1)
    else:
        histogram = {}
        max_distance = None

    basin_sizes = None
    if root is not None:
        basin_sizes = {int(v): int((root == v).sum()) for v in fixed_values}

    return BaseReport(
        base=b,
        max_distance=max_distance,
        convergent_count=count,
        convergent_fraction=Fraction(count, b**4),
        histogram=histogram,
        fixed_numerals=[int(v) for v in fixed_values],
        basin_sizes=basin_sizes,
    )


def zero_orbit_values(b: int) -> np.ndarray:
    """All values whose orbit falls into the zero sink."""
    k = step_table(b)
    reach = np.zeros(k.size, dtype=bool)
    reach[0] = True
    while True:
        mask = ~reach & reach[k]
        if not mask.any():
            break
        reach[mask] = True
    return np.flatnonzero(reach)
