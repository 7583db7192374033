"""Brute-force integer-level route, vectorised with numpy.

This is the oracle side of every dual check, with no use of the pair
reduction: every value in [0, b^4) is stepped.  Its digit columns are
built in blocks of b^2 values that share their two high digits, not
divided out of each value; they are sorted by a comparator network and
the value is stepped as descending minus ascending.  The values are
streamed in fixed chunks and only their distinct images are kept, with
how many values map to each, so memory is O(b^2 + chunk) while time stays
O(b^4).  Distances are solved on that image set, which the step maps into
itself; a value's distance is one more than its image's.
"""

from __future__ import annotations

import numpy as np

from .digits import check_base
from .dynamics import BaseReport

# The route streams, so time, not memory, bounds it: at ~4*10^7 values/s
# (2-core Xeon) b = 180 took 27 s.  The digit columns are int32, exact while
# b^4 - 1 < 2^31, which holds up to b = 215; _check_enum_base enforces it.
MAX_ENUM_BASE = 180
# values per chunk, rounded down to whole blocks of b^2 (one block when
# b^2 is larger).  2^14 measured faster than 2^13 or 2^15: at 2^15 a
# chunk's 128 KB int32 temporaries reach glibc malloc's default 128 KiB
# trim threshold, and their pages are returned and faulted back per chunk.
_CHUNK = 1 << 14

# comparator network that sorts four columns ascending
_NETWORK = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))


def _check_enum_base(b: int) -> None:
    check_base(b)
    if b > MAX_ENUM_BASE:
        raise ValueError(f"full enumeration supports bases up to {MAX_ENUM_BASE}, got {b}")
    if b**4 - 1 > np.iinfo(np.int32).max:
        raise ValueError(f"base {b}: values up to b^4 - 1 do not fit the int32 digit columns")


def _step(x: np.ndarray, b: int) -> np.ndarray:
    """K-image of each value in the int64 array ``x``, split into digits by division."""
    cols = []
    for _ in range(3):
        x, r = np.divmod(x, b)
        cols.append(r)
    cols.append(x)
    return _sorted_difference(cols, b)


def _sorted_difference(cols: list[np.ndarray], b: int) -> np.ndarray:
    """Descending minus ascending numeral of four digit columns, lowest first.

    The comparator network sorts the columns, reordering the list.  Its
    first two comparators read each input array once and write new arrays,
    so the input arrays are never changed: :func:`step_table` hands every
    chunk the same low-digit columns.  From there on it works in place on
    its own temporaries, which are what a chunk's peak memory is made of.
    """
    for n, (i, j) in enumerate(_NETWORK):
        cols[i], cols[j] = (np.minimum(cols[i], cols[j]),
                            np.maximum(cols[i], cols[j], out=cols[j] if n >= 2 else None))
    desc, asc = cols[3].copy(), cols[0]
    for k in (2, 1, 0):
        desc *= b
        desc += cols[k]
    for k in (1, 2, 3):
        asc *= b
        asc += cols[k]
    desc -= asc
    return desc


def _positions(table: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``vals`` sits in the ascending ``table``, and whether it is there."""
    pos = np.searchsorted(table, vals)
    found = pos < table.size
    found[found] = table[pos[found]] == vals[found]
    return pos, found


def step_table(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct K-images of [0, b^4) ascending, how many values map to each)."""
    _check_enum_base(b)
    bb = b * b
    # a chunk is whole blocks of b^2 values, one block per high-digit pair;
    # the low two digits run through the same b^2 pairs in every block
    blocks = max(1, _CHUNK // bb)
    a1, a0 = np.divmod(np.arange(bb, dtype=np.int32), b)
    low0, low1 = np.tile(a0, blocks), np.tile(a1, blocks)
    images = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    for q in range(0, bb, blocks):
        a3, a2 = np.divmod(np.arange(q, min(q + blocks, bb), dtype=np.int32), b)
        size = a3.size * bb
        cols = [low0[:size], low1[:size], np.repeat(a2, bb), np.repeat(a3, bb)]
        vals, cnts = np.unique(_sorted_difference(cols, b), return_counts=True)
        vals = vals.astype(np.int64)
        pos, found = _positions(images, vals)
        if not found.all():
            # not np.union1d: its plain np.unique imports numpy.ma on first use
            merged = np.sort(np.concatenate((images, vals[~found])))
            grown = np.zeros(merged.size, dtype=np.int64)
            grown[np.searchsorted(merged, images)] = counts
            images, counts = merged, grown
            pos = np.searchsorted(images, vals)
        counts[pos] += cnts
    return images, counts


def distance_table(b: int):
    """(images, counts, distances, fixed values) on the image set.

    ``images`` and ``counts`` are :func:`step_table`'s.  ``distances[i]`` is
    the number of steps from ``images[i]`` to a non-zero fixed numeral, -1
    when its orbit never reaches one (the zero sink and genuine cycles).
    """
    images, counts = step_table(b)
    nxt = _step(images, b)
    succ, found = _positions(images, nxt)
    if not found.all():
        raise RuntimeError(f"base {b}: an image's image is missing from the image table")
    fixed = np.flatnonzero((nxt == images) & (images != 0))
    fixed_values = images[fixed]

    dist = np.full(images.size, -1, dtype=np.int64)
    dist[fixed] = 0
    while True:
        nd = dist[succ]
        mask = (dist < 0) & (nd >= 0)
        if not mask.any():
            break
        dist[mask] = nd[mask] + 1
    return images, counts, dist, fixed_values


def convergence_report(b: int) -> BaseReport:
    """BaseReport assembled purely from integer orbits.

    A value whose image y converges lies dist(y) + 1 steps out, except a
    fixed numeral itself, which is its own image and lies 0 steps out.
    """
    images, counts, dist, fixed_values = distance_table(b)
    converged = dist >= 0
    hist = np.zeros(images.size + 1, dtype=np.int64)
    np.add.at(hist, dist[converged] + 1, counts[converged])
    hist[1] -= fixed_values.size
    hist[0] += fixed_values.size
    histogram = {int(i): int(hist[i]) for i in np.flatnonzero(hist)}
    return BaseReport(b, histogram, [int(v) for v in fixed_values])
