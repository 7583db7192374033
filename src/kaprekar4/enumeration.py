"""Brute-force integer-level route, vectorised with numpy.

This is the oracle side of every dual check, with no use of the pair
reduction.  K depends only on a value's digit multiset, so each sorted
digit quadruple a3 >= a2 >= a1 >= a0 is stepped once, as its descending
minus its ascending numeral, and stands for its 24 / prod(run length!)
arrangements in [0, b^4): C(b+3, 4), about b^4/24, steps in all.  The
quadruples are streamed in fixed chunks and only their distinct images
are kept, with how many values map to each, so memory is O(b^2 + chunk)
while time stays O(b^4).  Distances are solved on that image set, which
the step maps into itself; a value's distance is one more than its image's.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .digits import check_base
from .dynamics import BaseReport

# The route streams, so time, not memory, bounds it: on a 2-core Xeon
# b = 320 (4.5*10^8 quadruples) took 48-56 s at 35 MB, most of it merging
# each chunk's images into the table.  Keys are int64; _check_enum_base
# also refuses a base whose keys would not fit.
MAX_ENUM_BASE = 320
# quadruples per chunk; a longer row is split across chunks.  Every chunk
# merges its images into the table, so larger chunks are faster at large
# b: 2^14 took 2.8-3.7 s at b = 180 where 2^13 took 4.2-4.9 s.  2^15 was
# faster still, but its 256 KB temporaries raised the b = 40 peak RSS by
# 1.3 MB, where 2^14 (128 KB) stayed within 0.3 MB of 2^13.
_CHUNK = 1 << 14

# a sorted quadruple's arrangements, 24 / prod(run length!), indexed by
# 4 (a3 == a2) + 2 (a2 == a1) + (a1 == a0)
_WEIGHTS = np.array([24, 12, 12, 4, 12, 6, 4, 1], dtype=np.int64)

# comparator network that sorts four columns ascending
_NETWORK = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))


def _check_enum_base(b: int) -> None:
    check_base(b)
    if b > MAX_ENUM_BASE:
        raise ValueError(f"full enumeration supports bases up to {MAX_ENUM_BASE}, got {b}")
    if 8 * b**4 > 2**63:
        raise ValueError(f"base {b}: keys up to 8 b^4 - 1 do not fit int64")


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
    so the input arrays are never changed; from there on it works in place
    on its own temporaries.
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


def _stream(b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row and triangle parts of every sorted quadruple's key.

    Row r is the digit pair (a3, a2), a3 >= a2, in order.  Its quadruples
    are the first (a2 + 1)(a2 + 2)/2 entries (a1, a0) of the triangle
    a1 >= a0, ordered by a1, and they start at ``row_start[r]`` of the
    stream.  A quadruple's key is 8 K + its weight row, and each part
    holds 8 * (descending - ascending numeral) of its own two digits: the
    row adds 4 when a3 == a2, the triangle 1 when a1 == a0, and the 2 for
    a2 == a1 is added where the entry's index reaches ``mid[r]``, the
    triangle's first entry with a1 == a2.
    """
    b2, b3 = b * b, b**3
    # (a3, a2) over the rows and (a1, a0) over the triangle are the same
    # digit pairs, high digit first and ordered by it
    a3, a2 = a1, a0 = np.array(np.tril_indices(b), dtype=np.int64)
    hi = 8 * ((a3 * b3 + a2 * b2) - (a2 * b + a3)) + 4 * (a3 == a2)
    lo = 8 * ((a1 * b + a0) - (a0 * b3 + a1 * b2)) + (a1 == a0)
    mid = a2 * (a2 + 1) // 2
    row_start = np.zeros(hi.size + 1, dtype=np.int64)
    np.cumsum((a2 + 1) * (a2 + 2) // 2, out=row_start[1:])
    return hi, lo, mid, row_start


def _chunk_keys(stream: tuple, s: int, e: int) -> np.ndarray:
    """The keys of quadruples s..e-1 of the stream, unsorted."""
    hi, lo, mid, row_start = stream
    r0 = int(np.searchsorted(row_start, s, "right")) - 1
    r1 = int(np.searchsorted(row_start, e))
    lens = np.diff(np.clip(row_start[r0:r1 + 1], s, e))
    off = np.arange(s, e) - np.repeat(row_start[r0:r1], lens)
    keys = np.repeat(hi[r0:r1], lens)
    keys += lo[off]
    keys += 2 * (off >= np.repeat(mid[r0:r1], lens))
    return keys


def step_table(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct K-images of [0, b^4) ascending, how many values map to each)."""
    _check_enum_base(b)
    stream = _stream(b)
    total = comb(b + 3, 4)
    images = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    for s in range(0, total, _CHUNK):
        # sorted keys group each image's quadruples; the low 3 bits weigh them
        keys = _chunk_keys(stream, s, min(s + _CHUNK, total))
        keys.sort()
        k = keys >> 3
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        vals, cnts = k[starts], np.add.reduceat(_WEIGHTS[keys & 7], starts)
        pos, found = _positions(images, vals)
        if not found.all():
            # not np.union1d: its plain np.unique imports numpy.ma on first use
            merged = np.sort(np.concatenate((images, vals[~found])))
            grown = np.zeros(merged.size, dtype=np.int64)
            grown[np.searchsorted(merged, images)] = counts
            images, counts = merged, grown
            pos = np.searchsorted(images, vals)
        counts[pos] += cnts
    if int(counts.sum()) != b**4:
        raise RuntimeError(f"base {b}: the weighted quadruples do not count b^4 values")
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
