"""Brute-force integer-level route, vectorised with numpy.

This is the oracle side of every dual check, with no use of the pair
reduction.  K depends only on a value's digit multiset, so each sorted
digit quadruple a3 >= a2 >= a1 >= a0 is stepped once, as its descending
minus its ascending numeral, and stands for its 24 / prod(run length!)
arrangements in [0, b^4): C(b+3, 4), about b^4/24, steps in all.  The
quadruples are streamed in fixed chunks.  One sort-and-sum keeps only
the distinct images, with how many values map to each: a chunk's sorted
keys are summed per image, then the chunk and the table are stably
sorted together and summed the same way.  Memory is O(b^2 + chunk), time
O(b^4).  Distances are solved on that image set, which the step maps
into itself; a value's distance is one more than its image's.

Nothing here calls BLAS, yet OpenBLAS starts a worker thread per CPU when
numpy loads; on a 2-CPU host that took numpy's import from ~0.11 s to
~0.17 s.  So numpy is loaded with ``OPENBLAS_NUM_THREADS=1``, and
``os.environ`` is restored right after, so child processes do not inherit
it.  This applies only when numpy is not loaded yet (OpenBLAS reads its
thread count once, when it loads) and none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set: setting one, or
importing numpy first, keeps BLAS's own threads.
"""

from __future__ import annotations

import os
import sys
from math import comb

_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .digits import check_base
from .dynamics import BaseReport

# The route streams, so time, not memory, bounds it: on a 2-core Xeon
# b = 320 (4.5*10^8 quadruples) took 28-41 s at 36 MB.  Keys are int64;
# _check_enum_base also refuses a base whose keys would not fit.
MAX_ENUM_BASE = 320
# quadruples per chunk; a longer row is split across chunks.  Every chunk
# merges its images into the table, so larger chunks are faster at large
# b: at b = 180, 2^13 took 2.8-4.4 s, 2^14 2.4-2.6 s and 2^15 1.9-2.0 s,
# but 2^15 (256 KB temporaries) raised the b = 40 peak RSS by 1.2 MB.
_CHUNK = 1 << 14

# a sorted quadruple's arrangements, 24 / prod(run length!), indexed by
# 4 (a3 == a2) + 2 (a2 == a1) + (a1 == a0)
_WEIGHTS = np.array([24, 12, 12, 4, 12, 6, 4, 1], dtype=np.int64)


def _check_enum_base(b: int) -> None:
    check_base(b)
    if b > MAX_ENUM_BASE:
        raise ValueError(f"full enumeration supports bases up to {MAX_ENUM_BASE}, got {b}")
    if 8 * b**4 > 2**63:
        raise ValueError(f"base {b}: keys up to 8 b^4 - 1 do not fit int64")


def _step(x: np.ndarray, b: int) -> np.ndarray:
    """K-image of each int64 value in ``x``: its sorted digits' descending minus ascending numeral."""
    d = np.empty((4, x.size), dtype=np.int64)
    for k in range(4):
        x, d[k] = np.divmod(x, b)
    d.sort(axis=0)
    asc = ((d[0] * b + d[1]) * b + d[2]) * b + d[3]
    desc = ((d[3] * b + d[2]) * b + d[1]) * b + d[0]
    return desc - asc


def _group_sum(vals: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the ascending ``vals``, each with the sum of its ``weights``."""
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    return vals[starts], np.add.reduceat(weights, starts)


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
    images = counts = np.empty(0, dtype=np.int64)
    for s in range(0, total, _CHUNK):
        # sorted keys group each image's quadruples; the low 3 bits weigh them
        keys = _chunk_keys(stream, s, min(s + _CHUNK, total))
        keys.sort()
        vals, cnts = _group_sum(keys >> 3, _WEIGHTS[keys & 7])
        # a stable sort merges the two ascending runs in one pass; each
        # rebinding frees a table-sized array.  Not np.union1d or np.unique:
        # their plain np.unique imports numpy.ma on first use
        images = np.concatenate((images, vals))
        order = np.argsort(images, kind="stable")
        images = images[order]
        counts = np.concatenate((counts, cnts))[order]
        images, counts = _group_sum(images, counts)
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
    succ = np.searchsorted(images, nxt)
    if not np.array_equal(images[np.minimum(succ, images.size - 1)], nxt):
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
