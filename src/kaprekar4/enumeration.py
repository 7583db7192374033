"""Brute-force integer-level route, vectorised with numpy.

This is the oracle side of every dual check, with no use of the pair
reduction.  K depends only on a value's digit multiset, so each sorted
digit quadruple a3 >= a2 >= a1 >= a0 is stepped once, as its descending
minus its ascending numeral, and stands for its 24 / prod(run length!)
arrangements in [0, b^4): C(b+3, 4), about b^4/24, steps in all.  For
each a2 they are the rows a3 = a2..b-1, each over the same prefix of one
(a1, a0) triangle, walked in bands of whole rows.  One sort-and-sum keeps
only the distinct images, with how many values map to each: a band's
sorted keys are summed per image, then the band and the table are stably
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
# b = 320 (4.5*10^8 quadruples) took 29-33 s at 39-40 MB.  Keys are int64;
# _check_enum_base also refuses a base whose keys would not fit.
MAX_ENUM_BASE = 320
# a band of rows with t quadruples each holds ceil(_CHUNK / t) of them, so
# a row longer than _CHUNK is a band alone.  Every band merges its images
# into the table, so larger chunks are faster at large b: at b = 180, 2^13
# took 2.3-2.8 s, 2^14 1.7-2.0 s and 2^15 1.6-1.7 s, but 2^15 raised the
# peak RSS by 0.6 MB there (at b = 40 all three peak at 29.4 MB).
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


def _triangle(b: int) -> np.ndarray:
    """The (a1, a0) part of the key of each pair a1 >= a0, ordered by a1."""
    a1, a0 = np.array(np.tril_indices(b), dtype=np.int64)
    return 8 * ((a1 * b + a0) - (a0 * b**3 + a1 * b * b)) + (a1 == a0)


def step_table(b: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct K-images of [0, b^4) ascending, how many values map to each)."""
    _check_enum_base(b)
    low = _triangle(b)
    images = counts = np.empty(0, dtype=np.int64)
    for a2 in range(b):
        # a key, 8 K + weight row, is a row part plus a triangle part: 8 *
        # (descending - ascending numeral) of their own digits, plus 4 where
        # a3 == a2 and 1 where a1 == a0.  Rows a3 = a2..b-1 share the first t
        # triangle entries, a1 <= a2; the last a2 + 1 (a1 == a2) add 2
        t = (a2 + 1) * (a2 + 2) // 2
        tri = low[:t].copy()
        tri[t - a2 - 1:] += 2
        a3 = np.arange(a2, b, dtype=np.int64)
        high = 8 * ((a3 * b**3 + a2 * b * b) - (a2 * b + a3)) + 4 * (a3 == a2)
        band = -(-_CHUNK // t)
        for r in range(0, high.size, band):
            # sorted keys group each image's quadruples; the low 3 bits weigh them
            keys = (high[r:r + band, None] + tri).ravel()
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
