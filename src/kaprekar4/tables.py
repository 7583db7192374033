"""Literal data tables for the bases b = 5 * 2^n, one per grid-cell fact:
landing bounds, the arrival grid, landing witnesses and total steps.

They are embedded as constants, keyed by grid cell and by n mod 4, and
verified computationally by the test suite and :mod:`.verify`.  The bound
and arrival tables store a step count a*n + c as the row (a, c), and the
lookups answer in :func:`~kaprekar4.predictions.grid_landing`'s shape:
:func:`grid_arrival` gives (steps, cell), :func:`landing_witnesses` gives
(start, steps, cell) rows.  The tables are never used as the computation
itself, so a transcription slip shows up as a mismatch against measurement
instead of silently steering results.  Each non-cycle total-step entry is
checked cell by cell, against every pair that first lands on that cell.

Grid cells: a pair with both coordinates divisible by g = b/5 is written
g*(p, q) and identified with the cell (p, q), 0 <= q <= p <= 4.
"""

from __future__ import annotations

from .pairs import Pair

Cell = tuple[int, int]

# The orbit of g*(p, q) first returns to the grid after a*n + c steps, at
# g*(column entry): n+1 steps for the ten cells that circle the grid, one for
# the fixed pair (0, 0) and for the four cells that step straight onto the
# fixed pair g*(3, 1).
_ARRIVAL_ROWS: dict[Cell, tuple[int, int, tuple[Cell, Cell, Cell, Cell]]] = {
    (1, 0): (1, 1, ((1, 0), (4, 3), (2, 1), (3, 2))),
    (2, 0): (1, 1, ((4, 3), (2, 1), (3, 2), (1, 0))),
    (3, 0): (1, 1, ((3, 2), (1, 0), (4, 3), (2, 1))),
    (4, 0): (1, 1, ((2, 1), (3, 2), (1, 0), (4, 3))),
    (4, 1): (1, 1, ((4, 2), (2, 0), (4, 2), (2, 0))),
    (1, 1): (1, 1, ((4, 2), (2, 0), (4, 2), (2, 0))),
    (4, 4): (1, 1, ((4, 2), (2, 0), (4, 2), (2, 0))),
    (3, 2): (1, 1, ((2, 0), (4, 2), (2, 0), (4, 2))),
    (2, 2): (1, 1, ((2, 0), (4, 2), (2, 0), (4, 2))),
    (3, 3): (1, 1, ((2, 0), (4, 2), (2, 0), (4, 2))),
    (0, 0): (0, 1, ((0, 0),) * 4),
    (2, 1): (0, 1, ((3, 1),) * 4),
    (3, 1): (0, 1, ((3, 1),) * 4),
    (4, 2): (0, 1, ((3, 1),) * 4),
    (4, 3): (0, 1, ((3, 1),) * 4),
}


def _check_cell(p: int, q: int) -> None:
    if not 0 <= q <= p <= 4:
        raise ValueError(f"({p}, {q}) is not a canonical grid cell")


# Every pair orbit reaches a grid pair; an orbit first landing on g*(p, q)
# takes at most a*n + c steps to get there.
_LANDING_BOUND_ROWS: dict[Cell, tuple[int, int]] = {
    (0, 0): (0, 0), (1, 1): (0, 0), (2, 2): (0, 0), (3, 3): (0, 0), (4, 4): (0, 0),
    (3, 1): (0, 0), (3, 0): (1, 0), (4, 0): (1, 0), (4, 1): (1, 0),
    (2, 0): (2, 0), (4, 2): (2, 0),
    (1, 0): (2, 2), (2, 1): (2, 2), (3, 2): (2, 2), (4, 3): (2, 2),
}


def landing_bound(p: int, q: int, n: int) -> int:
    """Upper bound on the steps needed before first hitting grid cell (p, q)."""
    _check_cell(p, q)
    a, c = _LANDING_BOUND_ROWS[(p, q)]
    return a * n + c


def grid_arrival(p: int, q: int, n: int) -> tuple[int, Cell]:
    """Tabulated (steps, cell) of the orbit of g*(p, q)'s first return to
    the grid, after at least one step."""
    _check_cell(p, q)
    a, c, cells = _ARRIVAL_ROWS[(p, q)]
    return a * n + c, cells[n % 4]


# ---------------------------------------------------------------------------
# Starting pairs attaining the landing bounds
# ---------------------------------------------------------------------------


_FIXED_WITNESS_ROWS: tuple[tuple[Pair, int, tuple[Cell, Cell, Cell, Cell]], ...] = (
    ((4, 1), 1, ((4, 1), (4, 1), (4, 1), (4, 1))),
    ((5, 1), 1, ((4, 0), (4, 0), (4, 0), (4, 0))),
    ((5, 2), 1, ((3, 0), (3, 0), (3, 0), (3, 0))),
    ((9, 1), 2, ((2, 0), (4, 2), (2, 0), (4, 2))),
    ((7, 3), 2, ((4, 2), (2, 0), (4, 2), (2, 0))),
)

_HALVING_WITNESS_ROWS: tuple[tuple[int, tuple[Cell, Cell, Cell, Cell]], ...] = (
    (2, ((3, 2), (1, 0), (4, 3), (2, 1))),
    (4, ((2, 1), (3, 2), (1, 0), (4, 3))),
    (8, ((4, 3), (2, 1), (3, 2), (1, 0))),
    (16, ((1, 0), (4, 3), (2, 1), (3, 2))),
)


def landing_witnesses(n: int) -> list[tuple[Pair, int, Cell]]:
    """Starting pairs whose landing attains the bound, for base b = 5 * 2^n.

    The first five rows need only n >= 2; the (b/2^k, 5) rows apply once
    their first coordinate is an integer strictly larger than 5.
    """
    if n < 2:
        raise ValueError(f"witness rows need n >= 2, got {n}")
    b = 5 * 2**n
    col = n % 4
    out = [(start, mult * n, cells[col]) for start, mult, cells in _FIXED_WITNESS_ROWS]
    for divisor, cells in _HALVING_WITNESS_ROWS:
        if b % divisor == 0 and b // divisor > 5:
            out.append(((b // divisor, 5), 2 * n + 2, cells[col]))
    return out


# ---------------------------------------------------------------------------
# Total steps to the fixed numeral, by first grid cell encountered
# ---------------------------------------------------------------------------


def _lin(a: int, c: int, cycles: bool = False):
    return (a, c, cycles)


_CELL_BOUND_ROWS: dict[Cell, tuple[tuple[int, int, bool], ...]] = {
    (2, 1): (_lin(2, 4), _lin(2, 4), _lin(2, 4), _lin(2, 4)),
    (4, 2): (_lin(2, 2), _lin(2, 2), _lin(2, 2), _lin(2, 2)),
    (4, 3): (_lin(2, 4), _lin(2, 4), _lin(2, 4), _lin(2, 4)),
    (1, 0): (_lin(2, 3, True), _lin(3, 5), _lin(3, 5), _lin(4, 6)),
    (2, 0): (_lin(3, 3), _lin(3, 3), _lin(2, 1, True), _lin(5, 5)),
    # n = 0 (mod 4): once transcribed 3n+4, corrected against measurement to
    # 4n+5 = n landing steps, 3(n+1) along (3,0)->(3,2)->(2,0)->(4,3), one
    # pair step to the fixed pair and one integer step
    (3, 0): (_lin(4, 5), _lin(3, 4), _lin(2, 3), _lin(2, 3)),
    (4, 0): (_lin(2, 3), _lin(3, 4), _lin(3, 4), _lin(2, 3)),
    (4, 1): (_lin(2, 3), _lin(3, 4), _lin(2, 3), _lin(5, 6)),
    (1, 1): (_lin(1, 3), _lin(2, 4), _lin(1, 3), _lin(4, 6)),
    (4, 4): (_lin(1, 3), _lin(2, 4), _lin(1, 3), _lin(4, 6)),
    (3, 2): (_lin(4, 6), _lin(3, 5), _lin(2, 3, True), _lin(3, 5)),
    (2, 2): (_lin(2, 4), _lin(1, 3), _lin(0, 2, True), _lin(1, 3)),
    (3, 3): (_lin(2, 4), _lin(1, 3), _lin(0, 2, True), _lin(1, 3)),
    (0, 0): (_lin(0, 1, True), _lin(0, 1, True), _lin(0, 1, True), _lin(0, 1, True)),
    (3, 1): (_lin(0, 1), _lin(0, 1), _lin(0, 1), _lin(0, 1)),
}


def cell_step_bound(p: int, q: int, n: int) -> int:
    """Bound on total steps from any start whose first grid cell is (p, q).

    For a cycle cell (see :func:`cycle_cells`), whose orbits never reach the
    fixed numeral, it bounds the steps to the first periodic value instead.
    The column maxima over non-cycle cells are attained (they equal the
    worst-case distance) once n >= 5.
    """
    _check_cell(p, q)
    a, c, _ = _CELL_BOUND_ROWS[(p, q)][n % 4]
    return a * n + c


def max_total_steps(n: int) -> int:
    """Largest non-cycle entry of the column for n, over all grid cells."""
    best = 0
    for row in _CELL_BOUND_ROWS.values():
        a, c, cycles = row[n % 4]
        if not cycles:
            best = max(best, a * n + c)
    return best


def cycle_cells(n: int) -> list[Cell]:
    """Grid cells whose column entry is a cycle marker, in sorted order."""
    return sorted(
        cell for cell, row in _CELL_BOUND_ROWS.items() if row[n % 4][2]
    )
