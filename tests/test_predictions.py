from fractions import Fraction

import numpy as np
import pytest

from kaprekar4.predictions import (
    FiveMultiple,
    NoFixedPoint,
    TwoOrFour,
    classify_base,
    fixed_point_digits,
    grid_landing,
    predict_convergent_fraction,
    predict_max_distance,
)
from kaprekar4.tables import (
    cell_step_bound,
    cycle_cells,
    grid_arrival,
    landing_bound,
    landing_witnesses,
    max_total_steps,
)
from kaprekar4.pairs import step_pair
from oracles import oracle_step


def test_classify_base():
    assert classify_base(2) == TwoOrFour()
    assert classify_base(4) == TwoOrFour()
    assert classify_base(40) == FiveMultiple(m=1, n=3)
    assert classify_base(60) == FiveMultiple(m=3, n=2)
    assert classify_base(5) == FiveMultiple(m=1, n=0)
    assert classify_base(7) == NoFixedPoint()
    for b in range(2, 300):
        cls = classify_base(b)
        if isinstance(cls, FiveMultiple):
            assert cls.m % 2 == 1 and b == 5 * cls.m * 2**cls.n


def _fixed_scan(b):
    # independent fixed-point scan over all b^4 values
    x = np.arange(b**4, dtype=np.int64)
    digs = np.stack([x % b, x // b % b, x // b**2 % b, x // b**3], axis=1)
    digs.sort(axis=1)
    asc = ((digs[:, 0] * b + digs[:, 1]) * b + digs[:, 2]) * b + digs[:, 3]
    desc = ((digs[:, 3] * b + digs[:, 2]) * b + digs[:, 1]) * b + digs[:, 0]
    k = desc - asc
    return [int(v) for v in np.flatnonzero(k == x) if v != 0]


def test_fixed_point_digits():
    assert fixed_point_digits(10).digits == (6, 1, 7, 4)
    assert fixed_point_digits(5).digits == (3, 0, 3, 2)
    assert fixed_point_digits(20).digits == (12, 3, 15, 8)
    with pytest.raises(ValueError):
        fixed_point_digits(12)
    for b in (5, 10, 15, 20):
        assert _fixed_scan(b) == [fixed_point_digits(b).value]


def test_fixed_point_guard_raises(monkeypatch):
    import kaprekar4.predictions as predictions_mod

    monkeypatch.setattr(predictions_mod, "step_value", lambda x, b: None)
    with pytest.raises(RuntimeError):
        fixed_point_digits(10)


def test_predict_max_distance_values():
    expected = {
        2: 1,
        4: 3,
        5: 4,
        10: 7,
        20: 10,
        15: 2,
        30: 3,
        45: 2,
        60: 4,
        70: 3,
        90: 3,
        40: 21,
        80: 22,
        160: 20,
        320: 23,
        640: 41,
        7: None,
        12: None,
    }
    for b, want in expected.items():
        assert predict_max_distance(b) == want, b


def test_predict_convergent_fraction_values():
    assert predict_convergent_fraction(15) == Fraction(48, 1125) == Fraction(2160, 50625)
    assert predict_convergent_fraction(30) == Fraction(30240, 810000)
    assert predict_convergent_fraction(10) == Fraction(9990, 10000)
    assert predict_convergent_fraction(5) == Fraction(620, 625)
    assert predict_convergent_fraction(40) == Fraction(40**4 - 40, 40**4)
    assert predict_convergent_fraction(20) is None  # n even, m = 1
    assert predict_convergent_fraction(2) is None
    assert predict_convergent_fraction(7) is None


def test_predicted_count_formula():
    # |S_b| = 40 * 4^n * m^2 * (1 + 5*4^n) for odd m > 1
    for b in (15, 30, 35, 45, 60, 70, 90, 120):
        cls = classify_base(b)
        frac = predict_convergent_fraction(b)
        count = frac * b**4
        assert count.denominator == 1
        assert count.numerator == 40 * 4**cls.n * cls.m**2 * (1 + 5 * 4**cls.n)


def test_predicted_max_distance_measured_up_to_200():
    from kaprekar4.dynamics import base_report, pair_distance_map

    for b in range(2, 201):
        predicted = predict_max_distance(b)
        if predicted is None:
            continue
        if b in (2, 4):
            measured = base_report(b).max_distance
        else:
            measured = 1 + max(pair_distance_map(b).steps.values())
        assert measured == predicted, b


def test_predicted_fraction_measured_up_to_120():
    from kaprekar4.dynamics import base_report

    for b in range(5, 121, 5):
        cls = classify_base(b)
        if cls.m == 1:
            continue
        assert base_report(b).convergent_fraction == predict_convergent_fraction(b), b


# ---------------------------------------------------------------------------
# grid landing
# ---------------------------------------------------------------------------


def test_landing_bound_cases():
    assert landing_bound(3, 1, 99) == 0
    assert landing_bound(2, 2, 7) == 0
    assert landing_bound(0, 0, 7) == 0
    assert landing_bound(4, 0, 5) == 5
    assert landing_bound(4, 2, 6) == 12
    assert landing_bound(3, 2, 7) == 16
    with pytest.raises(ValueError):
        landing_bound(1, 2, 5)
    with pytest.raises(ValueError):
        landing_bound(5, 0, 5)


def test_grid_landing_examples():
    assert grid_landing((4, 1), 20) == (2, (4, 1))
    assert grid_landing((12, 4), 20) == (0, (3, 1))  # already divisible
    assert grid_landing((80, 5), 160) == (12, (1, 0))  # 2n+2 at n=5


def test_grid_landing_base_validation():
    for bad in (10, 15, 30):  # n < 2 or m > 1
        with pytest.raises(ValueError):
            grid_landing((1, 0), bad)


# ---------------------------------------------------------------------------
# data tables
# ---------------------------------------------------------------------------


def test_grid_arrival_entries():
    assert grid_arrival(1, 0, 4).cell == (1, 0)
    assert grid_arrival(1, 0, 4).steps == 5
    assert grid_arrival(4, 1, 5).cell == (2, 0)
    assert (grid_arrival(2, 1, 9).steps, grid_arrival(2, 1, 9).cell) == (1, (3, 1))
    assert grid_arrival(0, 0, 6).cell == (0, 0)
    with pytest.raises(ValueError):
        grid_arrival(0, 1, 4)


def test_grid_arrival_matches_iteration():
    # every cell row, all four column classes
    for n in (2, 3, 4, 5):
        b = 5 * 2**n
        g = 2**n
        for p in range(5):
            for q in range(p + 1):
                entry = grid_arrival(p, q, n)
                cur = (p * g, q * g)
                for _ in range(entry.steps):
                    cur = step_pair(cur, b)
                assert cur == (entry.cell[0] * g, entry.cell[1] * g), (n, p, q)


def test_cell_step_bound_entries():
    assert (cell_step_bound(4, 1, 7), (4, 1) in cycle_cells(7)) == (41, False)
    assert (cell_step_bound(2, 0, 6), (2, 0) in cycle_cells(6)) == (13, True)
    assert cell_step_bound(3, 1, 8) == 1
    assert (0, 0) in cycle_cells(5)
    # n = 0 (mod 4): 4n+5, as measured
    assert [cell_step_bound(3, 0, n) for n in (4, 8)] == [21, 37]


@pytest.mark.parametrize("fn", [landing_bound, grid_arrival, cell_step_bound])
@pytest.mark.parametrize("p, q", [(5, 0), (1, 2), (-1, 0)])
def test_non_cells_are_rejected(fn, p, q):
    # every per-cell lookup shares one guard: 0 <= q <= p <= 4
    with pytest.raises(ValueError) as exc:
        fn(p, q, 3)
    assert str(exc.value) == f"({p}, {q}) is not a canonical grid cell"


def test_max_total_steps_matches_prediction():
    for n in range(3, 14):
        assert max_total_steps(n) == predict_max_distance(5 * 2**n), n


def test_cycle_cells_by_column():
    assert cycle_cells(8) == [(0, 0), (1, 0)]
    assert cycle_cells(5) == [(0, 0)]
    assert cycle_cells(6) == [(0, 0), (2, 0), (2, 2), (3, 2), (3, 3)]
    assert cycle_cells(7) == [(0, 0)]


def test_landing_witnesses_rows():
    rows = {w.start: w for w in landing_witnesses(5)}
    assert len(rows) == 9
    b = 160
    assert rows[(b // 2, 5)].steps == 12 and rows[(b // 2, 5)].cell == (1, 0)
    assert rows[(4, 1)].steps == 5
    assert rows[(9, 1)].steps == 10
    # (b/4, 5) = (5,5) is excluded at n = 2: first coordinate must exceed 5
    starts2 = [w.start for w in landing_witnesses(2)]
    assert (10, 5) in starts2 and (5, 5) not in starts2
    with pytest.raises(ValueError):
        landing_witnesses(1)


def test_witness_rows_measured_small_n():
    # the fixed witness rows claim exact landings for every n >= 2
    for n in (2, 3, 4):
        b = 5 * 2**n
        for w in landing_witnesses(n):
            assert grid_landing(w.start, b) == (w.steps, w.cell), (n, w)
