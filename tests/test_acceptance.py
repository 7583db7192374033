"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every comparison is exact; the stated wall-clock budgets are
asserted alongside the results.
"""

import random
import time
from array import array
from fractions import Fraction

import numpy as np

from kaprekar4.cli import main
from kaprekar4.digits import join_digits, step_value, to_digits
from kaprekar4.dynamics import (
    FixedNumeral,
    base_report,
    fixed_numerals,
    trajectory,
)
from kaprekar4.pairs import (
    PairType,
    _step_table,
    classify_pair,
    condensed_image,
    pair_count,
    predecessors_of,
    step_pair,
)
from kaprekar4.predictions import (
    classify_base,
    grid_landing,
    predict_max_distance,
)
from kaprekar4.tables import (
    grid_arrival,
    landing_bound,
    landing_witnesses,
    max_total_steps,
)
from kaprekar4.verify import _check_cycle_rows
from oracles import canonical_pairs, full_step_table, oracle_preimages, pair_code_table


def _finish(num: str, desc: str, limit: float, t0: float, problems: list):
    elapsed = time.perf_counter() - t0
    if elapsed >= limit:
        problems.append(f"took {elapsed:.2f}s, budget {limit}s")
    status = "PASS" if not problems else "FAIL"
    print(f"{status}  criterion {num}: {desc}  [{elapsed:.2f}s / {limit}s]")
    assert not problems, problems


def test_criterion_01_worked_chain():
    trajectory(to_digits(889, 10))  # warm-up outside the timed window
    t0 = time.perf_counter()
    t = trajectory(to_digits(889, 10))
    problems = []
    if [s.value for s in t.states] != [889, 8991, 8082, 8532, 6174]:
        problems.append(f"states {[s.value for s in t.states]}")
    if t.terminal != FixedNumeral(6174) or t.distance != 4:
        problems.append(f"terminal {t.terminal}, distance {t.distance}")
    _finish("01", "worked chain 0889 -> 6174 in 4 steps", 0.001, t0, problems)


def test_criterion_02_explicit_max_distances_by_enumeration():
    t0 = time.perf_counter()
    expected = {2: 1, 4: 3, 5: 4, 10: 7, 20: 10}
    problems = []
    for b, want in expected.items():
        got = base_report(b, method="enumeration").max_distance
        if got != want:
            problems.append(f"b={b}: enumerated {got}, expected {want}")
    _finish("02", "enumerated max distances for bases 2,4,5,10,20", 5.0, t0, problems)


def test_criterion_03_odd_factor_bases_max_distance():
    t0 = time.perf_counter()
    problems = []
    for b in (15, 30, 35, 45, 55, 60, 70, 90):
        n = classify_base(b).n
        via_pairs = base_report(b).max_distance
        if via_pairs != n + 2:
            problems.append(f"b={b}: pair graph gives {via_pairs}, expected {n + 2}")
        if b <= 60:
            via_enum = base_report(b, method="enumeration").max_distance
            if via_enum != via_pairs:
                problems.append(f"b={b}: enumeration gives {via_enum}")
    _finish("03", "max distance n+2 for odd-factor bases, enum-checked to 60", 120.0, t0, problems)


def test_criterion_04_doubling_chain_max_distance():
    t0 = time.perf_counter()
    problems = []
    for b, want in ((40, 21), (80, 22), (160, 20), (320, 23)):
        got = base_report(b).max_distance
        if got != want:
            problems.append(f"b={b}: {got}, expected {want}")
    _finish("04", "pair-graph max distances for bases 40,80,160,320", 60.0, t0, problems)


def test_criterion_05_convergent_counts_closed_form():
    t0 = time.perf_counter()
    problems = []
    for b in (15, 30, 35, 45, 60, 70, 90, 120):
        cls = classify_base(b)
        rep = base_report(b)
        want_count = 40 * 4**cls.n * cls.m**2 * (1 + 5 * 4**cls.n)
        if rep.convergent_count != want_count:
            problems.append(f"b={b}: count {rep.convergent_count}, expected {want_count}")
        want_fraction = Fraction(8, 5 * b * b) + Fraction(8, 25 * cls.m**2)
        if rep.convergent_fraction != want_fraction:
            problems.append(f"b={b}: fraction {rep.convergent_fraction}")
    if base_report(15).convergent_count != 2160:
        problems.append("b=15 count is not 2160")
    _finish("05", "convergent counts match 40*4^n*m^2*(1+5*4^n)", 120.0, t0, problems)


def test_criterion_06_full_convergence_sizes():
    t0 = time.perf_counter()
    problems = []
    if base_report(10).convergent_count != 9990:
        problems.append("b=10 count is not 9990")
    rep40 = base_report(40)
    if rep40.convergent_count != 40**4 - 40:
        problems.append(f"b=40 count {rep40.convergent_count}")

    # spot-validation: every sampled non-repdigit orbit reaches the fixed
    # numeral within the measured worst case
    b = 40
    (fixed,) = fixed_numerals(b)
    repunit = join_digits((1, 1, 1, 1), b)
    cap = rep40.max_distance
    rng = random.Random(40_404)
    for _ in range(100_000):
        x = rng.randrange(b**4)
        is_repdigit = x % repunit == 0
        v = x
        reached = v == fixed
        for _ in range(cap):
            if reached:
                break
            v = step_value(v, b)
            reached = v == fixed
        if reached == is_repdigit:
            problems.append(f"sampled {x}: repdigit={is_repdigit}, reached={reached}")
            break
    _finish("06", "full-convergence sizes for bases 10 and 40, orbit-sampled", 30.0, t0, problems)


def test_criterion_07_commutation():
    t0 = time.perf_counter()
    problems = []
    # full coverage via the enumerated tables (pair side built from step_pair)
    for b in range(2, 41):
        step_codes = np.full(b * b, -1, dtype=np.int32)
        for d, dp in canonical_pairs(b):
            sd, sdp = step_pair((d, dp), b)
            step_codes[d * b + dp] = sd * b + sdp
        codes = pair_code_table(b)
        images = full_step_table(b)
        bad = int(np.count_nonzero(step_codes[codes] != codes[images]))
        if bad:
            problems.append(f"b={b}: {bad} violations")
    # independent pure-python route: full to base 8, sampled beyond
    from oracles import oracle_pair, oracle_step

    for b in range(2, 41):
        if b <= 8:
            sample = range(b**4)
        else:
            rng = random.Random(7919 * b)
            sample = (rng.randrange(b**4) for _ in range(2000))
        for x in sample:
            if oracle_pair(oracle_step(x, b), b) != step_pair(oracle_pair(x, b), b):
                problems.append(f"pure-python violation at b={b}, x={x}")
                break
    _finish("07", "pair step commutes with the integer step, bases 2..40", 120.0, t0, problems)


def test_criterion_08_predecessor_tables():
    t0 = time.perf_counter()
    problems = []
    for b in range(5, 61):
        preimages = oracle_preimages(b)
        for p in canonical_pairs(b):
            if predecessors_of(p, b) != preimages.get(p, set()):
                problems.append(f"b={b} {p}: table != scan")
                break
        if b % 4 == 0:
            # the condensed rules' code image: entry q names the row listing q
            pairs, n = list(canonical_pairs(b)), b * (b + 1) // 2
            image = array("I", [n]) * n
            listed = {}
            if condensed_image(b, image) == n and max(image) < n:
                for q, r in enumerate(image):
                    listed.setdefault(pairs[r], set()).add(pairs[q])
            if listed != preimages:
                problems.append(f"b={b}: condensed rows != scan")
    _finish("08", "predecessor tables invert the step for bases 5..60", 60.0, t0, problems)


def test_criterion_09_counting():
    t0 = time.perf_counter()
    problems = []
    for b in range(2, 61):
        total = 0
        for p in canonical_pairs(b):
            n = pair_count(p, b)
            total += n
            if classify_pair(p, b) is PairType.A and n != 24 * (b - p[0]) * (p[0] - p[1]):
                problems.append(f"b={b} {p}: closed form mismatch")
        if total != b**4:
            problems.append(f"b={b}: counts sum to {total}, expected {b**4}")
    _finish("09", "pair counts conserve b^4 and match the spread formula", 30.0, t0, problems)


def test_criterion_10_landing_bounds():
    t0 = time.perf_counter()
    problems = []
    for n in range(2, 8):
        b = 5 * 2**n
        worst = {}
        for p in canonical_pairs(b):
            steps, cell = grid_landing(p, b)
            bound = landing_bound(*cell, n)
            if steps > bound:
                problems.append(f"n={n} {p}: landing {steps} > bound {bound}")
            worst[cell] = max(worst.get(cell, -1), steps)
        if n >= 5:
            for cell, steps in sorted(worst.items()):
                if steps != landing_bound(*cell, n):
                    problems.append(f"n={n} cell {cell}: bound unattained ({steps})")
            for start, steps, cell in landing_witnesses(n):
                landing = grid_landing(start, b)
                if landing != (steps, cell):
                    problems.append(f"n={n} witness {start}: measured {landing}")
    _finish("10", "grid landing bounds hold (n=2..7) and are attained (n=5..7)", 120.0, t0, problems)


def test_criterion_11_arrival_table():
    t0 = time.perf_counter()
    problems = []
    # each row is the orbit's first return to the grid: the least k >= 1 at
    # which the pair is g*(cell)
    for n in range(2, 10):
        b = 5 * 2**n
        g = 2**n
        for p in range(5):
            for q in range(p + 1):
                cur, k = step_pair((p * g, q * g), b), 1
                while cur[0] % g or cur[1] % g:
                    cur, k = step_pair(cur, b), k + 1
                got, want = (k, (cur[0] // g, cur[1] // g)), grid_arrival(p, q, n)
                if got != want:
                    problems.append(f"n={n} cell ({p},{q}): first return {got}, table {want}")
    _finish("11", "arrival table is the first return to the grid for n=2..9", 1.0, t0, problems)


def test_criterion_12_total_step_table():
    t0 = time.perf_counter()
    problems = []
    for n in range(5, 9):
        b = 5 * 2**n
        if max_total_steps(n) != predict_max_distance(b):
            problems.append(f"n={n}: column max {max_total_steps(n)}")
        # the harness's own check, shifted carriers included
        check = _check_cycle_rows(b, n, _step_table(b))
        if not check.passed:
            problems.append(f"n={n}: {check.detail}")
        else:
            print(f"      n={n}: {check.detail}")
    _finish("12", "total-step table maxima and cycle rows (n=5..8)", 300.0, t0, problems)


def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    problems = []
    paths = [tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"]
    for path in paths:
        code = main(
            ["sweep", "--bases", "2..100", "--metrics", "mb,cb", "--format", "csv",
             "--out", str(path)]
        )
        if code != 0:
            problems.append(f"sweep exited {code}")
    if paths[0].read_bytes() != paths[1].read_bytes():
        problems.append("two identical sweeps differ")
    if b"\r" in paths[0].read_bytes():
        problems.append("output is not LF-only")
    _finish("13", "repeated sweep 2..100 is byte-identical", 60.0, t0, problems)
