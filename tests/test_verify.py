import sys

import pytest

import kaprekar4.tables as tables
import kaprekar4.verify as verify_mod
from kaprekar4.digits import step_value
from kaprekar4.dynamics import pair_distance_map
from kaprekar4.pairs import (
    _code,
    _pair_at,
    _step_table,
    condensed_predecessors_of,
    fixed_pair,
    pair_count,
    predecessors_of,
    step_pair,
)
from kaprekar4.predictions import classify_base, grid_landing
from kaprekar4.tables import cell_step_bound, cycle_cells
from kaprekar4.verify import MATCH, MISMATCH, NOT_PREDICTED, Check, verify_base
from oracles import canonical_pairs, oracle_pair, oracle_value


def test_formulas_base_10():
    rep = verify_base(10)
    assert rep.max_distance_verdict == MATCH
    assert rep.fraction_verdict == MATCH
    assert rep.predicted_max_distance == rep.measured_max_distance == 7
    assert rep.all_match
    assert rep.checks == []


def test_formulas_base_45():
    rep = verify_base(45)
    assert rep.predicted_max_distance == 2
    assert rep.max_distance_verdict == MATCH


def test_formulas_base_without_fixed_point():
    rep = verify_base(7)
    assert rep.max_distance_verdict == NOT_PREDICTED
    assert rep.fraction_verdict == NOT_PREDICTED
    assert rep.measured_max_distance is None
    assert rep.all_match


def test_formulas_base_20_fraction_not_predicted():
    rep = verify_base(20)
    assert rep.max_distance_verdict == MATCH
    assert rep.fraction_verdict == NOT_PREDICTED
    assert rep.all_match


def test_depth_validation():
    with pytest.raises(ValueError):
        verify_base(10, depth="shallow")


@pytest.mark.parametrize("b", [2, 4, 7, 10, 15, 20, 30, 40, 45, 60, 80, 120, 160])
def test_deep_bases_all_match(b):
    rep = verify_base(b, depth="deep")
    failing = [c for c in rep.checks if not c.passed]
    assert rep.all_match, failing
    assert rep.checks  # deep always has something to say


def test_deep_check_labels():
    labels = {c.label for c in verify_base(15, depth="deep").checks}
    assert {
        "predecessor-inversion",
        "fixed-pair-unique",
        "fixed-numeral-landing",
        "basin-pairs-type-a",
        "basin-coordinates-multiples",
        "basin-pair-count",
        "basin-four-families",
    } <= labels
    labels160 = {c.label for c in verify_base(160, depth="deep").checks}
    assert {
        "landing-bounds",
        "grid-arrival-table",
        "iterates-from-(1,1)",
        "iterates-from-(1,0)",
        "landing-witnesses",
        "landing-attainment",
        "cell-bound-column-max",
        "cycle-rows",
    } <= labels160


def test_all_match_detects_failures():
    rep = verify_base(10, depth="deep")
    assert rep.all_match
    rep.checks.append(Check("synthetic", False, "planted failure"))
    assert not rep.all_match
    rep2 = verify_base(10)
    rep2.max_distance_verdict = MISMATCH
    assert not rep2.all_match


# ---------------------------------------------------------------------------
# the distance-map check inside predecessor-inversion
# ---------------------------------------------------------------------------


def _break_distance_map(monkeypatch, corrupt):
    real = verify_mod.pair_distance_map

    def broken(b):
        pdm = real(b)
        corrupt(pdm.steps)
        return pdm

    monkeypatch.setattr(verify_mod, "pair_distance_map", broken)


def _off_by_one(steps):
    p = max(steps, key=steps.get)
    steps[p] += 1


def _drop_one(steps):
    del steps[max(steps, key=steps.get)]


def _add_one(steps):
    # the orbit of (2, 2) never reaches the fixed pair of base 20
    assert (2, 2) not in steps
    steps[(2, 2)] = 1


@pytest.mark.parametrize("corrupt", [_off_by_one, _drop_one, _add_one])
def test_wrong_distance_map_fails_predecessor_inversion(monkeypatch, capsys, corrupt):
    from kaprekar4.cli import main

    _break_distance_map(monkeypatch, corrupt)
    rep = verify_base(20, "deep")
    (check,) = [c for c in rep.checks if c.label == "predecessor-inversion"]
    assert not check.passed
    assert check.detail.startswith("distance map wrong at ")
    assert not rep.all_match
    assert main(["verify", "--bases", "20..20", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


def _check(rep, label):
    (check,) = [c for c in rep.checks if c.label == label]
    return check


@pytest.mark.parametrize(
    "planted, failing, detail",
    [
        ((4, 4), "basin-pairs-type-a", "non-(a) pairs [(4, 4)]"),
        ((7, 2), "basin-coordinates-multiples", "coords not multiples of 3: [(7, 2)]"),
    ],
)
def test_planted_pair_fails_basin_check(monkeypatch, planted, failing, detail):
    # b = 60 has m = 3: every pair in the fixed pair's closure is of type (a)
    # and has both coordinates divisible by 3
    _break_distance_map(monkeypatch, lambda steps: steps.setdefault(planted, 1))
    rep = verify_base(60, "deep")
    check = _check(rep, failing)
    assert (check.passed, check.detail) == (False, detail)
    if planted == (7, 2):
        assert _check(rep, "basin-pairs-type-a").passed


@pytest.mark.parametrize(
    "shift, label, detail",
    [
        (-1, "landing-bounds", "bound exceeded from [(0, 0), (4, 1), (5, 1), (5, 2)]"),
        (
            1,
            "landing-attainment",
            "bound not attained for cells [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),"
            " (3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3), (4, 4)]",
        ),
    ],
)
def test_shifted_landing_bound_fails(monkeypatch, shift, label, detail):
    # a bound one too low is exceeded (the first four offenders are listed);
    # one too high is attained by no cell, and all fifteen are listed
    real = verify_mod.landing_bound
    monkeypatch.setattr(verify_mod, "landing_bound", lambda p, q, n: real(p, q, n) + shift)
    check = _check(verify_base(160, "deep"), label)
    assert (check.passed, check.detail) == (False, detail)


# ---------------------------------------------------------------------------
# a transcription slip in a literal table fails the check that reads it
# ---------------------------------------------------------------------------


def _with_column(row, col, entry):
    return row[:col] + (entry,) + row[col + 1 :]


def _slip_arrival_grid(monkeypatch):
    # n = 5 reads column 1, where g*(1, 0) arrives at g*(4, 3)
    row = tables._ARRIVAL_GRID[(1, 0)]
    monkeypatch.setitem(tables._ARRIVAL_GRID, (1, 0), _with_column(row, 1, (2, 1)))


def _slip_witness_row(monkeypatch):
    # (9, 1) lands after 2n steps, not 3n
    rows = tuple(
        (start, 3 if start == (9, 1) else mult, cells)
        for start, mult, cells in tables._FIXED_WITNESS_ROWS
    )
    monkeypatch.setattr(tables, "_FIXED_WITNESS_ROWS", rows)


def _slip_cell_bound_row(monkeypatch):
    # a repdigit reaches the all-zero numeral in one step, not two
    row = tables._CELL_BOUND_ROWS[(0, 0)]
    monkeypatch.setitem(tables._CELL_BOUND_ROWS, (0, 0), _with_column(row, 1, (0, 2, True)))


@pytest.mark.parametrize(
    "slip, label, detail",
    [
        (
            _slip_arrival_grid,
            "grid-arrival-table",
            "cell (1,0) reaches (128, 96), table says (2, 1)",
        ),
        (
            _slip_witness_row,
            "landing-witnesses",
            "start (9, 1): measured (10, (4, 2)), stated (15, (4, 2))",
        ),
        (
            _slip_cell_bound_row,
            "cycle-rows",
            "cell (0, 0): start 4121761 gives ZeroSink(), tabulated 2",
        ),
    ],
)
def test_table_slip_fails_its_check(monkeypatch, capsys, slip, label, detail):
    from kaprekar4.cli import main

    slip(monkeypatch)
    rep = verify_base(160, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [(label, detail)]
    if label == "cycle-rows":
        check = verify_mod._check_cycle_rows(160, 5, _step_table(160))
        assert (check.passed, check.detail) == (False, detail)
    assert main(["verify", "--bases", "160..160", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "at, lands, detail",
    [
        # the shifted carrier (13, 6, 2, 1) of the fixed pair (12, 4)
        (106441, False, "106441 misses the fixed numeral"),
        # (8, 4, 0, 0), on the first-generation predecessor pair (8, 4)
        (65600, True, "65600 (pair (8, 4)) short-circuits"),
    ],
)
def test_wrong_step_fails_fixed_numeral_landing(monkeypatch, capsys, at, lands, detail):
    from kaprekar4.cli import main
    from kaprekar4.dynamics import fixed_numeral_value

    real = verify_mod.step_value
    v_fixed = fixed_numeral_value(20)

    def wrong(x, b):
        if x != at:
            return real(x, b)
        return v_fixed if lands else v_fixed + 1

    monkeypatch.setattr(verify_mod, "step_value", wrong)
    rep = verify_base(20, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("fixed-numeral-landing", detail)
    ]
    assert main(["verify", "--bases", "20..20", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("b", [15, 20, 60, 160])
def test_one_distance_map_per_deep_verify(monkeypatch, b):
    import kaprekar4.dynamics as dynamics_mod

    calls = []
    real = dynamics_mod.pair_distance_map

    def counting(base):
        calls.append(base)
        return real(base)

    monkeypatch.setattr(dynamics_mod, "pair_distance_map", counting)
    monkeypatch.setattr(verify_mod, "pair_distance_map", counting)
    assert verify_base(b, "deep").all_match
    assert calls == [b]


# ---------------------------------------------------------------------------
# the shared step table and the checks that read it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", [7, 20, 320])
def test_step_table_follows_canonical_order(b):
    table = _step_table(b)
    pairs = list(canonical_pairs(b))
    assert len(table) == len(pairs)
    for c, p in enumerate(pairs):
        assert _code(p) == c
        assert _pair_at(c) == p
        assert _pair_at(table[c]) == step_pair(p, b)


@pytest.mark.parametrize("b", [15, 20, 40, 60, 80, 160, 320])
def test_deep_verify_steps_each_pair_once(monkeypatch, b):
    # the step table steps every canonical pair once and the BFS guard every
    # reached pair once; every other pair orbit reads the table
    reached = len(pair_distance_map(b).steps)
    calls = _count_calls(monkeypatch, "step_pair", step_pair)
    assert verify_base(b, "deep").all_match
    assert len(calls) == reached + b * (b + 1) // 2


def _count_calls(monkeypatch, name, real, when=lambda: True):
    """Route every kaprekar4 module's ``name`` through a counter; a call is
    counted while ``when()`` is true."""
    calls = []

    def counting(*args):
        if when():
            calls.append(args)
        return real(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kaprekar4") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("b", [20, 160, 320])
def test_deep_verify_call_counts(monkeypatch, b):
    # one general rule row per reached pair (the BFS), per canonical pair
    # (predecessor-inversion) and for the fixed pair (fixed-numeral-landing);
    # one condensed row per canonical pair when 4 | b; one count per reached
    # pair; and inside fixed-numeral-landing one integer step per numeral on
    # the fixed pair and on its first-generation predecessors, plus the one
    # that finds the fixed numeral
    reached = len(pair_distance_map(b).steps)
    pairs = b * (b + 1) // 2
    target = fixed_pair(b)
    first_gen = [p for p in canonical_pairs(b) if p != target and step_pair(p, b) == target]
    landing_steps = 1 + sum((b - d) * (d - dp + 1) for d, dp in [target, *first_gen])

    inside = []
    real_landing = verify_mod._check_fixed_numeral_landing

    def landing(base):
        inside.append(base)
        try:
            return real_landing(base)
        finally:
            inside.pop()

    monkeypatch.setattr(verify_mod, "_check_fixed_numeral_landing", landing)
    rows = _count_calls(monkeypatch, "predecessors_of", predecessors_of)
    condensed = _count_calls(monkeypatch, "condensed_predecessors_of", condensed_predecessors_of)
    counts = _count_calls(monkeypatch, "pair_count", pair_count)
    steps = _count_calls(monkeypatch, "step_value", step_value, when=lambda: bool(inside))
    assert verify_base(b, "deep").all_match
    assert len(rows) == reached + pairs + 1
    assert len(condensed) == (pairs if b % 4 == 0 else 0)
    assert len(counts) == reached
    assert len(steps) == landing_steps
    if b == 320:
        assert (len(rows), len(counts), len(steps)) == (89962, 38601, 41409)


def _descending_numerals_by_pair(b, spreads):
    """Every numeral with digits a3 >= a2 >= a1 >= a0 and a3 - a0 in
    ``spreads``, grouped by its oracle pair."""
    out = {}
    for d in spreads:
        for a0 in range(b - d):
            for a2 in range(a0, a0 + d + 1):
                for a1 in range(a0, a2 + 1):
                    x = oracle_value((a0 + d, a2, a1, a0), b)
                    out.setdefault(oracle_pair(x, b), set()).add(x)
    return out


@pytest.mark.parametrize(
    "b, spreads, pairs",
    [
        (20, range(20), list(canonical_pairs(20))),
        # the edge pairs (0,0), (d,d), (d,0) and (b-1,dp)
        (320, (0, 1, 319), [(0, 0), (1, 1), (1, 0), (319, 319), (319, 0), (319, 64), (319, 318)]),
    ],
)
def test_pair_numerals_match_a_digit_scan(b, spreads, pairs):
    by_pair = _descending_numerals_by_pair(b, spreads)
    for p in pairs:
        got = list(verify_mod._pair_numerals(p, b))
        assert all(x < y for x, y in zip(got, got[1:])), p
        assert set(got) == by_pair[p], p


def _on_cycle_by_seen_set(code, table):
    # the first code the orbit repeats is where it enters its loop, so that
    # code is ``code`` itself exactly when ``code`` lies on the loop
    seen = set()
    k = code
    while k not in seen:
        seen.add(k)
        k = table[k]
    return k == code


@pytest.mark.parametrize("b", [20, 80, 320])
def test_on_cycle_matches_a_seen_set_walk(b):
    table = _step_table(b)
    on_cycle = [c for c in range(len(table)) if verify_mod._on_cycle(c, table)]
    assert on_cycle == [c for c in range(len(table)) if _on_cycle_by_seen_set(c, table)]
    assert _code((0, 0)) in on_cycle and _code((1, 0)) not in on_cycle


def _drop_one_candidate(row, at, b):
    return row - {min(row)}


def _swap_in_a_stranger(row, at, b):
    # same row size, so only the image half of the check can see it
    stranger = next(p for p in canonical_pairs(b) if step_pair(p, b) != at)
    return row - {min(row)} | {stranger}


def _swap_in_a_non_canonical(row, at, b):
    # its code lies past the end of the step table
    return row - {min(row)} | {(b, 0)}


def _corrupt_one_row(monkeypatch, name, at, mutate):
    real = getattr(verify_mod, name)

    def corrupted(pair, b):
        out = real(pair, b)
        return mutate(out, at, b) if pair == at else out

    monkeypatch.setattr(verify_mod, name, corrupted)


@pytest.mark.parametrize(
    "mutate", [_drop_one_candidate, _swap_in_a_stranger, _swap_in_a_non_canonical]
)
@pytest.mark.parametrize(
    "name, b, start, detail",
    [
        ("predecessors_of", 20, (7, 3), "table wrong at "),
        ("condensed_predecessors_of", 40, (13, 6), "condensed rules wrong at "),
    ],
)
def test_wrong_preimage_fails_predecessor_inversion(
    monkeypatch, capsys, name, b, start, detail, mutate
):
    from kaprekar4.cli import main

    at = step_pair(start, b)  # its preimage holds at least ``start``
    _corrupt_one_row(monkeypatch, name, at, mutate)
    rep = verify_base(b, "deep")
    (check,) = [c for c in rep.checks if c.label == "predecessor-inversion"]
    assert not check.passed
    assert check.detail == f"{detail}{at}"
    assert main(["verify", "--bases", f"{b}..{b}", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("b", [61, 62, 63, 64, 66, 127, 128])
def test_rule_rows_at_bases_verify_skips(b):
    # verify runs predecessor-inversion only for b in {2, 4} and 5 | b; these
    # bases cover both parities, every b mod 4, and the condensed rules
    assert verify_mod._check_predecessor_inversion(b, _step_table(b), None).passed


@pytest.mark.parametrize("b", [20, 40, 80, 160, 320])
def test_landing_memo_equals_grid_landing(b):
    steps, cells = verify_mod._grid_landings(b, classify_base(b).n, _step_table(b))
    for c, p in enumerate(canonical_pairs(b)):
        assert (steps[c], _pair_at(cells[c])) == grid_landing(p, b), p


def test_landing_memo_keeps_the_budget():
    b, n = 20, 2
    budget = 2 * n + 8
    table = _step_table(b)
    table[_code((1, 0))] = _code((1, 0))  # off-grid self-loop
    with pytest.raises(RuntimeError, match=f"pair \\(1, 0\\) found no grid pair within {budget}"):
        verify_mod._grid_landings(b, n, table)

    # a chain of off-grid pairs into (0, 0), ``length`` steps at its longest
    g = b // 5
    off_grid = [c for c, (d, dp) in enumerate(canonical_pairs(b)) if d % g or dp % g]
    for length in (budget, budget + 1):
        chained = _step_table(b)
        for k, c in enumerate(off_grid):
            chained[c] = off_grid[k - 1] if 0 < k < length else 0
        if length == budget:
            steps, _ = verify_mod._grid_landings(b, n, chained)
            assert max(steps) == budget
        else:
            with pytest.raises(RuntimeError, match="found no grid pair"):
                verify_mod._grid_landings(b, n, chained)


@pytest.mark.parametrize("n", range(2, 8))
def test_every_cell_bound_holds_cell_by_cell(n):
    # each pair is judged by the first grid cell its orbit lands on
    b = 5 * 2**n
    pdm = pair_distance_map(b)
    _, cells = verify_mod._grid_landings(b, n, _step_table(b))
    cycles = set(cycle_cells(n))
    worst: dict = {}
    for c, p in enumerate(canonical_pairs(b)):
        cell = _pair_at(cells[c])
        if cell in cycles:
            assert p not in pdm.steps, (p, cell)
            continue
        total = pdm.steps[p] + 1  # the integer distance of a carrier of p
        assert total <= cell_step_bound(*cell, n), (p, cell, total)
        worst[cell] = max(worst.get(cell, 0), total)
    if n >= 4:
        non_cycle = {_pair_at(k) for k in range(15)} - cycles
        assert worst == {cell: cell_step_bound(*cell, n) for cell in non_cycle}
