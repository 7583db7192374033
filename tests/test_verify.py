import sys
from array import array
from fractions import Fraction

import pytest

import kaprekar4.tables as tables
import kaprekar4.verify as verify_mod
from kaprekar4.digits import _step_value
from kaprekar4.dynamics import PairDistanceMap, pair_distance_map
from kaprekar4.pairs import (
    _code,
    _pair_at,
    _step_table,
    condensed_image,
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


# 640 (n = 7) is the one base here whose n >= 5 checks read the n = 3 (mod 4)
# column
@pytest.mark.parametrize("b", [2, 4, 7, 10, 15, 20, 30, 40, 45, 60, 80, 120, 160, 640])
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
    # the orbit of (2, 2) never reaches the fixed pair of base 20; in base 4
    # it does, and the orbit of (2, 1) never reaches (3, 1)
    p = (2, 2) if (2, 2) not in steps else (2, 1)
    assert p not in steps
    steps[p] = 1


@pytest.mark.parametrize("corrupt", [_off_by_one, _drop_one, _add_one])
def test_wrong_distance_map_fails_predecessor_inversion(monkeypatch, capsys, corrupt):
    from kaprekar4.cli import main

    _break_distance_map(monkeypatch, corrupt)
    for b in (20, 4):
        rep = verify_base(b, "deep")
        (check,) = [c for c in rep.checks if c.label == "predecessor-inversion"]
        assert not check.passed, b
        assert check.detail.startswith("distance map wrong at "), b
        assert not rep.all_match, b
        assert main(["verify", "--bases", f"{b}..{b}", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("level, raises", [(253, False), (254, True), (255, True), (300, True)])
def test_map_level_near_the_sentinel(monkeypatch, capsys, level, raises):
    # predecessor-inversion holds distances in bytes with 255 for "not in
    # the map", so the deepest level must leave the next one below 255: a
    # level of 254 or more raises (exit 4), and 253 is still judged as data
    from kaprekar4.cli import main

    _break_distance_map(monkeypatch, lambda steps: steps.__setitem__((7, 3), level))
    argv = ["verify", "--bases", "20..20", "--depth", "deep", "--jobs", "1"]
    if raises:
        with pytest.raises(RuntimeError) as exc:
            verify_base(20, "deep")
        assert str(exc.value) == (
            f"distance {level} leaves no byte below the 255 sentinel in base 20"
        )
        assert main(argv) == 4
    else:
        rep = verify_base(20, "deep")
        assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
            ("predecessor-inversion", "distance map wrong at (7, 3)")
        ]
        assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("b, fixed", [(30, (18, 6)), (40, (24, 8))])
def test_crowded_step_table_fails_predecessor_inversion(monkeypatch, capsys, b, fixed):
    # a table that sends every pair onto the fixed pair overflows that
    # code's byte count; no rule row has 256 members, so the check fails
    # there as data (exit 1) and does not crash
    from kaprekar4.cli import main

    fixed_code = _code(fixed)
    monkeypatch.setattr(
        verify_mod, "_step_table", lambda b: array("l", [fixed_code]) * (b * (b + 1) // 2)
    )
    rep = verify_base(b, "deep")
    assert _check(rep, "predecessor-inversion").detail == f"table wrong at {fixed}"
    assert not rep.all_match
    assert main(["verify", "--bases", f"{b}..{b}", "--depth", "deep", "--jobs", "1"]) == 1
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


@pytest.mark.parametrize("b", [20, 40, 80, 160, 320])
def test_low_landing_bound_lists_the_scanned_offenders(monkeypatch, b):
    # the memo's per-cell maxima decide whether any pair exceeds its bound;
    # the offenders listed are then the first four of a scan of every pair
    n = classify_base(b).n
    real = verify_mod.landing_bound
    monkeypatch.setattr(verify_mod, "landing_bound", lambda p, q, n: real(p, q, n) - 1)
    low = [real(*_pair_at(k), n) - 1 for k in range(15)]
    steps, cells, _ = verify_mod._grid_landings(b, n, _step_table(b))
    over = [p for p, s, k in zip(canonical_pairs(b), steps, cells) if s > low[k]]
    assert len(over) >= 4
    check = _check(verify_base(b, "deep"), "landing-bounds")
    assert (check.passed, check.detail) == (False, f"bound exceeded from {over[:4]}")


# ---------------------------------------------------------------------------
# a transcription slip in a literal table fails the check that reads it
# ---------------------------------------------------------------------------


def _with_column(row, col, entry):
    return row[:col] + (entry,) + row[col + 1 :]


def _slip_arrival_grid(monkeypatch):
    # n = 5 reads column 1, where g*(1, 0) arrives at g*(4, 3)
    a, c, cells = tables._ARRIVAL_ROWS[(1, 0)]
    monkeypatch.setitem(tables._ARRIVAL_ROWS, (1, 0), (a, c, _with_column(cells, 1, (2, 1))))


def _slip_arrival_steps(monkeypatch):
    # g*(4, 2) steps onto the fixed pair g*(3, 1) and stays there, so only
    # the first return to the grid tells one step from two
    monkeypatch.setitem(tables._ARRIVAL_ROWS, (4, 2), (0, 2, ((3, 1),) * 4))


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
            _slip_arrival_steps,
            "grid-arrival-table",
            "cell (4,2) first returns at step 1, table says 2",
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
    from kaprekar4.dynamics import fixed_numerals

    real = verify_mod._step_value
    (v_fixed,) = fixed_numerals(20)

    def wrong(x, b):
        if x != at:
            return real(x, b)
        return v_fixed if lands else v_fixed + 1

    monkeypatch.setattr(verify_mod, "_step_value", wrong)
    rep = verify_base(20, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("fixed-numeral-landing", detail)
    ]
    assert main(["verify", "--bases", "20..20", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


def test_missing_fixed_pair_fails_fixed_numerals_exist(monkeypatch):
    # a walk from (1, 0) alone misses base 2's fixed numeral 1001 and the
    # six numerals on its pair (1, 1), yet its map is right for (1, 0)
    import kaprekar4.dynamics as dynamics_mod

    real = dynamics_mod._fixed_pairs
    monkeypatch.setattr(dynamics_mod, "_fixed_pairs", lambda b: real(b)[:1])
    rep = verify_base(2, "deep")
    assert rep.measured_fraction == Fraction(1, 2)
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("fixed-numerals-exist", "fixed numerals [7]")
    ]
    assert not rep.all_match


@pytest.mark.parametrize(
    "b, failing",
    [
        (7, [("no-fixed-numeral", "self-fixed pairs {(1, 0), (0, 0)}")]),
        (
            10,
            [
                # (1, 0) is in base 10's map, so the walk took its row; the
                # slip shows as a distance that is not one more than that of
                # its new image, itself
                ("predecessor-inversion", "distance map wrong at (1, 0)"),
                ("fixed-pair-unique", "self-fixed pairs {(1, 0), (6, 2), (0, 0)}"),
            ],
        ),
        (
            4,
            [
                ("predecessor-inversion", "table wrong at (1, 0)"),
                ("fixed-numerals-exist", "fixed numerals [201]"),
            ],
        ),
    ],
)
def test_extra_self_fixed_pair_fails_each_class(monkeypatch, b, failing):
    # a step table that makes (1, 0) its own image, against a walk that
    # starts only from the pairs the step rules fix
    def slipped(base):
        table = _step_table(base)
        table[_code((1, 0))] = _code((1, 0))
        return table

    monkeypatch.setattr(verify_mod, "_step_table", slipped)
    rep = verify_base(b, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == failing
    assert not rep.all_match


@pytest.mark.parametrize("b", [2, 7, 15, 20, 60, 160])
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
    # the BFS guard steps every reached pair once; the step table is built
    # row by row without step_pair, and every pair orbit reads the table
    reached = len(pair_distance_map(b).steps)
    calls = _count_calls(monkeypatch, "step_pair", step_pair)
    assert verify_base(b, "deep").all_match
    assert len(calls) == reached


def _count_calls(monkeypatch, name, real, when=lambda: True):
    """Route every kaprekar4 module's ``name`` through a counter; a call is
    counted while ``when()`` is true."""
    calls = []

    def counting(*args):
        if when():
            calls.append(args)
        return real(*args)

    _patch_every_binding(monkeypatch, name, real, counting)
    return calls


def _patch_every_binding(monkeypatch, name, real, replacement):
    """Bind ``replacement`` wherever a kaprekar4 module binds ``real`` as ``name``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("kaprekar4") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, replacement)


@pytest.mark.parametrize("b", [10, 20, 160, 320])
def test_deep_verify_call_counts(monkeypatch, b):
    # one general rule row per reached pair (the BFS), per pair absent from
    # the map and for the fixed pair (predecessor-inversion), and for the
    # fixed pair again (fixed-numeral-landing): pairs + 2 in all; one
    # condensed image when 4 | b and none otherwise; one count per reached
    # pair; and inside fixed-numeral-landing one unchecked integer step per
    # numeral on the fixed pair and on its first-generation predecessors: the
    # fixed numeral it is handed comes from the report, not from stepping again
    pdm = pair_distance_map(b)
    reached = len(pdm.steps)
    pairs = b * (b + 1) // 2
    (target,) = pdm.fixed
    first_gen = [p for p in canonical_pairs(b) if p != target and step_pair(p, b) == target]
    landing_steps = sum((b - d) * (d - dp + 1) for d, dp in [target, *first_gen])

    inside = []
    real_landing = verify_mod._check_fixed_numeral_landing

    def landing(*args):
        inside.append(args)
        try:
            return real_landing(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(verify_mod, "_check_fixed_numeral_landing", landing)
    rows = _count_calls(monkeypatch, "predecessors_of", predecessors_of)
    images = _count_calls(monkeypatch, "condensed_image", condensed_image)
    counts = _count_calls(monkeypatch, "pair_count", pair_count)
    steps = _count_calls(monkeypatch, "_step_value", _step_value, when=lambda: bool(inside))
    assert verify_base(b, "deep").all_match
    assert len(rows) == pairs + 2
    assert [base for base, _ in images] == ([b] if b % 4 == 0 else [])
    assert len(counts) == reached
    assert len(steps) == landing_steps
    if images:
        # the image's distinct entries are the non-empty rows
        non_empty = sum(1 for p in canonical_pairs(b) if predecessors_of(p, b))
        assert len(set(images[0][1])) == non_empty
    if b == 320:
        assert (len(rows), len(counts), len(steps)) == (51362, 38601, 41408)
        assert len(set(images[0][1])) == 13041


@pytest.mark.parametrize("b", [20, 320])
def test_deep_verify_finds_the_fixed_pairs_once(monkeypatch, b):
    # the map's start set is found once; the report steps its carriers to
    # the fixed numeral, and the landing check reads both from there
    import kaprekar4.dynamics as dynamics_mod

    calls = _count_calls(monkeypatch, "_fixed_pairs", dynamics_mod._fixed_pairs)
    assert verify_base(b, "deep").all_match
    assert calls == [(b,)]


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


@pytest.mark.parametrize("pair", [(3, 5), (20, 0), (5, -1)])
def test_pair_numerals_reject_a_pair_that_is_not_canonical(pair):
    # the landing check steps these numerals unchecked, so every one must be
    # a numeral of the base
    with pytest.raises(ValueError) as exc:
        list(verify_mod._pair_numerals(pair, 20))
    assert str(exc.value) == f"{pair} is not canonical for base 20"


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


def _drop_itself(row, at, b):
    return row - {at}


def _corrupt_one_row(monkeypatch, name, at, mutate):
    """Corrupt the rule row of ``at`` at every kaprekar4 binding of ``name``,
    so the walk and the checks read the same rows; ``condensed_rows`` names
    the condensed rules, listed row by row."""
    if name == "condensed_rows":
        _list_condensed(
            monkeypatch,
            lambda rows, b: [(p, mutate(set(row), at, b) if p == at else row) for p, row in rows],
        )
        return
    real = getattr(verify_mod, name)

    def corrupted(pair, b):
        out = real(pair, b)
        return mutate(out, at, b) if pair == at else out

    _patch_every_binding(monkeypatch, name, real, corrupted)


@pytest.mark.parametrize(
    "mutate", [_drop_one_candidate, _swap_in_a_stranger, _swap_in_a_non_canonical]
)
@pytest.mark.parametrize(
    "name, b, start, detail",
    [
        # (12, 8) steps onto (5, 3), which base 20's map does not reach, so
        # the walk never takes its row
        ("predecessors_of", 20, (12, 8), "table wrong at "),
        ("condensed_rows", 40, (13, 6), "condensed rules wrong at "),
    ],
)
def test_wrong_preimage_fails_predecessor_inversion(
    monkeypatch, capsys, name, b, start, detail, mutate
):
    from kaprekar4.cli import main

    at = step_pair(start, b)  # its preimage holds at least ``start``
    assert name != "predecessors_of" or at not in pair_distance_map(b).steps
    _corrupt_one_row(monkeypatch, name, at, mutate)
    rep = verify_base(b, "deep")
    (check,) = [c for c in rep.checks if c.label == "predecessor-inversion"]
    assert not check.passed
    assert check.detail == f"{detail}{at}"
    assert main(["verify", "--bases", f"{b}..{b}", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


def _list_condensed(monkeypatch, edit):
    """The condensed rules as a listing of their non-empty rows in code
    order, each row's pair with the pairs it lists, edited by
    ``edit(listing, b)`` and then written into the code image row by row."""
    real = verify_mod.condensed_image

    def listed(b, image):
        rows = verify_mod._Rows()
        real(b, rows)
        listing = [(_pair_at(r), [_pair_at(q) for q in rows[r]]) for r in sorted(rows)]
        written = 0
        for p, row in edit(listing, b):
            for q in row:
                image[_code(q) : _code(q) + 1] = array("I", [_code(p)])
                written += 1
        return written

    monkeypatch.setattr(verify_mod, "condensed_image", listed)


def _skip(rows, at):
    return [(p, row) for p, row in rows if p != at]


def _swap_with_the_next(rows, at):
    # the row of ``at`` and the row listed after it list each other's pairs
    k = next(k for k, (p, _) in enumerate(rows) if p == at)
    (p, row), (q, next_row) = rows[k], rows[k + 1]
    return [*rows[:k], (p, next_row), (q, row), *rows[k + 2 :]]


def _repeat(rows, at):
    k = next(k for k, (p, _) in enumerate(rows) if p == at)
    return [*rows[: k + 1], rows[k], *rows[k + 1 :]]


@pytest.mark.parametrize(
    "edit, at",
    [
        # (20, 19) is listed right after (20, 18), (39, 37) is the last row
        # and (0, 0) the first
        (_skip, (20, 19)),
        (_skip, (39, 37)),
        (_skip, (0, 0)),
        # (20, 18) listing the pairs of (20, 19) fails first at (20, 18);
        # listed twice, it writes its codes twice into an image that still
        # equals the table, so only the write count sees it
        (_swap_with_the_next, (20, 18)),
        (_repeat, (20, 18)),
    ],
)
def test_misplaced_condensed_row_fails_predecessor_inversion(monkeypatch, capsys, edit, at):
    # a row left out, listing its neighbour's pairs or listed twice fails at
    # that row's pair
    from kaprekar4.cli import main

    _list_condensed(monkeypatch, lambda rows, b: edit(rows, at))
    rep = verify_base(40, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("predecessor-inversion", f"condensed rules wrong at {at}")
    ]
    assert main(["verify", "--bases", "40..40", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


def _rewire(monkeypatch, at, rows):
    """The condensed rules with pair ``at`` listed by the rows of ``rows``,
    written in that order, instead of by its own row."""
    real = verify_mod.condensed_image

    class Entries(dict):
        def __setitem__(self, key, rows):
            self.update(enumerate(rows, key.start))

    def rewired(b, image):
        entries = Entries()
        real(b, entries)
        del entries[_code(at)]
        writes = [*entries.items(), *((_code(at), _code(p)) for p in rows)]
        for q, r in writes:
            image[q : q + 1] = array("I", [r])
        return len(writes)

    monkeypatch.setattr(verify_mod, "condensed_image", rewired)


@pytest.mark.parametrize(
    "rows, at",
    [
        # one wrong entry: (22, 13) moves from the row of its image (14, 4)
        # to that of (20, 19), so both rows are wrong; (14, 4) comes first
        ([(20, 19)], (14, 4)),
        # a code never written: its image's row misses it
        ([], (14, 4)),
        # a code written twice: the row of (20, 19) lists (22, 13) before its
        # own row does, so the image still equals the table
        ([(20, 19), (14, 4)], (20, 19)),
    ],
    ids=["one-wrong-entry", "never-written", "written-twice"],
)
def test_wrong_condensed_image_fails_predecessor_inversion(monkeypatch, capsys, rows, at):
    from kaprekar4.cli import main

    assert step_pair((22, 13), 40) == (14, 4)
    _rewire(monkeypatch, (22, 13), rows)
    rep = verify_base(40, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("predecessor-inversion", f"condensed rules wrong at {at}")
    ]
    assert main(["verify", "--bases", "40..40", "--depth", "deep", "--jobs", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "mutate, detail",
    [
        # (7, 3), the dropped member, is left out of the map while its image
        # (14, 6) is in it
        (_drop_one_candidate, "distance map wrong at (7, 3)"),
        (_swap_in_a_stranger, "predecessor (0, 0) of (14, 6) misses it in base 20"),
        (_swap_in_a_non_canonical, "predecessor (20, 0) of (14, 6) misses it in base 20"),
    ],
)
def test_wrong_reached_row_fails_the_map_or_the_walk(monkeypatch, capsys, mutate, detail):
    # the walk takes the row of (14, 6) in base 20: its guard raises on a
    # member that misses the pair (exit 4), and a member it never sees
    # leaves a hole in the map that predecessor-inversion reports (exit 1)
    from kaprekar4.cli import main

    at = (14, 6)
    assert at in pair_distance_map(20).steps
    _corrupt_one_row(monkeypatch, "predecessors_of", at, mutate)
    argv = ["verify", "--bases", "20..20", "--depth", "deep", "--jobs", "1"]
    if mutate is _drop_one_candidate:
        rep = verify_base(20, "deep")
        assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
            ("predecessor-inversion", detail)
        ]
        assert main(argv) == 1
    else:
        with pytest.raises(RuntimeError) as exc:
            verify_base(20, "deep")
        assert str(exc.value) == detail
        assert main(argv) == 4
    capsys.readouterr()


@pytest.mark.parametrize("b, fixed", [(20, (12, 4)), (320, (192, 64))])
def test_fixed_row_without_itself_fails_predecessor_inversion(monkeypatch, b, fixed):
    # the walk seeds the fixed pair, so only the check's own derivation of
    # the fixed row can see that the row lost its self-loop
    assert pair_distance_map(b).fixed == (fixed,)
    _corrupt_one_row(monkeypatch, "predecessors_of", fixed, _drop_itself)
    rep = verify_base(b, "deep")
    assert [(c.label, c.detail) for c in rep.checks if not c.passed] == [
        ("predecessor-inversion", f"table wrong at {fixed}")
    ]


@pytest.mark.parametrize("b", [61, 62, 63, 64, 66, 127, 128])
def test_rule_rows_at_bases_verify_skips(b):
    # verify runs predecessor-inversion only for b in {2, 4} and 5 | b; these
    # bases cover both parities, every b mod 4, and the condensed rules.  A
    # base with no fixed pair reaches none, so its distance map is empty
    empty = pair_distance_map(b)
    assert empty == PairDistanceMap(b, (), {})
    assert verify_mod._check_predecessor_inversion(b, _step_table(b), empty).passed


@pytest.mark.parametrize("b", [20, 40, 80, 160, 320])
def test_landing_memo_equals_grid_landing(b):
    steps, cells, worst = verify_mod._grid_landings(b, classify_base(b).n, _step_table(b))
    most = [0] * 15
    for c, p in enumerate(canonical_pairs(b)):
        assert (steps[c], _pair_at(cells[c])) == grid_landing(p, b), p
        most[cells[c]] = max(most[cells[c]], steps[c])
    # each cell's most steps, kept once per path, equal a scan of every pair
    assert list(worst) == most


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
            steps, _, worst = verify_mod._grid_landings(b, n, chained)
            assert max(steps) == max(worst) == budget
        else:
            with pytest.raises(RuntimeError, match="found no grid pair"):
                verify_mod._grid_landings(b, n, chained)


@pytest.mark.parametrize("n", range(2, 8))
def test_every_cell_bound_holds_cell_by_cell(n):
    # each pair is judged by the first grid cell its orbit lands on
    b = 5 * 2**n
    pdm = pair_distance_map(b)
    _, cells, _ = verify_mod._grid_landings(b, n, _step_table(b))
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
