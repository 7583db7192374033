import json
import os
import re
import subprocess
import sys
from array import array
from collections import Counter
from importlib.resources import files
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kaprekar4.pairs as pairs_mod
from kaprekar4.digits import join_digits, step_value, to_digits
from kaprekar4.dynamics import pair_distance_map
from kaprekar4.pairs import (
    PairType,
    _code,
    _step_table,
    classify_pair,
    condensed_image,
    pair_count,
    pair_of_digits,
    predecessors_of,
    step_pair,
)
from oracles import canonical_pairs, oracle_pair, oracle_pair_step, oracle_preimages


def base_and_pair():
    def pick(b):
        return st.integers(0, b - 1).flatmap(
            lambda d: st.tuples(st.just(b), st.just(d), st.integers(0, d))
        )

    return st.integers(2, 200).flatmap(pick)


# ---------------------------------------------------------------------------
# pair_of_digits / classify_pair
# ---------------------------------------------------------------------------


def test_pair_of_examples():
    assert pair_of_digits((6, 1, 7, 4)) == (6, 2)
    assert pair_of_digits((8, 5, 3, 2)) == (6, 2)
    assert pair_of_digits((7, 7, 7, 7)) == (0, 0)


def test_non_canonical_pair_rejected():
    # canonical in base 8 means 0 <= inner <= outer <= 7; each function tests
    # that inline and raises the one message
    for pair in ((2, 6), (8, 0), (3, -1), (-1, -1)):
        for reject in (predecessors_of, pair_count):
            with pytest.raises(ValueError, match=re.escape(f"{pair} is not canonical for base 8")):
                reject(pair, 8)


def test_classify_examples():
    assert classify_pair((6, 2), 10) is PairType.A
    assert classify_pair((9, 0), 10) is PairType.C
    assert classify_pair((9, 1), 10) is PairType.B
    assert classify_pair((5, 5), 10) is PairType.B
    assert classify_pair((0, 0), 10) is PairType.ZERO


def test_classify_total():
    for b in (2, 3, 4, 7, 10, 12):
        for p in canonical_pairs(b):
            assert classify_pair(p, b) in PairType


# ---------------------------------------------------------------------------
# step_pair
# ---------------------------------------------------------------------------


def test_pair_step_examples():
    assert step_pair((6, 2), 10) == (6, 2)
    assert step_pair((1, 1), 10) == (9, 7)
    assert step_pair((9, 0), 10) == (8, 1)
    assert step_pair((0, 0), 37) == (0, 0)


def test_pair_step_b_case_symmetric_in_component_choice():
    # when the coordinates sum to b, the formula gives the same unordered set
    # whether driven by the larger or the smaller one
    for b in range(4, 60):
        for d in range(b // 2 + 1, b):
            dp = b - d
            larger = {abs(2 * d - (b - 1)), abs(2 * d - (b + 1))}
            smaller = {abs(2 * dp - (b - 1)), abs(2 * dp - (b + 1))}
            assert larger == smaller


@given(base_and_pair())
@settings(max_examples=300)
def test_pair_step_output_canonical(bdp):
    b, d, dp = bdp
    out = step_pair((d, dp), b)
    assert 0 <= out[1] <= out[0] <= b - 1


@given(st.integers(2, 40).flatmap(lambda b: st.tuples(st.just(b), st.integers(0, b**4 - 1))))
@settings(max_examples=400)
def test_commutation_random(bv):
    b, x = bv
    image_pair = pair_of_digits(to_digits(step_value(x, b), b).digits)
    assert image_pair == step_pair(oracle_pair(x, b), b)


def test_fixed_pair():
    # the fixed pair (3b/5, b/5) is the walk's start set
    assert pair_distance_map(10).fixed == ((6, 2),)
    assert pair_distance_map(5).fixed == ((3, 1),)


# ---------------------------------------------------------------------------
# predecessors_of
# ---------------------------------------------------------------------------


def test_predecessor_examples():
    assert predecessors_of((1, 1), 10) == {(5, 5)}
    assert predecessors_of((9, 0), 10) == {(1, 0)}
    assert predecessors_of((5, 5), 20) == set()
    assert predecessors_of((6, 2), 10) == {
        (8, 6),
        (8, 4),
        (4, 2),
        (6, 2),
    }


def test_predecessor_rules_step_nothing(monkeypatch):
    # the rows are checked where they are used, not by stepping them here
    def refuse(pair, b):
        raise RuntimeError("predecessors_of stepped a candidate")

    monkeypatch.setattr(pairs_mod, "step_pair", refuse)
    assert predecessors_of((6, 2), 10) == {(8, 6), (8, 4), (4, 2), (6, 2)}


def test_predecessors_invert_step_small_bases():
    # acceptance covers 5..60; tiny bases are pinned here, and so are bases
    # above 60 in every residue mod 4, plus the benchmark's base 320
    for b in [*range(2, 13), 97, 98, 99, 100, 320]:
        preimages = oracle_preimages(b)
        for p in canonical_pairs(b):
            assert predecessors_of(p, b) == preimages.get(p, set()), (b, p)


def _condensed(b):
    """The condensed rules' code image of ``b``, from an image of fill n (no
    code), and the number of entries they wrote."""
    n = b * (b + 1) // 2
    image = array("I", [n]) * n
    return image, condensed_image(b, image)


@pytest.mark.parametrize("b", [*range(8, 133, 4), 320])
def test_condensed_rows_are_the_scanned_rows(b):
    # entry q names the row that lists pair q, which the scan's forward step
    # of q must be; each of the n entries is written once
    pairs = list(canonical_pairs(b))
    image, written = _condensed(b)
    assert written == len(pairs)
    assert [pairs[r] for r in image] == [oracle_pair_step(p, b) for p in pairs]


def _rows_of(image, b):
    """The rows an image lists, as {pair: set of the pairs it lists}."""
    pairs = list(canonical_pairs(b))
    rows = {}
    for q, r in enumerate(image):
        rows.setdefault(pairs[r], set()).add(pairs[q])
    return rows


def test_condensed_examples_base_8():
    rows = _rows_of(_condensed(8)[0], 8)
    assert rows[(4, 2)] == {(6, 5), (6, 3), (5, 2), (3, 2)}
    assert rows[(3, 1)] == {(5, 5), (5, 3), (3, 3)}
    assert rows[(0, 0)] == {(0, 0)}
    assert (1, 0) not in rows
    # the non-empty rows at 320 are the distinct entries of its image
    assert len(set(_condensed(320)[0])) == 13041
    for b in (10, 4):
        with pytest.raises(ValueError, match=f"need 4 \\| b and b > 4, got {b}"):
            condensed_image(b, array("I"))


def test_condensed_matches_general_up_to_64():
    for b in range(8, 65, 4):
        general = {p: row for p in canonical_pairs(b) if (row := predecessors_of(p, b))}
        image, written = _condensed(b)
        assert written == b * (b + 1) // 2, b
        assert _rows_of(image, b) == general, b


@pytest.mark.parametrize(
    "bases", [range(2, 131), [320], [641], [1280]], ids=["2..130", "320", "641", "1280"]
)
def test_step_table_matches_step_pair(bases):
    # the table's row kernel against the walk guard's per-pair formula
    for b in bases:
        table = _step_table(b)
        assert table.itemsize == 4, b
        assert table.tolist() == [_code(step_pair(p, b)) for p in canonical_pairs(b)], b


def _extra_candidates(b):
    # a canonical pair that steps elsewhere, a pair past the base, and the
    # fixed pair written backwards: not canonical, yet the formula steps it home
    (target,) = pair_distance_map(b).fixed
    d, dp = target
    stranger = next(p for p in canonical_pairs(b) if step_pair(p, b) != target)
    assert step_pair((dp, d), b) == target
    return [stranger, (b, 0), (dp, d)]


def test_predecessor_guard_raises(monkeypatch, capsys):
    # the rule rows are guarded where the BFS reads them: a wrong candidate in
    # the fixed pair's row is a transcription error, and sweep exits 4 on it
    import kaprekar4.cli as cli_mod
    import kaprekar4.dynamics as dynamics_mod

    real = dynamics_mod.predecessors_of
    (target,) = pair_distance_map(10).fixed
    for extra in _extra_candidates(10):

        def corrupted(pair, b, extra=extra):
            out = real(pair, b)
            return out | {extra} if pair == target else out

        monkeypatch.setattr(dynamics_mod, "predecessors_of", corrupted)
        with pytest.raises(RuntimeError, match=re.escape(f"predecessor {extra} of {target} ")):
            dynamics_mod.pair_distance_map(10)
        code = cli_mod.main(["sweep", "--bases", "10..10", "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 4, extra
        assert err.startswith("internal error: "), extra


def test_guards_survive_python_O():
    # python -O strips assert statements; the transcription guards must still raise
    probe = (
        "import kaprekar4.dynamics as d\n"
        "real = d.predecessors_of\n"
        "def corrupt(extra):\n"
        "    row = lambda pair, b: real(pair, b) | ({extra} if pair == (6, 2) else set())\n"
        "    d.predecessors_of = row\n"
        "    return d.pair_distance_map(10)\n"
        f"calls = [lambda e=e: corrupt(e) for e in {_extra_candidates(10)}]\n"
        "d.step_value = lambda x, b: x + 1\n"
        "for call in calls + [lambda: d.fixed_numerals(10)]:\n"
        "    try:\n"
        "        call()\n"
        "    except RuntimeError:\n"
        "        print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(pairs_mod.__file__))
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.split() == ["raised"] * 4


def test_no_assert_statements_in_src():
    # python -O strips them, so every guard in the package must raise instead
    import ast
    from pathlib import Path

    package = Path(pairs_mod.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# kaprekar4's public names: the library's entry points and the types they
# return or raise.  A name joins or leaves the top level only here
PUBLIC = {
    # entry points
    "base_report", "trajectory", "to_digits", "step_value", "verify_base",
    "predict_max_distance", "predict_convergent_fraction",
    # the types they return or raise
    "DigitQuad", "BaseReport", "Trajectory", "FixedNumeral", "ZeroSink", "Cycle",
    "UndeterminedOrbitError", "PredictionReport", "Check",
}

# names that left the top level, each still defined in its module
MODULE_ONLY = {
    "join_digits": "digits", "split_digits": "digits",
    "PairDistanceMap": "dynamics", "Terminal": "dynamics",
    "fixed_numerals": "dynamics", "pair_distance_map": "dynamics",
    "PairType": "pairs", "pair_count": "pairs",
    "pair_of_digits": "pairs", "step_pair": "pairs",
    "BaseClass": "predictions", "FiveMultiple": "predictions",
    "NoFixedPoint": "predictions", "TwoOrFour": "predictions",
    "classify_base": "predictions", "grid_landing": "predictions",
    "cell_step_bound": "tables", "cycle_cells": "tables", "grid_arrival": "tables",
    "landing_bound": "tables", "landing_witnesses": "tables", "max_total_steps": "tables",
}


def test_public_names_are_pinned():
    import importlib
    import inspect
    import types

    import kaprekar4

    # submodules are left out: importing kaprekar4.enumeration binds one
    exported = {
        name
        for name, value in vars(kaprekar4).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    assert len(PUBLIC) == 16
    # narrowing the top level removed no capability
    assert len(MODULE_ONLY) == 22 and not PUBLIC & MODULE_ONLY.keys()
    for name, mod in MODULE_ONLY.items():
        value = getattr(importlib.import_module(f"kaprekar4.{mod}"), name)
        # BaseClass and Terminal are unions of classes
        for member in value.__args__ if isinstance(value, types.UnionType) else (value,):
            assert inspect.isclass(member) or inspect.isfunction(member), name
            assert member.__module__ == f"kaprekar4.{mod}", name


def test_result_fields_are_pinned():
    # a result stores what was measured; whatever follows from it is derived
    from dataclasses import fields

    from kaprekar4 import BaseReport, PredictionReport, Trajectory

    def stored(cls):
        return [f.name for f in fields(cls)]

    assert stored(BaseReport) == ["base", "histogram", "fixed_numerals"]
    assert stored(Trajectory) == ["states", "terminal"]
    assert stored(PredictionReport) == [
        "base", "predicted_max_distance", "measured_max_distance", "max_distance_verdict",
        "predicted_fraction", "measured_fraction", "fraction_verdict", "checks",
    ]
    # a verify JSON report is a PredictionReport's fields plus all_match
    schema = json.loads(files("kaprekar4.schemas").joinpath("verify.schema.json").read_text())
    required = schema["properties"]["reports"]["items"]["required"]
    assert sorted([*stored(PredictionReport), "all_match"]) == sorted(required)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_count_examples():
    assert pair_count((6, 2), 10) == 384
    assert pair_count((0, 0), 10) == 10
    assert pair_count((0, 0), 37) == 37
    # the all-distinct 24(b-d)(d-dp) formula does not apply when inner = 0
    assert pair_count((9, 0), 10) == 104


def _counts_by_enumeration(b):
    # digit sort + bincount, independent of the closed form under test
    x = np.arange(b**4, dtype=np.int64)
    digs = np.stack([x % b, x // b % b, x // b**2 % b, x // b**3], axis=1)
    digs.sort(axis=1)
    codes = (digs[:, 3] - digs[:, 0]) * b + (digs[:, 2] - digs[:, 1])
    return np.bincount(codes, minlength=b * b)


def test_count_matches_enumeration_up_to_30():
    for b in range(2, 31):
        counts = _counts_by_enumeration(b)
        for d, dp in canonical_pairs(b):
            assert pair_count((d, dp), b) == counts[d * b + dp], (b, d, dp)


def test_count_conservation_and_type_a_closed_form():
    for b in (2, 3, 7, 10, 24, 59, 60, 320, 641):
        total = 0
        for p in canonical_pairs(b):
            n = pair_count(p, b)
            total += n
            d, dp = p
            if classify_pair(p, b) is PairType.A:
                assert n == 24 * (b - d) * (d - dp)
        assert total == b**4


def _offset_multiset_count(pair, b):
    # the derivation in pair_count's docstring, summed term by term
    d, dp = pair
    total = 0
    for t in range(d - dp + 1):
        multiplicities = Counter((0, t, t + dp, d)).values()
        total += 24 // prod(factorial(c) for c in multiplicities)
    return (b - d) * total


def test_count_closed_forms_by_shape():
    # one exact closed form per pair shape; every shape is exercised
    for b in (5, 10, 33, 64):
        shapes = set()
        for d, dp in canonical_pairs(b):
            n = pair_count((d, dp), b)
            assert n == _offset_multiset_count((d, dp), b), (b, d, dp)
            if d == 0:
                shapes.add("zero")
                assert n == b
            elif dp == 0:
                shapes.add("inner-zero")
                assert n == (12 * d - 4) * (b - d)
            elif d == dp:
                shapes.add("equal")
                assert n == 6 * (b - d)
            else:
                shapes.add("general")
                assert n == 24 * (b - d) * (d - dp)
        assert shapes == {"zero", "inner-zero", "equal", "general"}


# ---------------------------------------------------------------------------
# the one-step landing refinement for multiples of 5
# ---------------------------------------------------------------------------


def _numerals_with_pair(pair, b):
    d, dp = pair
    for s in range(b - d):
        for t in range(d - dp + 1):
            yield join_digits((s + d, s + t + dp, s + t, s), b)


def test_fixed_pair_carriers_land_and_predecessors_do_not():
    from kaprekar4.dynamics import fixed_numerals

    for b in (5, 10, 15, 20):
        (target,) = pair_distance_map(b).fixed
        (v,) = fixed_numerals(b)
        for x in _numerals_with_pair(target, b):
            assert step_value(x, b) == v
        for p in predecessors_of(target, b) - {target}:
            for x in _numerals_with_pair(p, b):
                assert step_value(x, b) != v
