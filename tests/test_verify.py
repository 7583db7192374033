import pytest

from kaprekar4.verify import MATCH, MISMATCH, NOT_PREDICTED, Check, verify_base


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
    import kaprekar4.verify as verify_mod

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
