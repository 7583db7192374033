"""The streamed integer oracle against the full per-value tables."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaprekar4
from kaprekar4 import dynamics, enumeration
from kaprekar4.dynamics import base_report
from oracles import full_report


def _assert_reports_match(b):
    got, want = enumeration.convergence_report(b), full_report(b)
    assert got == want, b
    assert list(got.histogram) == list(want.histogram), b


def test_streamed_report_matches_full_tables():
    for b in range(2, 61):
        _assert_reports_match(b)


def test_chunk_boundaries_do_not_change_the_answer(monkeypatch):
    # A chunk is max(1, 997 // b^2) whole blocks of b^2 values.  2^4, 3^4 and
    # 5^4 fit in one short chunk; 6, 7 and 10 end on a partial last chunk
    # (36 = 27 + 9 blocks, 49 = 20 + 20 + 9, 100 = 11 * 9 + 1); 12 ends on a
    # full one (144 = 24 * 6); at 40, b^2 > 997 and each chunk is one block.
    monkeypatch.setattr(enumeration, "_CHUNK", 997)
    for b in (2, 3, 5, 6, 7, 10, 12, 40):
        _assert_reports_match(b)


def test_block_columns_match_per_value_digits():
    for b in range(2, 31):
        want = np.unique(enumeration._step(np.arange(b**4, dtype=np.int64), b), return_counts=True)
        images, counts = enumeration.step_table(b)
        assert images.tolist() == want[0].tolist(), b
        assert counts.tolist() == want[1].tolist(), b


def test_image_set_is_small():
    # observed, not assumed by the route: the images number at most b(b+1)/2
    for b in range(2, 41):
        images, counts = enumeration.step_table(b)
        assert images.size <= b * (b + 1) // 2, b
        assert int(counts.sum()) == b**4, b


def test_missing_image_raises(monkeypatch):
    real = enumeration.step_table

    def without_fixed_numeral(b):
        images, counts = real(b)
        keep = images != 6174
        return images[keep], counts[keep]

    monkeypatch.setattr(enumeration, "step_table", without_fixed_numeral)
    with pytest.raises(RuntimeError, match="missing"):
        enumeration.distance_table(10)


def _no_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("stepped a base over the limit")

    monkeypatch.setattr(enumeration, "_step", no_work)
    monkeypatch.setattr(enumeration, "_sorted_difference", no_work)


def test_base_over_limit_rejected_before_any_work(monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="up to"):
        base_report(enumeration.MAX_ENUM_BASE + 1, method="enumeration")
    assert enumeration.MAX_ENUM_BASE**4 < 2**31


def test_base_past_int32_rejected_before_any_work(monkeypatch):
    # the digit columns are int32: exact while b^4 - 1 < 2^31, so up to 215
    monkeypatch.setattr(enumeration, "MAX_ENUM_BASE", 216)
    enumeration._check_enum_base(215)
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="int32"):
        enumeration.step_table(216)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_memory_bounded_at_base_64():
    # The full per-value tables needed about 1 GB here.  VmHWM is the peak
    # RSS of the child's own image; ru_maxrss would carry over the parent's.
    probe = (
        "import kaprekar4\n"
        "r = kaprekar4.base_report(64, method='enumeration')\n"
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
        "print(r.convergent_count, hwm[0].split()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(kaprekar4.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    count, peak_kb = map(int, out.stdout.split())
    assert count == 0  # 64 is not a multiple of 5 and has no fixed numeral
    assert peak_kb < 100 * 1024


def test_enumeration_does_not_import_pairs():
    tree = ast.parse(Path(enumeration.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m.split(".")[-1] == "pairs"}, imported


def test_dynamics_reads_only_the_classification_from_predictions():
    # the measurement may pick its route by class, never read a predicted number
    tree = ast.parse(Path(dynamics.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "predictions":
                names.update(alias.name for alias in node.names)
            assert "predictions" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not [a for a in node.names if a.name.split(".")[-1] == "predictions"]
    assert names <= {"classify_base", "FiveMultiple", "NoFixedPoint", "TwoOrFour"}, names
