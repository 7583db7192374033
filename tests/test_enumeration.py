"""The streamed integer oracle against the full per-value tables."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaprekar4
from kaprekar4 import cli, dynamics, enumeration
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
    # For each a2 the rows a3 = a2..b-1 hold t = (a2+1)(a2+2)/2 quadruples
    # each, and a band is ceil(997 / t) of them.  At 2, 3, 5, 6, 7, 10 and
    # 12 (every base up to 23) each a2's rows fit in one band; at 40, 46
    # and 50 some a2 (7..37 at 40) take several bands, the last one short;
    # at 46 and 50 the rows with a2 >= 44 hold more than 997 quadruples
    # each, one row a band.
    monkeypatch.setattr(enumeration, "_CHUNK", 997)
    for b in (2, 3, 5, 6, 7, 10, 12, 40, 46, 50):
        _assert_reports_match(b)


def test_quadruple_stream_matches_per_value_steps():
    # each sorted quadruple stepped once, in a band of rows, and weighed,
    # against every value of [0, b^4) stepped alone by _step (digits by
    # division, sorted)
    for b in range(2, 31):
        want = np.unique(enumeration._step(np.arange(b**4, dtype=np.int64), b), return_counts=True)
        images, counts = enumeration.step_table(b)
        assert images.tolist() == want[0].tolist(), b
        assert counts.tolist() == want[1].tolist(), b


def test_image_set_is_small():
    # observed, not assumed by the route: the images number at most b(b+1)/2.
    # distance_table's searchsorted needs them strictly ascending, each
    # counted at least once; a duplicate image still sums to b^4
    for b in range(2, 41):
        images, counts = enumeration.step_table(b)
        assert images.size <= b * (b + 1) // 2, b
        assert (images[1:] > images[:-1]).all(), b
        assert (counts >= 1).all(), b
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


@pytest.mark.parametrize("row", range(8))
def test_wrong_weight_row_raises(monkeypatch, row):
    # every row of the weight table occurs at b = 10; one arrangement too
    # many anywhere makes the counts miss b^4
    weights = enumeration._WEIGHTS.copy()
    weights[row] += 1
    monkeypatch.setattr(enumeration, "_WEIGHTS", weights)
    with pytest.raises(RuntimeError, match="b\\^4"):
        enumeration.step_table(10)


def _no_work(monkeypatch):
    # the triangle is built first; at 2^15 + 1 it would take about 8.6 GB
    def no_work(*args):
        raise AssertionError("stepped a base over the limit")

    for name in ("_triangle", "_step", "_group_sum"):
        monkeypatch.setattr(enumeration, name, no_work)


def test_base_over_limit_rejected_before_any_work(monkeypatch):
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="up to"):
        base_report(enumeration.MAX_ENUM_BASE + 1, method="enumeration")
    assert 8 * enumeration.MAX_ENUM_BASE**4 <= 2**63


def test_base_past_int64_keys_rejected_before_any_work(monkeypatch):
    # a key is 8 K + the weight row, below 8 b^4: int64 holds it up to 2^15
    monkeypatch.setattr(enumeration, "MAX_ENUM_BASE", 1 << 16)
    enumeration._check_enum_base(1 << 15)
    _no_work(monkeypatch)
    with pytest.raises(ValueError, match="int64"):
        enumeration.step_table((1 << 15) + 1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_memory_bounded_at_base_64():
    # The full per-value tables needed about 1 GB at 64.  VmHWM is the peak
    # RSS of the child's own image; ru_maxrss would carry over the parent's.
    # 64 is not a multiple of 5 and has no fixed numeral; 120 is, and its
    # count must equal the pair route's.
    src = os.path.dirname(os.path.dirname(kaprekar4.__file__))
    for b in (64, 120):
        probe = (
            "import sys, kaprekar4\n"
            f"r = kaprekar4.base_report({b}, method='enumeration')\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(r.convergent_count, hwm[0].split()[1], 'numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        count, peak_kb, loaded_ma = out.stdout.split()
        assert int(count) == base_report(b).convergent_count, b
        assert int(peak_kb) < 100 * 1024, b
        # numpy.ma would add to the oracle's peak RSS; the merge avoids np.unique
        assert loaded_ma == "False", b


def _import_in_clean_env(prelude: str = "", **env: str) -> tuple[int, bool, list[str]]:
    """Import kaprekar4.enumeration in a fresh interpreter after ``prelude``.

    The child's environment has none of the three BLAS thread-count
    variables, plus ``env``.  Returns its OS thread count, whether
    ``os.environ`` is as it was before the import, and the variables the
    import set.
    """
    src = os.path.dirname(os.path.dirname(kaprekar4.__file__))
    blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    clean = {k: v for k, v in os.environ.items() if k not in blas}
    probe = (
        "import os\n"
        f"{prelude}\n"
        "added = []\n"
        "set_item = type(os.environ).__setitem__\n"
        "def logged(env, key, value):\n"
        "    added.append(key)\n"
        "    set_item(env, key, value)\n"
        "type(os.environ).__setitem__ = logged\n"
        "before = dict(os.environ)\n"
        "import kaprekar4.enumeration\n"
        "threads = [l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')]\n"
        "print(threads[0], dict(os.environ) == before, *added)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**clean, **env, "PYTHONPATH": src},
    ).stdout.split()
    return int(out[0]), out[1] == "True", out[2:]


_NEEDS_PROC = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                 reason="reads Threads from /proc/self/status")


@_NEEDS_PROC
def test_numpy_loads_without_blas_worker_threads():
    # OpenBLAS would start one worker per CPU; nothing here calls BLAS
    threads, unchanged, _ = _import_in_clean_env()
    assert threads == 1
    assert unchanged


@_NEEDS_PROC
def test_blas_thread_count_set_by_the_caller_wins():
    # unchanged: the variable still reads 2 after the import
    threads, unchanged, added = _import_in_clean_env(OPENBLAS_NUM_THREADS="2")
    assert unchanged and added == []
    # the main thread and one OpenBLAS worker, where two CPUs are usable
    if len(os.sched_getaffinity(0)) >= 2:
        assert threads == 2


@_NEEDS_PROC
def test_numpy_imported_first_sets_no_variable():
    _, unchanged, added = _import_in_clean_env("import numpy")
    assert unchanged and added == []


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
    # and it prices no work: the CLI plans
    assert names <= {"classify_base", "FiveMultiple", "TwoOrFour"}, names


def test_cli_judges_only_through_verify():
    # sweep's match cells are verify's verdicts: the CLI reads no predicted
    # number itself, only the classification
    tree = ast.parse(Path(cli.__file__).read_text())
    names: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names.setdefault(module, set()).update(alias.name for alias in node.names)
            assert not {"predictions", "verify"} & {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not [a for a in node.names if a.name.split(".")[-1] == "predictions"]
    assert names["predictions"] == {"FiveMultiple", "NoFixedPoint", "classify_base"}
    assert "judge" in names["verify"]
