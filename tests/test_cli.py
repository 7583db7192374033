import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files

import jsonschema
import pytest

from kaprekar4.cli import (
    FIXED_POINTS_COLUMNS,
    HISTOGRAM_COLUMNS,
    SWEEP_COLUMNS,
    build_parser,
    fraction_to_decimal,
    main,
    parse_base_range,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    return json.loads(files("kaprekar4.schemas").joinpath(name).read_text())


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(999, 1000)) == "0.999000000000"
    assert fraction_to_decimal(Fraction(1, 3)) == "0.333333333333"
    assert fraction_to_decimal(Fraction(2, 3)) == "0.666666666667"
    assert fraction_to_decimal(Fraction(1, 1)) == "1.000000000000"


def test_parse_base_range():
    assert parse_base_range("2..200") == (2, 200)
    assert parse_base_range("17") == (17, 17)
    for bad in ("5..", "a..b", "9..3", "1..4", "2..2..2"):
        with pytest.raises(ValueError):
            parse_base_range(bad)


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def test_trajectory_text_worked_chain(capsys):
    code, out, _ = run(capsys, "trajectory", "--base", "10", "--input", "889")
    assert code == 0
    assert out == (
        "base 10  start 0889  (value 889)\n"
        "  9880 - 0889 = 8991\n"
        "  9981 - 1899 = 8082\n"
        "  8820 - 0288 = 8532\n"
        "  8532 - 2358 = 6174\n"
        "fixed point 6174 (value 6174) reached after 4 steps\n"
    )


def test_trajectory_digits_input(capsys):
    code, out, _ = run(capsys, "trajectory", "--base", "10", "--digits", "5,5,5,5")
    assert code == 0
    assert "zero sink reached after 1 steps" in out


def test_trajectory_json_schema(capsys):
    # 123456 < 20^4 is accepted; its orbit happens to end in a cycle
    code, out, _ = run(capsys, "trajectory", "--base", "20", "--input", "123456", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "trajectory.schema.json")
    assert payload["terminal"] == {"kind": "cycle", "period": 6, "entry_step": 3}

    code, out, _ = run(capsys, "trajectory", "--base", "20", "--input", "97508", "--format", "json")
    payload = json.loads(out)
    validate(payload, "trajectory.schema.json")
    assert payload["terminal"] == {"kind": "fixed-point", "value": 97508}
    assert payload["distance"] == 0


def test_trajectory_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "trajectory", "--base", "20", "--input", "160000")
    assert code == 2
    assert "error" in err


def test_trajectory_rejects_bad_digits(capsys):
    assert run(capsys, "trajectory", "--base", "10", "--digits", "1,2,3")[0] == 2
    assert run(capsys, "trajectory", "--base", "10", "--digits", "1,2,3,x")[0] == 2
    assert run(capsys, "trajectory", "--base", "10", "--digits", "1,2,3,10")[0] == 2


def test_trajectory_undetermined_exit_3(capsys):
    code, _, err = run(capsys, "trajectory", "--base", "10", "--input", "889", "--max-steps", "1")
    assert code == 3
    assert "undetermined" in err


def test_usage_error_exit_2(capsys):
    assert main(["trajectory", "--base", "10"]) == 2  # neither --input nor --digits
    assert main(["nonsense"]) == 2


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

# each subcommand's actions after -h, in declaration order:
# (option strings, action, type, choices, default, required)
_FORMAT_TJ = (("--format",), "store", None, ("text", "json"), "text", False)
_FORMAT_TJC = (("--format",), "store", None, ("text", "json", "csv"), "text", False)
_OUT = (("--out",), "store", str, None, None, False)
_BASE = (("--base",), "store", int, None, None, True)
_BASES = (("--bases",), "store", str, None, None, True)
_JOBS = (("--jobs",), "store", int, None, None, False)
OPTION_TABLE = {
    "trajectory": [
        _BASE,
        (("--input",), "store", int, None, None, False),
        (("--digits",), "store", str, None, None, False),
        (("--max-steps",), "store", int, None, None, False),
        _FORMAT_TJ,
        _OUT,
    ],
    "fixed-points": [_BASE, _FORMAT_TJC, _OUT],
    "sweep": [
        _BASES,
        (("--metrics",), "store", str, None, "mb,cb,sbsize", False),
        _FORMAT_TJC,
        _OUT,
        _JOBS,
    ],
    "histogram": [
        _BASE,
        (("--normalize",), "store_true", None, None, False, False),
        _FORMAT_TJC,
        _OUT,
    ],
    "verify": [
        _BASES,
        (("--depth",), "store", None, ("formulas", "deep"), "formulas", False),
        _FORMAT_TJ,
        _OUT,
        _JOBS,
    ],
}


def _option_row(action):
    kind = {
        argparse._StoreAction: "store",
        argparse._StoreTrueAction: "store_true",
    }.get(type(action), type(action).__name__)
    choices = None if action.choices is None else tuple(action.choices)
    return (tuple(action.option_strings), kind, action.type, choices, action.default,
            action.required)


def test_option_table_is_pinned():
    parser = build_parser()
    top = parser._actions
    assert [type(a) for a in top] == [argparse._HelpAction, argparse._SubParsersAction]
    sub = top[1]
    assert (sub.dest, sub.required) == ("command", True)
    assert list(sub.choices) == list(OPTION_TABLE)
    for name, rows in OPTION_TABLE.items():
        p = sub.choices[name]
        assert type(p._actions[0]) is argparse._HelpAction
        assert [_option_row(a) for a in p._actions[1:]] == rows, name
        assert p.get_default("func").__name__ == "cmd_" + name.replace("-", "_")
        groups = [
            (g.required, [a.option_strings for a in g._group_actions])
            for g in p._mutually_exclusive_groups
        ]
        assert groups == ([(True, [["--input"], ["--digits"]])] if name == "trajectory" else [])


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------


def test_fixed_points_text(capsys):
    code, out, _ = run(capsys, "fixed-points", "--base", "2")
    assert code == 0
    assert "0111" in out and "1001" in out

    code, out, _ = run(capsys, "fixed-points", "--base", "7")
    assert code == 0
    assert "no non-zero fixed point" in out


def test_fixed_points_csv_and_json(capsys):
    code, out, _ = run(capsys, "fixed-points", "--base", "20", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(FIXED_POINTS_COLUMNS)
    assert lines[1] == "20,97508,12,3,15,8,12,4"

    code, out, _ = run(capsys, "fixed-points", "--base", "4", "--format", "json")
    payload = json.loads(out)
    validate(payload, "fixed_points.schema.json")
    assert payload["fixed_points"][0]["value"] == 201


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "5..10", "--format", "csv", "--jobs", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["5"] == "5,1,0,4,4,true,620,124/125,0.992000000000,124/125,true"
    assert rows["6"] == "6,,,,,,,,,,"
    assert rows["10"] == "10,1,1,7,7,true,9990,999/1000,0.999000000000,999/1000,true"


def test_sweep_includes_bases_2_and_4(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "2..4", "--format", "csv", "--jobs", "1")
    lines = out.splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["2"][3] == "1" and rows["2"][4] == "1" and rows["2"][5] == "true"
    assert rows["2"][1] == "" and rows["2"][2] == ""  # no m, n outside multiples of 5
    assert rows["4"][6] == "84"
    assert rows["3"][3] == ""


def test_sweep_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--bases", "14..16", "--metrics", "mb,cb,sbsize,fixedpoints",
        "--format", "json", "--jobs", "1",
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "sweep.schema.json")
    row15 = next(r for r in payload["rows"] if r["b"] == 15)
    assert row15["sb_size"] == 2160
    assert row15["fixed_points"] == [30996]
    assert row15["cb_fraction"] == "16/375"


def test_sweep_match_cells_are_verify_verdicts(capsys):
    # the two commands judge each base the same way
    from kaprekar4.verify import MATCH, MISMATCH, NOT_PREDICTED, verify_base

    code, out, _ = run(capsys, "sweep", "--bases", "2..200", "--metrics", "mb,cb",
                       "--format", "json", "--jobs", "1")
    assert code == 0
    cell = {MATCH: True, MISMATCH: False, NOT_PREDICTED: None}
    seen = set()
    for row in json.loads(out)["rows"]:
        rep = verify_base(row["b"])
        want = (cell[rep.max_distance_verdict], cell[rep.fraction_verdict])
        assert (row["mb_match"], row["cb_match"]) == want, row["b"]
        seen.add(want)
    # bases 2, 4, 20 and 80 have a distance formula only
    assert seen == {(True, True), (True, None), (None, None)}


def test_sweep_metric_subsets(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "10..10", "--metrics", "mb",
                       "--format", "csv", "--jobs", "1")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[3] == "7" and row[6] == "" and row[7] == ""

    assert main(["sweep", "--bases", "5..6", "--metrics", "bogus"]) == 2
    assert main(["sweep", "--bases", "5..x"]) == 2


def test_sweep_metrics_deduplicated(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "5..5", "--metrics", "mb,cb,mb,cb,mb",
                       "--format", "json", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["metrics"] == ["mb", "cb"]
    validate(payload, "sweep.schema.json")
    with pytest.raises(jsonschema.ValidationError):
        validate({**payload, "metrics": ["mb", "mb"]}, "sweep.schema.json")


def test_sweep_fixedpoints_reuses_report(monkeypatch):
    import kaprekar4.cli as cli_mod
    import kaprekar4.dynamics as dynamics_mod

    real, real_pairs = cli_mod.base_report, dynamics_mod._fixed_pairs
    want = {b: real(b).fixed_numerals for b in (2, 4, 20)}
    calls, pair_calls = [], []

    def counted(b, *args, **kwargs):
        calls.append(b)
        return real(b, *args, **kwargs)

    def counted_pairs(b):
        pair_calls.append(b)
        return real_pairs(b)

    monkeypatch.setattr(cli_mod, "base_report", counted)
    monkeypatch.setattr(dynamics_mod, "_fixed_pairs", counted_pairs)
    # a measured row reads its report's fixed numerals, so each row looks
    # its base's start set up once; for bases 2 and 4 that is a scan
    for b, fixed in want.items():
        for metrics, reports in (({"mb", "fixedpoints"}, [b]), ({"fixedpoints"}, [])):
            calls.clear()
            pair_calls.clear()
            row = cli_mod._sweep_worker((b, frozenset(metrics)))
            assert (calls, pair_calls, row["fixed_points"]) == (reports, [b], fixed), metrics


def test_sweep_text_format(capsys):
    code, out, _ = run(capsys, "sweep", "--bases", "5..6", "--jobs", "1")
    assert code == 0
    assert out.splitlines()[0].startswith("b ")


# ---------------------------------------------------------------------------
# process-pool plan
# ---------------------------------------------------------------------------

# The installed-wheel step of .github/workflows/tier1.yml compares this
# command's --jobs 2 output with its --jobs 1 output; its estimate must
# plan a pool there, or the step would compare two serial runs.  It runs
# bases 2 and 4 (the pair walk from their own fixed pairs) and the grid
# checks of n = 2, 3 and 5.
POOL_VERIFY = ["verify", "--bases", "2..170", "--depth", "deep"]


def _free_pool(monkeypatch):
    """Plan a pool for any run that a second worker could shorten at all."""
    import kaprekar4.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_POOL_START_UNITS", 0)
    monkeypatch.setattr(cli_mod, "_POOL_TASK_UNITS", 0)


@pytest.fixture
def stand_in_pool(monkeypatch):
    """Replaces ProcessPoolExecutor with an in-process stand-in; the returned
    log records each pool's max_workers and the bases in submission order.
    Setting ``log.broken_after = k`` fails the map with BrokenProcessPool
    after its first k rows."""
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool
    from types import SimpleNamespace

    log = SimpleNamespace(workers=[], bases=[], broken_after=None)

    class StandInPool:
        def __init__(self, max_workers):
            log.workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            log.bases.extend(task[0] for task in tasks)
            for k, task in enumerate(tasks):
                if k == log.broken_after:
                    raise BrokenProcessPool("A process in the process pool was terminated")
                yield fn(task)

    # _parallel_map imports the executor from concurrent.futures when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)
    return log


def test_sweep_jobs_parallel_identical(monkeypatch, tmp_path):
    import concurrent.futures

    # 2..25 is too small to repay a pool; a free one makes this one real
    _free_pool(monkeypatch)
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["sweep", "--bases", "2..25", "--format", "csv",
                 "--jobs", "1", "--out", str(one)]) == 0
    assert started == []
    assert main(["sweep", "--bases", "2..25", "--format", "csv",
                 "--jobs", "4", "--out", str(two)]) == 0
    assert started == [4]
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("jobs", [["--jobs", "5000"], []])
def test_pool_has_at_most_one_worker_per_base(capsys, monkeypatch, stand_in_pool, jobs):
    import kaprekar4.cli as cli_mod

    argv = ["sweep", "--bases", "2..3", "--format", "csv"]
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    _free_pool(monkeypatch)
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 64)
    code, out, _ = run(capsys, *argv, *jobs)
    assert code == 0
    assert stand_in_pool.workers == [2]
    assert out == serial


def test_default_jobs_counts_only_usable_cpus(capsys, monkeypatch, stand_in_pool):
    import kaprekar4.cli as cli_mod

    # a host with many CPUs, of which this process may run on one: two
    # workers on one CPU would take longer than one
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, _, _ = run(capsys, "sweep", "--bases", "2..800", "--format", "csv")
    assert code == 0
    assert stand_in_pool.workers == []


def test_benchmark_sweep_plans_in_process():
    # the benchmark's sweep does ~0.06 s of work, 0.04 s of it base 160: a
    # second worker could take ~5,500 units off the critical path, less than
    # a pool costs to start.  sweep 2..400 could take ~21,700 off, more than
    # the start-up, but not enough to also pay for feeding 399 tasks
    runs = [["sweep", "--bases", "2..200", "--metrics", "mb,cb", "--format", "csv"],
            ["sweep", "--bases", "2..400"]]
    probe = (
        "import os, sys, concurrent.futures, kaprekar4.cli\n"
        "started = []\n"
        "class StandInPool:\n"
        "    def __init__(self, max_workers):\n"
        "        started.append(max_workers)\n"
        "concurrent.futures.ProcessPoolExecutor = StandInPool\n"
        f"for argv in {runs!r}:\n"
        "    code = kaprekar4.cli.main([*argv, '--jobs', '2', '--out', os.devnull])\n"
        "    print(code, started, 'concurrent.futures.process' in sys.modules)\n"
    )
    assert _run_probe(probe) == ["0", "[]", "False"] * 2


def test_mid_cost_range_plans_a_pool_largest_first(capsys, monkeypatch, stand_in_pool):
    import kaprekar4.cli as cli_mod

    # the planner charges a deep base by its class alone; it steps no
    # fixed numeral
    def refuse(b):
        raise RuntimeError(f"the planner stepped the fixed numerals of {b}")

    monkeypatch.setattr(cli_mod, "fixed_numerals", refuse)
    argv = ["verify", "--bases", "150..170", "--depth", "deep"]
    _, serial, _ = run(capsys, *argv, "--jobs", "1")
    assert stand_in_pool.workers == []
    code, out, err = run(capsys, *argv, "--jobs", "2")
    assert (code, err) == (0, "")
    assert stand_in_pool.workers == [2]
    # 160 = 5*2^5 adds its whole basin to the deep walk, which costs more
    # where 5 | b; the other bases follow by b(b+1)
    assert stand_in_pool.bases == [
        160, 170, 165, 155, 150, 169, 168, 167, 166, 164, 163,
        162, 161, 159, 158, 157, 156, 154, 153, 152, 151,
    ]
    assert out == serial


def test_broken_pool_names_the_lost_bases(capsys, monkeypatch, stand_in_pool):
    _free_pool(monkeypatch)
    stand_in_pool.broken_after = 2
    code, out, err = run(capsys, "sweep", "--bases", "2..40", "--metrics", "mb,cb",
                         "--jobs", "2")
    assert code == 4
    assert out == ""
    # bases 40 and 20 came back; the first lost base is the next largest
    assert stand_in_pool.bases[:2] == [40, 20]
    assert err.startswith("internal error: BrokenProcessPool(")
    assert ("no row came back for bases 10, 30, 5, 4, 15, 25, 35, 2, 3, 6 and 27 more"
            " (largest estimate first)") in err


def test_sweep_near_max_base(capsys, monkeypatch, stand_in_pool):
    import kaprekar4.cli as cli_mod

    # the cheap bases at the top of the declared range, measured, in-process
    # by plan even with many cores
    monkeypatch.setattr(cli_mod, "_usable_cpus", lambda: 64)
    code, out, _ = run(capsys, "sweep", "--bases", "65440..65536", "--metrics", "mb,cb",
                       "--format", "json")
    assert code == 0
    assert stand_in_pool.workers == []
    rows = {r["b"]: r for r in json.loads(out)["rows"]}
    for b, mn in {65535: (13107, 0), 65520: (819, 4), 65440: (409, 5)}.items():
        assert (rows[b]["m"], rows[b]["n"]) == mn
        assert rows[b]["mb_match"] is True and rows[b]["cb_match"] is True
    assert rows[65536]["mb_match"] is None and rows[65536]["cb_match"] is None
    fives = [r for r in rows.values() if r["m"] is not None]
    assert len(fives) == 20
    assert all(r["mb_match"] and r["cb_match"] for r in fives)


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_jobs_below_one_is_usage_error(capsys, command, jobs):
    code, out, err = run(capsys, command, "--bases", "5..6", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_csv(capsys):
    code, out, _ = run(capsys, "histogram", "--base", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(HISTOGRAM_COLUMNS)
    assert len(lines) == 9  # k = 0..7
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 9990
    assert all(line.endswith(",") for line in lines[1:])  # fraction empty un-normalized


def test_histogram_normalized_fractions_sum_to_one(capsys):
    code, out, _ = run(capsys, "histogram", "--base", "5", "--normalize", "--format", "csv")
    assert code == 0
    lines = out.splitlines()[1:]
    counts = [int(line.split(",")[1]) for line in lines]
    total = sum(counts)
    assert sum(Fraction(c, total) for c in counts) == 1
    assert lines[0].split(",")[2] == fraction_to_decimal(Fraction(1, 620))


def test_histogram_base_40_max_k(capsys):
    code, out, _ = run(capsys, "histogram", "--base", "40", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1].split(",")[0] == "21"


def test_histogram_json_schema(capsys):
    code, out, _ = run(capsys, "histogram", "--base", "4", "--normalize", "--format", "json")
    payload = json.loads(out)
    validate(payload, "histogram.schema.json")
    assert payload["total"] == 84


def test_histogram_rejects_fixless_base(capsys):
    assert run(capsys, "histogram", "--base", "6") == (
        2, "", "error: base 6 has no non-zero fixed point\n"
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--bases", "5..12", "--jobs", "1")
    assert code == 0
    assert "no fixed point; nothing to verify" in out
    assert "all checks passed" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--bases", "15..20", "--depth", "deep", "--format", "json", "--jobs", "1"
    )
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.schema.json")
    assert payload["all_match"] is True
    report20 = next(r for r in payload["reports"] if r["base"] == 20)
    assert report20["max_distance_verdict"] == "match"
    assert any(c["label"] == "grid-arrival-table" for c in report20["checks"])


def test_verify_mismatch_exit_1(capsys, monkeypatch):
    import kaprekar4.cli as cli_mod
    from kaprekar4.verify import PredictionReport

    def fake(b, depth="formulas"):
        return PredictionReport(
            base=b,
            predicted_max_distance=1,
            measured_max_distance=2,
            max_distance_verdict="mismatch",
            predicted_fraction=None,
            measured_fraction=None,
            fraction_verdict="not-predicted",
        )

    monkeypatch.setattr(cli_mod, "verify_base", fake)
    code, out, _ = run(capsys, "verify", "--bases", "10..10", "--jobs", "1")
    assert code == 1
    assert "MISMATCHES FOUND" in out


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def test_out_writes_lf_file(tmp_path):
    path = tmp_path / "hist.csv"
    assert main(["histogram", "--base", "5", "--format", "csv", "--out", str(path)]) == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == ",".join(HISTOGRAM_COLUMNS)


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "hist.csv"
    code, out, err = run(capsys, "histogram", "--base", "5", "--format", "csv",
                         "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_json_outputs_deterministic(capsys):
    argv = ["sweep", "--bases", "5..15", "--format", "json", "--jobs", "1"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# crashes and imports
# ---------------------------------------------------------------------------


def test_internal_error_exit_4(capsys, monkeypatch):
    import kaprekar4.cli as cli_mod

    def crash(b, method="pairs"):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(cli_mod, "base_report", crash)
    code, out, err = run(capsys, "sweep", "--bases", "10..10", "--jobs", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and "planted crash" in err


def test_pool_that_cannot_start_exits_4(capsys, monkeypatch):
    import concurrent.futures

    class NoPool:
        def __init__(self, max_workers):
            raise BlockingIOError(11, "Resource temporarily unavailable")

    # a pool is planned, and fork fails before any process starts
    _free_pool(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    code, out, err = run(capsys, "sweep", "--bases", "5..40", "--jobs", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: BlockingIOError(")


def _run_probe(probe: str, split: bool = True):
    """Run ``probe`` in a fresh interpreter; its stdout, split into words
    unless ``split`` is false."""
    import kaprekar4

    src = os.path.dirname(os.path.dirname(kaprekar4.__file__))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return result.stdout.split() if split else result.stdout


_VERIFY_320_DEEP = (
    "import os\n"
    "code = kaprekar4.cli.main(['verify', '--bases', '320..320', '--depth', 'deep',\n"
    "                           '--jobs', '1', '--out', os.devnull])\n"
)


def test_cli_import_does_not_load_numpy():
    # only method="enumeration" needs numpy: every command, bases 2 and 4
    # included, runs without it, and so do the deep checks.  A serial run
    # never loads the process-pool machinery either.
    runs = [
        ["sweep", "--bases", "2..200", "--metrics", "mb,cb", "--jobs", "1"],
        ["histogram", "--base", "4"],
        ["fixed-points", "--base", "2"],
        ["verify", "--bases", "2..4", "--depth", "deep", "--jobs", "1"],
    ]
    probe = (
        "import sys, kaprekar4.cli\n"
        "pool = 'concurrent.futures.process'\n"
        "print('numpy' in sys.modules, pool in sys.modules)\n"
        + _VERIFY_320_DEEP
        + "print(code, 'numpy' in sys.modules, pool in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    code = kaprekar4.cli.main([*argv, '--out', os.devnull])\n"
        "    print(code, 'numpy' in sys.modules)\n"
    )
    assert _run_probe(probe) == ["False", "False", "0", "False", "False"] + ["0", "False"] * 4


def _pool_probe(argv, out_path, free_pool=False) -> list[str]:
    """Run the CLI in a fresh interpreter, writing to ``out_path``; its exit
    code and whether the process-pool module was loaded.  ``free_pool``
    plans a pool whenever a second worker could shorten the run at all."""
    probe = "import sys, kaprekar4.cli\n"
    if free_pool:
        probe += "kaprekar4.cli._POOL_START_UNITS = kaprekar4.cli._POOL_TASK_UNITS = 0\n"
    probe += (
        f"code = kaprekar4.cli.main({[*argv, '--out', str(out_path)]!r})\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    return _run_probe(probe)


def test_sweep_real_pool_matches_serial(tmp_path):
    # the goldens all run --jobs 1; this one starts a real two-worker pool,
    # which 2..60 is too small to repay unless it is free
    argv = ["sweep", "--bases", "2..60", "--metrics", "mb,cb,sbsize,fixedpoints",
            "--format", "csv"]
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert _pool_probe([*argv, "--jobs", "1"], one, free_pool=True) == ["0", "False"]
    assert _pool_probe([*argv, "--jobs", "2"], two, free_pool=True) == ["0", "True"]
    assert one.read_bytes() == two.read_bytes()
    assert one.read_text().startswith("b,m,n,")


def test_verify_real_pool_matches_serial(tmp_path):
    # the deep checks run in the workers and come back as JSON rows; the
    # range's own estimate plans the pool
    argv = [*POOL_VERIFY, "--format", "json"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert _pool_probe([*argv, "--jobs", "1"], one) == ["0", "False"]
    assert _pool_probe([*argv, "--jobs", "2"], two) == ["0", "True"]
    assert one.read_bytes() == two.read_bytes()
    payload = json.loads(one.read_text())
    assert payload["all_match"]
    labels = {c["label"] for r in payload["reports"] for c in r["checks"]}
    assert {"fixed-numerals-exist", "landing-witnesses"} <= labels


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_verify_deep_memory_bounded_at_base_320():
    # VmHWM is the peak RSS of the child's own image; ru_maxrss would carry
    # over the parent's.  The deep checks keep flat arrays, not dicts of pairs.
    probe = (
        "import kaprekar4.cli\n"
        + _VERIFY_320_DEEP
        + "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
        "print(code, hwm[0].split()[1])\n"
    )
    code, peak_kb = map(int, _run_probe(probe))
    assert code == 0
    assert peak_kb < 32 * 1024
