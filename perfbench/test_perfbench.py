"""Tests of the benchmark's own helpers: statistics, failure accounting,
span arithmetic, wrapper installation and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import statistics

import pytest

import harness
import tracing


def table(spans):
    """SpanTable from (name, start, end, parent) rows."""
    names = sorted({s[0] for s in spans})
    return tracing.SpanTable(
        names=names,
        name=[names.index(s[0]) for s in spans],
        parent=[s[3] for s in spans],
        base=[-1] * len(spans),
        start=[float(s[1]) for s in spans],
        end=[float(s[2]) for s in spans],
    )


# ---------------------------------------------------------------------------
# statistics and failure accounting
# ---------------------------------------------------------------------------


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, med, q3 = harness.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert med == statistics.median(values)


def test_quartiles_of_one_sample():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_fail_ratio():
    assert harness.fail_ratio(10, 0) == 0.0
    assert harness.fail_ratio(4, 1) == 0.25
    with pytest.raises(ValueError):
        harness.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        harness.fail_ratio(3, 4)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_times_on_a_span_tree():
    t = table(
        [
            ("run", 0, 10, -1),
            ("cli.main", 1, 9, 0),
            ("cli._sweep_worker", 2, 5, 1),
            ("dynamics.base_report", 2.5, 4.5, 2),
            ("cli._sweep_worker", 5, 8, 1),
        ]
    )
    assert tracing.self_times(t) == pytest.approx([2, 2, 1, 2, 3])


def test_self_times_count_overlapping_children_once():
    t = table([("p", 0, 10, -1), ("a", 1, 5, 0), ("b", 3, 6, 0), ("c", 12, 14, 0)])
    # a and b cover [1, 6]; c lies outside its parent and covers nothing
    assert tracing.self_times(t)[0] == pytest.approx(5)


def test_inclusive_time_counts_nested_same_layer_once():
    t = table(
        [
            ("verify.verify_base", 0, 10, -1),
            ("tables.max_total_steps", 1, 3, 0),
            ("tables.cell_step_bound", 1.5, 2, 1),
            ("tables.cycle_cells", 4, 5, 0),
        ]
    )
    assert tracing.inclusive_time(t, "tables.") == pytest.approx(3)


def test_verify_checks_exclude_the_base_report_child():
    t = table(
        [
            ("run", 0, 12, -1),
            ("verify.verify_base", 1, 11, 0),
            ("dynamics.base_report", 1, 7, 1),
            ("dynamics.trajectory", 8, 9, 1),
        ]
    )
    m = tracing.layer_metrics(t, tracing.Tracer(), untraced_wall_s=11.0, pool_wall_s=None,
                              jobs=1, rss_growth_bytes=0)
    assert m["verify.checks_s"] == pytest.approx(4)
    assert m["dynamics.base_report.self_s"] == pytest.approx(6)
    assert m["trace.overhead_s"] == pytest.approx(1)


def test_pool_efficiency():
    t = table(
        [
            ("run", 0, 10, -1),
            ("cli.main", 0, 10, 0),
            ("cli._sweep_worker", 0, 6, 1),
            ("cli._sweep_worker", 6, 8, 1),
        ]
    )
    m = tracing.layer_metrics(t, tracing.Tracer(), untraced_wall_s=10.0, pool_wall_s=8.0,
                              jobs=2, rss_growth_bytes=0)
    assert m["cli.task_sum_s"] == pytest.approx(8)
    assert m["cli.longest_task_s"] == pytest.approx(6)
    # the longest task bounds a two-worker pool: 6 s of 8 s
    assert m["cli.pool_eff"] == pytest.approx(0.75)


def test_wrappers_reach_imported_names_and_are_restored():
    import kaprekar4.dynamics as dynamics
    import kaprekar4.pairs as pairs

    original = dynamics.pair_count
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert dynamics.pair_count is not original
        dynamics.base_report(10)
    assert dynamics.pair_count is original and pairs.pair_count is original
    t = tracer.table()
    (pdm,) = t.rows("dynamics.pair_distance_map")
    assert t.base[pdm] == 10
    assert t.names[t.name[t.parent[pdm]]] == "dynamics.base_report"
    # one count per pair that reaches the fixed pair, the fixed pair included
    assert len(t.rows("pairs.pair_count")) == len(dynamics.pair_distance_map(10).steps)
    assert tracer.calls("pairs.step_pair") > 0


def test_in_process_runs_use_no_pool():
    sweep = harness.WORKLOADS["sweep"]
    assert sweep.argv[:2] == ("-m", "kaprekar4.cli") and "2" in sweep.argv
    assert sweep.traced_cli[-2:] == ("--jobs", "1") and sweep.traced_cli.count("--jobs") == 1
    assert harness.WORKLOADS["verify-deep"].traced_cli[-2:] == ("--jobs", "1")
    assert harness.WORKLOADS["oracle"].entry == "kaprekar4"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_tampered_output_is_rejected():
    output = b"b,m,n\n5,1,0\n"
    reference = {"sweep": {"exit_code": 0, "sha256": harness.sha256(output)}}
    assert harness.check_output(reference, "sweep", 0, harness.sha256(output)) is None
    tampered = output.replace(b"5,1,0", b"5,1,1")
    assert "sha256" in harness.check_output(reference, "sweep", 0, harness.sha256(tampered))
    assert "exit code" in harness.check_output(reference, "sweep", 1, harness.sha256(output))


def test_tampered_oracle_distance_is_rejected():
    numerals = harness.oracle_numerals(7, count=8)
    expected = harness.trajectory_distances(numerals)
    payload = {"report": {}, "distances": list(expected)}
    assert harness.check_numeral_distances(payload, numerals, expected) is None
    payload["distances"][0] = 3 if expected[0] is None else None
    assert "trajectory gives" in harness.check_numeral_distances(payload, numerals, expected)
    del payload["distances"][-1]
    assert "7 distances" in harness.check_numeral_distances(payload, numerals, expected)


def test_numerals_depend_only_on_the_seed():
    assert harness.oracle_numerals(3) == harness.oracle_numerals(3)
    assert harness.oracle_numerals(3) != harness.oracle_numerals(4)
    assert all(0 <= v < harness.ORACLE_BASE**4 for v in harness.oracle_numerals(3))
