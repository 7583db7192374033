"""Mutants of ``src/`` that the named tests must catch.

Each entry names a file under ``src/``, a text that occurs in it exactly
once, the text that replaces it, and the test ids that must each fail once
the replacement is made.  ``mutants/run.py`` applies them one at a time to
a copy of ``src/``.  When a refactor moves or rewrites a mutated text,
update its entry here: the runner refuses a text that does not occur
exactly once.
"""

# the walk's price in cli._work_estimate, which two planner mutants touch
_WALK = "4 ** (cls.n + 1) if isinstance(cls, FiveMultiple) and cls.m > 1 else b * (b + 1) // 2"

# the golden sweep that asks for sbsize alone
_SBSIZE = "sweep/bases=2..25/metrics=sbsize"

MUTANTS = [
    # the walk starts from (3b/5, b/5 + 1), which is not its own image
    {
        "name": "fixed-pair-formula",
        "file": "kaprekar4/dynamics.py",
        "old": "return ((3 * b // 5, b // 5),) if isinstance(cls, FiveMultiple) else ()",
        "new": "return ((3 * b // 5, b // 5 + 1),) if isinstance(cls, FiveMultiple) else ()",
        "tests": [
            "tests/test_pairs.py::test_fixed_pair",
            "tests/test_dynamics.py::test_pair_distance_map_base_10",
            "tests/test_dynamics.py::test_pair_distance_map_matches_forward_walk",
        ],
    },
    # fixed-numeral-landing is handed the report's fixed numeral plus one
    {
        "name": "landing-check-fixed-numeral",
        "file": "kaprekar4/verify.py",
        "old": "(target,), (v_fixed,) = pdm.fixed, report.fixed_numerals",
        "new": "(target,), v_fixed = pdm.fixed, report.fixed_numerals[0] + 1",
        "tests": [
            "tests/test_verify.py::test_deep_bases_all_match[10]",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_verify.py::test_deep_verify_finds_the_fixed_pairs_once[20]",
        ],
    },
    # a trajectory's distance counts its states, not its steps
    {
        "name": "distance-counts-states",
        "file": "kaprekar4/dynamics.py",
        "old": "return len(self.states) - 1 if isinstance(self.terminal, FixedNumeral) else None",
        "new": "return len(self.states) if isinstance(self.terminal, FixedNumeral) else None",
        "tests": [
            "tests/test_dynamics.py::test_worked_chain_from_0889",
            "tests/test_dynamics.py::test_base5_orbit_of_one",
            "tests/test_dynamics.py::test_start_at_fixed_numeral",
        ],
    },
    # a deep verify charges a NoFixedPoint base b(b+1) units, like the others
    {
        "name": "planner-charges-no-fixed-point-in-full",
        "file": "kaprekar4/cli.py",
        "old": "return 1 + deep * b * (b + 1) // 10",
        "new": "return 1 + deep * b * (b + 1)",
        "tests": [
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
            "tests/test_dynamics.py::test_work_estimate_of_other_routes",
        ],
    },
    # a deep verify charges every base a flat b(b+1)/2, whatever its class
    {
        "name": "planner-flat-deep-term",
        "file": "kaprekar4/cli.py",
        "old": "(b + 1) // 10\n    walk = " + _WALK + "\n    return walk + deep * b * (b + 1)\n",
        "new": "(b + 1) // 2\n    walk = " + _WALK + "\n    return walk + deep * b * (b + 1) // 2\n",
        "tests": [
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
            "tests/test_dynamics.py::test_work_estimate_of_other_routes",
        ],
    },
    # the walk is charged 4^n pairs for m > 1, a quarter of what it reaches
    {
        "name": "planner-walk-four-to-the-n",
        "file": "kaprekar4/cli.py",
        "old": _WALK,
        "new": _WALK.replace("4 ** (cls.n + 1)", "4 ** cls.n"),
        "tests": [
            "tests/test_dynamics.py::test_work_estimate_bounds_the_pair_route",
            "tests/test_dynamics.py::test_work_estimate_of_other_routes",
        ],
    },
    # every run stays in-process, whatever a pool could save
    {
        "name": "planner-always-serial",
        "file": "kaprekar4/cli.py",
        "old": "if jobs <= 1 or saved <= _POOL_START_UNITS + _POOL_TASK_UNITS * len(tasks):",
        "new": "if True:",
        "tests": [
            "tests/test_cli.py::test_sweep_jobs_parallel_identical",
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
            "tests/test_cli.py::test_broken_pool_names_the_lost_bases",
        ],
    },
    # every run with two or more workers starts a pool, however small
    {
        "name": "planner-always-pool",
        "file": "kaprekar4/cli.py",
        "old": "if jobs <= 1 or saved <= _POOL_START_UNITS + _POOL_TASK_UNITS * len(tasks):",
        "new": "if jobs <= 1:",
        "tests": [
            "tests/test_cli.py::test_benchmark_sweep_plans_in_process",
            "tests/test_cli.py::test_sweep_near_max_base",
        ],
    },
    # a pool is charged its start-up only, not the feeding of each task
    {
        "name": "planner-no-per-task-term",
        "file": "kaprekar4/cli.py",
        "old": "saved <= _POOL_START_UNITS + _POOL_TASK_UNITS * len(tasks)",
        "new": "saved <= _POOL_START_UNITS",
        "tests": [
            "tests/test_cli.py::test_benchmark_sweep_plans_in_process",
        ],
    },
    # a pool gets its tasks in base order, not largest first
    {
        "name": "planner-submits-in-base-order",
        "file": "kaprekar4/cli.py",
        "old": "order = sorted(range(len(tasks)), key=costs.__getitem__, reverse=True)",
        "new": "order = list(range(len(tasks)))",
        "tests": [
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
            "tests/test_cli.py::test_broken_pool_names_the_lost_bases",
        ],
    },
    # a pool's rows are kept in submission order, not put back in base order
    {
        "name": "planner-rows-in-submission-order",
        "file": "kaprekar4/cli.py",
        "old": "rows[order[done]] = row",
        "new": "rows[done] = row",
        "tests": [
            "tests/test_cli.py::test_sweep_jobs_parallel_identical",
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
        ],
    },
    # a broken pool's lost list leaves out the first lost base
    {
        "name": "planner-lost-list-skips-first",
        "file": "kaprekar4/cli.py",
        "old": "lost = [tasks[i][0] for i in order[done:]]",
        "new": "lost = [tasks[i][0] for i in order[done + 1:]]",
        "tests": [
            "tests/test_cli.py::test_broken_pool_names_the_lost_bases",
        ],
    },
    # a sweep that asks for sbsize alone builds no report to size
    {
        "name": "sweep-sbsize-builds-no-report",
        "file": "kaprekar4/cli.py",
        "old": '_REPORT_METRICS = frozenset({"mb", "cb", "sbsize"})',
        "new": '_REPORT_METRICS = frozenset({"mb", "cb"})',
        "tests": [
            f"tests/test_cli_golden.py::test_cli_output_bytes[{_SBSIZE}/format={f}/jobs=1]"
            for f in ("text", "json", "csv")
        ],
    },
    # a measured sweep row looks its base's start set up again for fixedpoints
    {
        "name": "sweep-row-refinds-fixed-numerals",
        "file": "kaprekar4/cli.py",
        "old": "report.fixed_numerals if report is not None else fixed_numerals(b)",
        "new": "fixed_numerals(b)",
        "tests": [
            "tests/test_cli.py::test_sweep_fixedpoints_reuses_report",
        ],
    },
    # g*(1, 0) arrives at g*(2, 1) in column 1 (n = 1 mod 4), not at g*(4, 3)
    {
        "name": "arrival-column-slip",
        "file": "kaprekar4/tables.py",
        "old": "(1, 0): (1, 1, ((1, 0), (4, 3), (2, 1), (3, 2))),",
        "new": "(1, 0): (1, 1, ((1, 0), (2, 1), (2, 1), (3, 2))),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_matches_iteration",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_11_arrival_table",
        ],
    },
    # a cell one step from the fixed pair g*(3, 1) is tabulated at two steps;
    # the orbit stays on the fixed pair, so only the pinned entry sees it
    {
        "name": "arrival-one-step-row-takes-two",
        "file": "kaprekar4/tables.py",
        "old": "(2, 1): (0, 1, ((3, 1),) * 4),",
        "new": "(2, 1): (0, 2, ((3, 1),) * 4),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_entries",
        ],
    },
    # the (b/2^k, 5) witnesses are stated to land one step early
    {
        "name": "halving-witness-one-step-early",
        "file": "kaprekar4/tables.py",
        "old": "2 * n + 2, cells[col]",
        "new": "2 * n + 1, cells[col]",
        "tests": [
            "tests/test_predictions.py::test_landing_witnesses_rows",
            "tests/test_predictions.py::test_witness_rows_measured_small_n",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_10_landing_bounds",
        ],
    },
    # the landing bound of g*(2, 0) is 2n + 1, one more than any orbit takes
    {
        "name": "landing-bound-row-too-high",
        "file": "kaprekar4/tables.py",
        "old": "(2, 0): (2, 0), (4, 2): (2, 0),",
        "new": "(2, 0): (2, 1), (4, 2): (2, 0),",
        "tests": [
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_10_landing_bounds",
        ],
    },
    # the historical transcription 3n + 4 of the (3, 0) total for n = 0 mod 4
    {
        "name": "cell-bound-3-0-slip",
        "file": "kaprekar4/tables.py",
        "old": "(3, 0): (_lin(4, 5),",
        "new": "(3, 0): (_lin(3, 4),",
        "tests": [
            "tests/test_predictions.py::test_cell_step_bound_entries",
            "tests/test_verify.py::test_every_cell_bound_holds_cell_by_cell[4]",
        ],
    },
    # the fixed pair g*(3, 1) is tabulated to return to itself in two steps;
    # it is there after one, and stays
    {
        "name": "arrival-fixed-cell-takes-two",
        "file": "kaprekar4/tables.py",
        "old": "(3, 1): (0, 1, ((3, 1),) * 4),",
        "new": "(3, 1): (0, 2, ((3, 1),) * 4),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_matches_iteration",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_11_arrival_table",
        ],
    },
    # the fixed pair g*(3, 1) is tabulated to return to itself in no steps
    {
        "name": "arrival-fixed-cell-takes-none",
        "file": "kaprekar4/tables.py",
        "old": "(3, 1): (0, 1, ((3, 1),) * 4),",
        "new": "(3, 1): (0, 0, ((3, 1),) * 4),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_matches_iteration",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_11_arrival_table",
        ],
    },
    # g*(4, 2) is tabulated to reach the fixed pair g*(3, 1) in two steps, not one
    {
        "name": "arrival-4-2-takes-two",
        "file": "kaprekar4/tables.py",
        "old": "(4, 2): (0, 1, ((3, 1),) * 4),",
        "new": "(4, 2): (0, 2, ((3, 1),) * 4),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_matches_iteration",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_11_arrival_table",
        ],
    },
    # g*(4, 3) is tabulated to reach the fixed pair g*(3, 1) in two steps, not one
    {
        "name": "arrival-4-3-takes-two",
        "file": "kaprekar4/tables.py",
        "old": "(4, 3): (0, 1, ((3, 1),) * 4),",
        "new": "(4, 3): (0, 2, ((3, 1),) * 4),",
        "tests": [
            "tests/test_predictions.py::test_grid_arrival_matches_iteration",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
            "tests/test_acceptance.py::test_criterion_11_arrival_table",
        ],
    },
    # the fixed pair's A-type rule row leaves out the fixed pair itself; the
    # walk seeds that pair, so only predecessor-inversion's own derivation of
    # the fixed row sees it
    {
        "name": "fixed-row-without-itself",
        "file": "kaprekar4/pairs.py",
        "old": "        out.add((dp + 1, 0))\n    return out\n",
        "new": "        out.add((dp + 1, 0))\n    return out - {pair}\n",
        "tests": [
            "tests/test_verify.py::test_deep_bases_all_match[20]",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
        ],
    },
    # predecessor-inversion derives no general row for a pair the walk never
    # reached, only the fixed rows
    {
        "name": "inversion-skips-unreached-rows",
        "file": "kaprekar4/verify.py",
        "old": "derive = bytearray(dist)",
        "new": "derive = bytearray(len(dist))",
        "tests": [
            "tests/test_verify.py::test_wrong_preimage_fails_predecessor_inversion["
            f"predecessors_of-20-start0-table wrong at -{m}]"
            for m in ("_drop_one_candidate", "_swap_in_a_stranger", "_swap_in_a_non_canonical")
        ],
    },
    # predecessor-inversion reads the 255 "not in the map" byte as a
    # distance, so an unreached pair wants its unreached image's 255 + 1,
    # which wraps to 0
    {
        "name": "inversion-reads-the-sentinel-as-a-distance",
        "file": "kaprekar4/verify.py",
        "old": '_NEXT_LEVEL = bytes(range(1, 256)) + b"\\xff"',
        "new": '_NEXT_LEVEL = bytes(range(1, 256)) + b"\\x00"',
        "tests": [
            "tests/test_verify.py::test_deep_bases_all_match[20]",
            "tests/test_verify.py::test_rule_rows_at_bases_verify_skips[61]",
        ],
    },
    # an A-type rule row with a matching parity drops its (b+d)/2, (b+dp)/2
    # candidate
    {
        "name": "a-type-row-drops-a-candidate",
        "file": "kaprekar4/pairs.py",
        "old": "out = {(u, v), (u, w), (w, z), (v, z)}",
        "new": "out = {(u, w), (w, z), (v, z)}",
        "tests": [
            "tests/test_verify.py::test_deep_bases_all_match[20]",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
        ],
    },
    # fixed-numeral-landing never steps a numeral of a first-generation
    # predecessor pair, so none can short-circuit
    {
        "name": "landing-short-circuit-half-off",
        "file": "kaprekar4/verify.py",
        "old": "if _step_value(x, b) == v_fixed:",
        "new": "if False and _step_value(x, b) == v_fixed:",
        "tests": [
            "tests/test_verify.py::test_wrong_step_fails_fixed_numeral_landing["
            "65600-True-65600 (pair (8, 4)) short-circuits]",
            "tests/test_verify.py::test_deep_verify_call_counts[320]",
        ],
    },
    # predict_max_distance reads its explicit list before any base check,
    # and 2.0 == 2 is a key of it
    {
        "name": "predict-max-distance-unguarded",
        "file": "kaprekar4/predictions.py",
        "old": "check_base(b)\n    if b in _EXPLICIT_MAX_DISTANCE:",
        "new": "if b in _EXPLICIT_MAX_DISTANCE:",
        "tests": [
            "tests/test_predictions.py::"
            "test_predictors_reject_what_check_base_rejects[2.0-predict_max_distance]",
        ],
    },
]

# the digit step's five-comparator sorting network, less one compare-exchange
# at a time; without any one of them some orders of four digits sort wrong
MUTANTS += [
    {
        "name": f"step-network-drops-{lo}-{hi}",
        "file": "kaprekar4/digits.py",
        "old": f"    if {lo} > {hi}:\n        {lo}, {hi} = {hi}, {lo}\n",
        "new": "",
        "tests": [
            "tests/test_digits.py::test_step_matches_numpy_sort_on_whole_domain[10]",
            "tests/test_digits.py::test_step_matches_numpy_sort_on_whole_domain[16]",
            "tests/test_digits.py::test_step_matches_sorted_reference_on_samples[17]",
        ],
    }
    for lo, hi in [("a0", "a1"), ("a2", "a3"), ("a0", "a2"), ("a1", "a3"), ("a1", "a2")]
]

# the step table's row kernel: each of its three patches, and the A formula
_TABLE_TESTS = [
    "tests/test_pairs.py::test_step_table_matches_step_pair[2..130]",
    "tests/test_verify.py::test_deep_bases_all_match[20]",
]
MUTANTS += [
    # the C image of (d, 0) taken as (d, b - d)
    {
        "name": "table-c-patch-wrong",
        "file": "kaprekar4/pairs.py",
        "old": "row[0] = _code(_canon(d - 1, b - d))",
        "new": "row[0] = _code(_canon(d, b - d))",
        "tests": _TABLE_TESTS,
    },
    # (d, b - d) keeps its A-type image
    {
        "name": "table-drops-the-b-minus-d-patch",
        "file": "kaprekar4/pairs.py",
        "old": "        if b - d < d:\n            row[b - d] = row[d]\n",
        "new": "",
        "tests": _TABLE_TESTS,
    },
    # the A-type inner image from |2dp - b + 1|
    {
        "name": "table-a-type-y-off-by-one",
        "file": "kaprekar4/pairs.py",
        "old": "ys = [abs(2 * dp - b) for dp in range(b)]",
        "new": "ys = [abs(2 * dp - b + 1) for dp in range(b)]",
        "tests": _TABLE_TESTS,
    },
]

# the condensed rules, written family by family as a code image, the check
# that holds the image to the step table, and the landing memo's per-cell
# maxima
_SCANNED_8 = "tests/test_pairs.py::test_condensed_rows_are_the_scanned_rows[8]"
MUTANTS += [
    # no (d, b-1-d) <- (d+1, 0), (b-d, 0) rows
    {
        "name": "condensed-drops-the-b-minus-1-minus-d-family",
        "file": "kaprekar4/pairs.py",
        "old": "put(tri[x], [tri[d] + b - 1 - d])",
        "new": "pass",
        "tests": [_SCANNED_8, "tests/test_verify.py::test_deep_bases_all_match[20]"],
    },
    # the run of members (up, h + j) of (2i, 2j) starts at the code of
    # (h, up), a pair that is not canonical
    {
        "name": "condensed-coordinate-swap",
        "file": "kaprekar4/pairs.py",
        "old": "put(tri[up] + h, range(r, r + 2 * i, 2))",
        "new": "put(tri[h] + up, range(r, r + 2 * i, 2))",
        "tests": [_SCANNED_8, "tests/test_verify.py::test_deep_bases_all_match[20]"],
    },
    # the (up, h - j) segment of (2i, 2j) written one code to the left
    {
        "name": "condensed-segment-one-code-left",
        "file": "kaprekar4/pairs.py",
        "old": "put(tri[up] + dn + 1, range(r + 2 * i - 2, r, -2))",
        "new": "put(tri[up] + dn, range(r + 2 * i - 2, r, -2))",
        "tests": [_SCANNED_8, "tests/test_verify.py::test_deep_bases_all_match[20]"],
    },
    # each column of (x, h - i) members stops one member early
    {
        "name": "condensed-column-one-member-short",
        "file": "kaprekar4/pairs.py",
        "old": "rows = [r + 2 * j for r in col[1 : h - j]]",
        "new": "rows = [r + 2 * j for r in col[1 : h - j - 1]]",
        "tests": [_SCANNED_8, "tests/test_verify.py::test_deep_bases_all_match[20]"],
    },
    # no write-once guard: a code listed in two rows passes while the image
    # equals the table
    {
        "name": "condensed-write-once-guard-dropped",
        "file": "kaprekar4/verify.py",
        "old": "if condensed_image(b, image) != n or image != table:",
        "new": "if condensed_image(b, image) < 0 or image != table:",
        "tests": [
            "tests/test_verify.py::test_wrong_condensed_image_fails_predecessor_inversion["
            "written-twice]",
        ],
    },
    # a failure names the last wrong row, not the first
    {
        "name": "condensed-failure-names-the-last-wrong-row",
        "file": "kaprekar4/verify.py",
        "old": "condensed = _pair_at(min(bad))",
        "new": "condensed = _pair_at(max(bad))",
        "tests": [
            "tests/test_verify.py::test_wrong_condensed_image_fails_predecessor_inversion["
            "one-wrong-entry]",
        ],
    },
    # the memo keeps each path's second step count, not its head's
    {
        "name": "landing-memo-worst-one-step-early",
        "file": "kaprekar4/verify.py",
        "old": "        if s > worst[cell]:\n            worst[cell] = s\n",
        "new": "        if s - 1 > worst[cell]:\n            worst[cell] = s - 1\n",
        "tests": [
            "tests/test_verify.py::test_landing_memo_equals_grid_landing[160]",
            "tests/test_verify.py::test_deep_bases_all_match[160]",
        ],
    },
]
