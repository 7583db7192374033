"""Mutants of ``src/`` that the named tests must catch.

Each entry names a file under ``src/``, a text that occurs in it exactly
once, the text that replaces it, and the test ids that must each fail once
the replacement is made.  ``mutants/run.py`` applies them one at a time to
a copy of ``src/``.  When a refactor moves or rewrites a mutated text,
update its entry here: the runner refuses a text that does not occur
exactly once.
"""

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
    # a deep verify charges a NoFixedPoint base b(b+1) units, like the others
    {
        "name": "planner-charges-no-fixed-point-in-full",
        "file": "kaprekar4/cli.py",
        "old": "// (10 if isinstance(classify_base(b), NoFixedPoint) else 1)",
        "new": "// (1 if isinstance(classify_base(b), NoFixedPoint) else 1)",
        "tests": [
            "tests/test_cli.py::test_mid_cost_range_plans_a_pool_largest_first",
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
]
