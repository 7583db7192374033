"""The benchmark's workloads still produce its reference outputs.

``perfbench/run.py`` checks every timed run against
``perfbench/reference.json``; these tests run the same workloads in-process,
so that a change to an output byte or to a report attribute the oracle
driver reads fails here rather than as failed benchmark runs.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import oracle_driver  # noqa: E402

from kaprekar4 import cli  # noqa: E402


@pytest.mark.parametrize("workload", ["sweep", "verify-deep"])
def test_cli_workload_matches_reference(workload, tmp_path):
    out = tmp_path / "out"
    code = cli.main([*harness.WORKLOADS[workload].traced_cli, "--out", str(out)])
    digest = harness.sha256(out.read_bytes())
    assert harness.check_output(harness.load_reference(), workload, code, digest) is None


def test_oracle_driver_matches_reference():
    numerals = harness.oracle_numerals(101, count=16)
    payload = oracle_driver.run(numerals)
    digest = harness.oracle_report_digest(payload)
    assert harness.check_output(harness.load_reference(), "oracle", 0, digest) is None
    expected = harness.trajectory_distances(numerals)
    assert harness.check_numeral_distances(payload, numerals, expected) is None
