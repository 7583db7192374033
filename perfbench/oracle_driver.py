"""The ``oracle`` workload: base-40 statistics from the integer route.

Reads base-40 numerals (decimal values, whitespace-separated) on stdin and
prints one JSON object: the ``base_report(40, method="enumeration")``
statistics, and the distance of each numeral to the fixed numeral.  A
numeral's distance is found by stepping it with ``step_value`` until it
reaches one of the report's fixed numerals; an orbit that has not arrived
within the report's maximum distance never does, and gets ``null``.

Run as ``PYTHONPATH=src python3 perfbench/oracle_driver.py < numerals``.
"""

from __future__ import annotations

import json
import sys

import kaprekar4

BASE = 40


def run(numerals: list[int]) -> dict:
    report = kaprekar4.base_report(BASE, method="enumeration")
    fixed = set(report.fixed_numerals)
    distances = []
    for value in numerals:
        dist = None
        for steps in range(report.max_distance + 1):
            if value in fixed:
                dist = steps
                break
            value = kaprekar4.step_value(value, BASE)
        distances.append(dist)
    return {
        "report": {
            "base": report.base,
            "max_distance": report.max_distance,
            "convergent_count": report.convergent_count,
            "convergent_fraction": str(report.convergent_fraction),
            "histogram": {str(k): v for k, v in sorted(report.histogram.items())},
            "fixed_numerals": report.fixed_numerals,
        },
        "distances": distances,
    }


def main() -> None:
    numerals = [int(tok) for tok in sys.stdin.read().split()]
    json.dump(run(numerals), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
