"""Record ``reference.json``: the exit code and output digest of each
workload, after cross-validating the output once against independent facts.

    python3 perfbench/reference.py

- sweep: every filled ``mb_match`` and ``cb_match`` cell reads ``true``;
- verify-deep: the report says ``all_match: true`` and the run exits 0;
- oracle: the integer route's histogram equals the pair route's
  ``base_report(40)``, its maximum distance is ``predict_max_distance(40)``
  (21), and each numeral's distance agrees with ``trajectory``.

Run it again only when an output is meant to change.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import harness


def validate_sweep(stdout: bytes) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    filled = [row[col] for row in rows for col in ("mb_match", "cb_match") if row[col]]
    if not filled or any(cell != "true" for cell in filled):
        raise SystemExit("sweep: a filled match cell is not 'true'")
    print(f"sweep: {len(rows)} bases, {len(filled)} filled match cells, all true")


def validate_verify(stdout: bytes, exit_code: int) -> None:
    if exit_code != 0 or json.loads(stdout)["all_match"] is not True:
        raise SystemExit(f"verify-deep: exit code {exit_code} or all_match is not true")
    print("verify-deep: all_match true, exit code 0")


def validate_oracle(payload: dict, numerals: list[int]) -> None:
    from kaprekar4 import base_report, predict_max_distance

    report = payload["report"]
    pairs = base_report(harness.ORACLE_BASE, method="pairs")
    histogram = {int(k): v for k, v in report["histogram"].items()}
    if histogram != pairs.histogram:
        raise SystemExit("oracle: histogram differs from the pair route's")
    predicted = predict_max_distance(harness.ORACLE_BASE)
    if predicted is None or report["max_distance"] != predicted:
        raise SystemExit(f"oracle: max distance {report['max_distance']}, predicted {predicted}")
    expected = harness.trajectory_distances(numerals)
    reason = harness.check_numeral_distances(payload, numerals, expected)
    if reason is not None:
        raise SystemExit(f"oracle: {reason}")
    print(f"oracle: histogram equals the pair route's, max distance {predicted} as predicted,"
          " numeral distances agree")


def main() -> None:
    sys.path.insert(0, str(harness.SRC))
    reference = {}
    for w in harness.WORKLOADS.values():
        numerals = harness.oracle_numerals(0) if w.name == "oracle" else []
        s = harness.run_process(list(w.argv), " ".join(map(str, numerals)).encode())
        if w.name == "sweep":
            validate_sweep(s.stdout)
            digest = harness.sha256(s.stdout)
        elif w.name == "verify-deep":
            validate_verify(s.stdout, s.exit_code)
            digest = harness.sha256(s.stdout)
        else:
            payload = json.loads(s.stdout)
            validate_oracle(payload, numerals)
            digest = harness.oracle_report_digest(payload)
        reference[w.name] = {"exit_code": s.exit_code, "sha256": digest}
    with open(harness.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.REFERENCE.relative_to(harness.ROOT)}")


if __name__ == "__main__":
    main()
