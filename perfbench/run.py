"""Benchmark of kaprekar4: end-to-end runs of one workload, or its traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload runs as fresh processes in a closed loop
(one client; the next run starts when the previous one exits) until the
next run would overrun ``--seconds``.  Before each run, a fresh interpreter
imports the workload's entry module (``setup_s``) and the machine's speed
is sampled (``harness.Calibration``).  Reported times are medians over the
runs, converted to the calibration's reference speed; the raw medians are
printed and recorded too.  After the loop, every run's exit code and output
are checked against ``reference.json``.  With ``--trace 1`` a separate
process runs the workload in-process, untraced and then traced (see
``tracing.py``), for the per-layer metrics, in raw seconds.

The package is run from ``src`` in the checkout; nothing is installed.
Human-readable lines go to stderr; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every raw sample and the machine's description are written
under ``perfbench/results``.  The metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def end_to_end(w: harness.Workload, seed: int, seconds: float) -> dict:
    reference = harness.load_reference()
    numerals = harness.oracle_numerals(seed) if w.name == "oracle" else []
    stdin = " ".join(map(str, numerals)).encode()

    harness.import_time(w.entry)  # writes the bytecode caches; not counted
    setup = []
    samples = []
    with harness.Calibration() as calibration:
        start = time.perf_counter()
        while True:
            calibration.measure()
            setup.append(harness.import_time(w.entry))
            samples.append(harness.run_process(list(w.argv), stdin))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(samples)) > seconds:
                break
        calibration.measure()

    # outside the timed window: check every run's output
    expected = harness.trajectory_distances(numerals)
    failures = []
    for i, s in enumerate(samples):
        if w.name == "oracle":
            reason = _check_oracle(reference, s, numerals, expected)
        else:
            reason = harness.check_output(reference, w.name, s.exit_code,
                                          harness.sha256(s.stdout))
        if reason is not None:
            failures.append(f"run {i}: {reason}")

    raw = {
        "wall_s": [s.wall_s for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "setup_s": setup,
    }
    raw_quartiles = {name: harness.quartiles(values) for name, values in raw.items()}
    factor = calibration.factor()
    return {
        "attempted": len(samples),
        "failures": failures,
        "metrics": {
            name: q[1] if name == "peak_rss_mb" else q[1] * factor
            for name, q in raw_quartiles.items()
        },
        "raw_quartiles": raw_quartiles,
        "speed_factor": factor,
        "samples": dict(raw, exit_code=[s.exit_code for s in samples],
                        calibration_s=calibration.samples),
    }


def _check_oracle(reference: dict, s: harness.ProcessSample, numerals: list[int],
                  expected: list[int | None]) -> str | None:
    try:
        payload = json.loads(s.stdout)
    except ValueError:
        return f"output is not JSON (exit code {s.exit_code})"
    reason = harness.check_output(reference, "oracle", s.exit_code,
                                  harness.oracle_report_digest(payload))
    return reason or harness.check_numeral_distances(payload, numerals, expected)


def traced(w: harness.Workload, seed: int) -> dict:
    res = harness.run_process([str(harness.BENCH_DIR / "tracing.py"), "--workload", w.name,
                               "--seed", str(seed)])
    if res.exit_code != 0:
        raise RuntimeError(f"traced run exited with code {res.exit_code}")
    out = json.loads(res.stdout)
    check = out["design_check"]
    log(f"design: {check['share']} = {check['value']:.3f}"
        f" (chosen for > {check['expected_above']}): {'holds' if check['holds'] else 'FAILS'}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="kaprekar4 benchmark")
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (harness.SRC / "kaprekar4" / "__init__.py").is_file():
        log(f"error: no kaprekar4 sources under {harness.SRC}")
        return 2
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    w = harness.WORKLOADS[args.workload]
    out = traced(w, args.seed) if args.trace else end_to_end(w, args.seed, args.seconds)
    if set(out["metrics"]) != {m["name"] for m in declared}:
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")

    attempted, failed = out["attempted"], len(out["failures"])
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    for reason in out["failures"]:
        log(f"FAILED {reason}")
    for name, m in metrics.items():
        tail = ""
        if name in out.get("raw_quartiles", {}):
            q1, q2, q3 = out["raw_quartiles"][name]
            tail = f" (raw median {q2:.6g}, quartiles {q1:.6g}..{q3:.6g} over {attempted} runs)"
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{tail}")
    if "speed_factor" in out:
        log(f"{args.workload} speed factor = {out['speed_factor']:.4f}"
            f" (reference {harness.Calibration.REFERENCE_S} s per calibration kernel)")
    log(f"{args.workload} fail_ratio = {harness.fail_ratio(attempted, failed):.6g}"
        f" ({failed} of {attempted} runs)")

    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=harness.machine_metadata())
    path = harness.write_results(
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json", record)
    log(f"results: {path.relative_to(harness.ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
