"""Command-line front end.

Subcommands: trajectory, fixed-points, sweep, histogram, verify.  Tabular
commands emit CSV with a fixed column order, LF line endings and '.' as the
decimal separator; JSON output follows the schemas shipped under
``kaprekar4/schemas``.  Exit codes: 0 success / all checks match,
1 verification mismatch, 2 usage error, 3 undetermined orbit, 4 internal
error (a crash, out of memory, a broken worker pool).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .digits import DigitQuad, Digits, check_base, to_digits
from .dynamics import (
    Cycle,
    FixedNumeral,
    Trajectory,
    UndeterminedOrbitError,
    ZeroSink,
    base_report,
    pair_distance_map,
)
from .pairs import pair_of_digits
from .predictions import (
    FiveMultiple,
    NoFixedPoint,
    TwoOrFour,
    classify_base,
    fixed_point_digits,
    predict_convergent_fraction,
    predict_max_distance,
)
from .verify import MISMATCH, NOT_PREDICTED, PredictionReport, verify_base

SWEEP_CSV_HEADER = (
    "b,m,n,mb_measured,mb_predicted,mb_match,sb_size,"
    "cb_fraction,cb_decimal,cb_predicted_fraction,cb_match"
)
HISTOGRAM_CSV_HEADER = "k,count,fraction"
FIXED_POINTS_CSV_HEADER = "b,value,d3,d2,d1,d0,pair_outer,pair_inner"
SWEEP_METRICS = ("mb", "cb", "sbsize", "fixedpoints")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def fraction_to_decimal(frac: Fraction, places: int = 12) -> str:
    """Exact decimal rendering, rounded half away from zero."""
    scaled = frac.numerator * 10**places
    q, r = divmod(scaled, frac.denominator)
    if 2 * r >= frac.denominator:
        q += 1
    text = str(q).rjust(places + 1, "0")
    return f"{text[:-places]}.{text[-places:]}"


def fmt_fraction(frac: Fraction) -> str:
    return f"{frac.numerator}/{frac.denominator}"


def fmt_numeral(digits: Digits, b: int) -> str:
    if b <= 10:
        return "".join(str(a) for a in digits)
    return "[" + ",".join(str(a) for a in digits) + "]"


def _numeral_json(q: DigitQuad) -> dict:
    return {"digits": list(q.digits), "value": q.value}


def parse_base_range(text: str) -> tuple[int, int]:
    raw = text.split("..")
    try:
        if len(raw) == 1:
            lo = hi = int(raw[0])
        elif len(raw) == 2:
            lo, hi = int(raw[0]), int(raw[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"malformed base range {text!r}; expected LO..HI") from None
    if lo > hi:
        raise UsageError(f"empty base range {text!r}")
    check_base(lo)
    check_base(hi)
    return lo, hi


def parse_digit_list(text: str, b: int) -> Digits:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected 4 comma-separated digits, got {text!r}")
    try:
        digits = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-integer digit in {text!r}") from None
    return DigitQuad(b, digits).digits


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def _terminal_json(t: Trajectory) -> dict:
    term = t.terminal
    if isinstance(term, FixedNumeral):
        return {"kind": "fixed-point", "value": term.value}
    if isinstance(term, ZeroSink):
        return {"kind": "zero-sink"}
    assert isinstance(term, Cycle)
    return {"kind": "cycle", "period": term.period, "entry_step": term.entry_step}


def _trajectory_text(t: Trajectory) -> str:
    b = t.base
    lines = [f"base {b}  start {fmt_numeral(t.start.digits, b)}  (value {t.start.value})"]
    for state, nxt in zip(t.states, t.states[1:]):
        desc = tuple(sorted(state.digits, reverse=True))
        asc = tuple(sorted(state.digits))
        line = (
            f"  {fmt_numeral(desc, b)} - {fmt_numeral(asc, b)}"
            f" = {fmt_numeral(nxt.digits, b)}"
        )
        if b > 10:
            line += (
                f"   ({DigitQuad(b, desc).value} - {DigitQuad(b, asc).value}"
                f" = {nxt.value})"
            )
        lines.append(line)
    term = t.terminal
    if isinstance(term, FixedNumeral):
        lines.append(
            f"fixed point {fmt_numeral(t.states[-1].digits, b)} (value {term.value})"
            f" reached after {t.distance} steps"
        )
    elif isinstance(term, ZeroSink):
        lines.append(f"zero sink reached after {len(t.states) - 1} steps")
    else:
        lines.append(
            f"cycle of period {term.period} entered after {term.entry_step} steps"
        )
    return "\n".join(lines) + "\n"


def cmd_trajectory(args: argparse.Namespace) -> int:
    b = args.base
    check_base(b)
    if args.digits is not None:
        start = DigitQuad(b, parse_digit_list(args.digits, b))
    else:
        start = to_digits(args.input, b)
    from .dynamics import trajectory as run_trajectory

    t = run_trajectory(start, max_steps=args.max_steps)
    if args.format == "json":
        payload = {
            "base": b,
            "start": _numeral_json(t.start),
            "states": [_numeral_json(s) for s in t.states],
            "terminal": _terminal_json(t),
            "distance": t.distance,
        }
        _emit(_json_dump(payload), args.out)
    else:
        _emit(_trajectory_text(t), args.out)
    return 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------


def _fixed_point_quads(b: int) -> list[DigitQuad]:
    cls = classify_base(b)
    if isinstance(cls, NoFixedPoint):
        return []
    if isinstance(cls, TwoOrFour):
        return [to_digits(v, b) for v in base_report(b).fixed_numerals]
    return [fixed_point_digits(b)]


def cmd_fixed_points(args: argparse.Namespace) -> int:
    b = args.base
    check_base(b)
    quads = _fixed_point_quads(b)
    if args.format == "json":
        payload = {
            "base": b,
            "fixed_points": [
                {**_numeral_json(q), "pair": list(pair_of_digits(q.digits))}
                for q in quads
            ],
        }
        _emit(_json_dump(payload), args.out)
    elif args.format == "csv":
        lines = [FIXED_POINTS_CSV_HEADER]
        for q in quads:
            d, dp = pair_of_digits(q.digits)
            lines.append(f"{b},{q.value},{','.join(str(a) for a in q.digits)},{d},{dp}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        if not quads:
            _emit(f"base {b}: no non-zero fixed point\n", args.out)
        else:
            lines = [
                f"base {b}: fixed point {fmt_numeral(q.digits, b)} (value {q.value},"
                f" pair {pair_of_digits(q.digits)})"
                for q in quads
            ]
            _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_worker(task: tuple[int, frozenset[str]]) -> dict:
    b, metrics = task
    cls = classify_base(b)
    row: dict = {
        "b": b,
        "m": cls.m if isinstance(cls, FiveMultiple) else None,
        "n": cls.n if isinstance(cls, FiveMultiple) else None,
        "mb_measured": None,
        "mb_predicted": None,
        "sb_size": None,
        "cb_fraction": None,
        "cb_predicted": None,
        "fixed_points": None,
    }
    has_fixed = not isinstance(cls, NoFixedPoint)
    needs_counts = bool(metrics & {"cb", "sbsize"})
    if has_fixed and needs_counts:
        report = base_report(b)
        row["mb_measured"] = report.max_distance if "mb" in metrics else None
        row["sb_size"] = report.convergent_count if "sbsize" in metrics else None
        row["cb_fraction"] = report.convergent_fraction if "cb" in metrics else None
    elif has_fixed and "mb" in metrics:
        if b % 5 == 0:
            steps = pair_distance_map(b).steps
            row["mb_measured"] = 1 + max(steps.values())
        else:
            row["mb_measured"] = base_report(b).max_distance
    if "mb" in metrics:
        row["mb_predicted"] = predict_max_distance(b)
    if "cb" in metrics:
        row["cb_predicted"] = predict_convergent_fraction(b)
    if "fixedpoints" in metrics:
        row["fixed_points"] = [q.value for q in _fixed_point_quads(b)]
    return row


def _match_flag(predicted, measured) -> bool | None:
    if predicted is None or measured is None:
        return None
    return predicted == measured


def _opt(value) -> str:
    return "" if value is None else str(value)


def _opt_bool(value: bool | None) -> str:
    return "" if value is None else ("true" if value else "false")


def _sweep_csv(rows: list[dict]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        cbf = row["cb_fraction"]
        lines.append(
            ",".join(
                [
                    str(row["b"]),
                    _opt(row["m"]),
                    _opt(row["n"]),
                    _opt(row["mb_measured"]),
                    _opt(row["mb_predicted"]),
                    _opt_bool(_match_flag(row["mb_predicted"], row["mb_measured"])),
                    _opt(row["sb_size"]),
                    fmt_fraction(cbf) if cbf is not None else "",
                    fraction_to_decimal(cbf) if cbf is not None else "",
                    fmt_fraction(row["cb_predicted"]) if row["cb_predicted"] is not None else "",
                    _opt_bool(_match_flag(row["cb_predicted"], row["cb_fraction"])),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _sweep_json(rows: list[dict], lo: int, hi: int, metrics: list[str]) -> str:
    out_rows = []
    for row in rows:
        cbf = row["cb_fraction"]
        entry = {
            "b": row["b"],
            "m": row["m"],
            "n": row["n"],
            "mb_measured": row["mb_measured"],
            "mb_predicted": row["mb_predicted"],
            "mb_match": _match_flag(row["mb_predicted"], row["mb_measured"]),
            "sb_size": row["sb_size"],
            "cb_fraction": fmt_fraction(cbf) if cbf is not None else None,
            "cb_decimal": fraction_to_decimal(cbf) if cbf is not None else None,
            "cb_predicted_fraction": (
                fmt_fraction(row["cb_predicted"]) if row["cb_predicted"] is not None else None
            ),
            "cb_match": _match_flag(row["cb_predicted"], row["cb_fraction"]),
        }
        if row["fixed_points"] is not None:
            entry["fixed_points"] = row["fixed_points"]
        out_rows.append(entry)
    return _json_dump({"bases": [lo, hi], "metrics": metrics, "rows": out_rows})


def _sweep_text(rows: list[dict]) -> str:
    # same cells as the CSV, aligned for reading
    grid = [SWEEP_CSV_HEADER.split(",")]
    for line in _sweep_csv(rows).splitlines()[1:]:
        grid.append(line.split(","))
    widths = [max(len(r[i]) for r in grid) for i in range(len(grid[0]))]
    return (
        "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in grid)
        + "\n"
    )


def _parallel_map(worker, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = parse_base_range(args.bases)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    bad = [m for m in metrics if m not in SWEEP_METRICS]
    if bad or not metrics:
        raise UsageError(f"metrics must be a non-empty subset of {SWEEP_METRICS}")
    jobs = args.jobs if args.jobs else os.cpu_count() or 1
    tasks = [(b, frozenset(metrics)) for b in range(lo, hi + 1)]
    rows = _parallel_map(_sweep_worker, tasks, jobs)
    if args.format == "csv":
        _emit(_sweep_csv(rows), args.out)
    elif args.format == "json":
        _emit(_sweep_json(rows, lo, hi, metrics), args.out)
    else:
        _emit(_sweep_text(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def cmd_histogram(args: argparse.Namespace) -> int:
    b = args.base
    check_base(b)
    if b % 5 != 0 and b not in (2, 4):
        raise UsageError(f"base {b} has no non-zero fixed point")
    hist = base_report(b).histogram
    total = sum(hist.values())
    rows = []
    for k in range(max(hist) + 1 if hist else 0):
        count = hist.get(k, 0)
        fraction = Fraction(count, total) if args.normalize else None
        rows.append((k, count, fraction))
    if args.format == "csv":
        lines = [HISTOGRAM_CSV_HEADER]
        for k, count, fraction in rows:
            frac_cell = fraction_to_decimal(fraction) if fraction is not None else ""
            lines.append(f"{k},{count},{frac_cell}")
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "json":
        payload = {
            "base": b,
            "total": total,
            "normalized": bool(args.normalize),
            "rows": [
                {
                    "k": k,
                    "count": count,
                    "fraction": fraction_to_decimal(f) if f is not None else None,
                }
                for k, count, f in rows
            ],
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = [f"base {b}: {total} convergent numerals"]
        for k, count, fraction in rows:
            line = f"  {k:>3}  {count}"
            if fraction is not None:
                line += f"  {fraction_to_decimal(fraction)}"
            lines.append(line)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_worker(task: tuple[int, str]) -> PredictionReport:
    b, depth = task
    return verify_base(b, depth)


def _verify_text(reports: list[PredictionReport]) -> str:
    lines = []
    for rep in reports:
        b = rep.base
        if (
            rep.max_distance_verdict == NOT_PREDICTED
            and rep.measured_max_distance is None
            and not rep.checks
        ):
            lines.append(f"base {b}: no fixed point; nothing to verify")
            continue
        lines.append(
            f"base {b}: max distance predicted={_opt(rep.predicted_max_distance) or 'none'}"
            f" measured={_opt(rep.measured_max_distance) or 'none'}"
            f" [{rep.max_distance_verdict}]"
        )
        pf = rep.predicted_fraction
        mf = rep.measured_fraction
        lines.append(
            f"base {b}: convergent fraction"
            f" predicted={fmt_fraction(pf) if pf is not None else 'none'}"
            f" measured={fmt_fraction(mf) if mf is not None else 'none'}"
            f" [{rep.fraction_verdict}]"
        )
        for check in rep.checks:
            tail = f"  ({check.detail})" if check.detail else ""
            lines.append(
                f"base {b}: {check.label} [{'pass' if check.passed else 'FAIL'}]{tail}"
            )
    all_ok = all(r.all_match for r in reports)
    lines.append("all checks passed" if all_ok else "MISMATCHES FOUND")
    return "\n".join(lines) + "\n"


def _verify_json(reports: list[PredictionReport], lo: int, hi: int, depth: str) -> str:
    payload = {
        "bases": [lo, hi],
        "depth": depth,
        "all_match": all(r.all_match for r in reports),
        "reports": [
            {
                "base": r.base,
                "predicted_max_distance": r.predicted_max_distance,
                "measured_max_distance": r.measured_max_distance,
                "max_distance_verdict": r.max_distance_verdict,
                "predicted_fraction": (
                    fmt_fraction(r.predicted_fraction)
                    if r.predicted_fraction is not None
                    else None
                ),
                "measured_fraction": (
                    fmt_fraction(r.measured_fraction)
                    if r.measured_fraction is not None
                    else None
                ),
                "fraction_verdict": r.fraction_verdict,
                "all_match": r.all_match,
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
    return _json_dump(payload)


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = parse_base_range(args.bases)
    jobs = args.jobs if args.jobs else os.cpu_count() or 1
    tasks = [(b, args.depth) for b in range(lo, hi + 1)]
    reports = _parallel_map(_verify_worker, tasks, jobs)
    if args.format == "json":
        _emit(_verify_json(reports, lo, hi, args.depth), args.out)
    else:
        _emit(_verify_text(reports), args.out)
    return 0 if all(r.all_match for r in reports) else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaprekar4",
        description="Four-digit digit-rearrangement dynamics in any base",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajectory", help="iterate one numeral to its terminal")
    p.add_argument("--base", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=int, help="start value as a decimal integer < base^4")
    group.add_argument("--digits", type=str, help="start digits a3,a2,a1,a0 (decimal components)")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("fixed-points", help="list the non-zero fixed numerals of a base")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("sweep", help="per-base metrics over a range of bases")
    p.add_argument("--bases", type=str, required=True, help="range LO..HI")
    p.add_argument("--metrics", type=str, default="mb,cb,sbsize")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("histogram", help="distance distribution of one base")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("verify", help="compare predictions against measurements")
    p.add_argument("--bases", type=str, required=True, help="range LO..HI")
    p.add_argument("--depth", choices=("formulas", "deep"), default="formulas")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UndeterminedOrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
