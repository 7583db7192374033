"""Command-line front end.

Subcommands: trajectory, fixed-points, sweep, histogram, verify.  Each
command builds one payload, the dict its JSON schema under
``kaprekar4/schemas`` describes, and every output format is a view of it:
``--format json`` dumps the payload, ``--format csv`` writes its rows in a
fixed column order (null is an empty cell, booleans are ``true``/``false``),
and ``--format text`` is one renderer per command that reads the same
payload.  Output uses LF line endings and '.' as the decimal separator.
``sweep`` and ``verify`` plan their bases from one work estimate per base
(:func:`~kaprekar4.dynamics.work_estimate`): ``--jobs N`` is a ceiling on
worker processes, a run whose estimate does not cover a pool's measured
start-up and per-task cost stays in-process, and a pool starts the most
expensive bases first.  Rows are written in base order, so the output does
not depend on the plan.
``sweep``'s match cells and ``verify``'s verdicts both come from
:func:`~kaprekar4.verify.judge`.
Exit codes: 0 success / all checks match, 1 verification mismatch, 2 usage
error or an output that cannot be written, 3 undetermined orbit, 4 internal
error (a crash, out of memory, a worker pool that breaks or cannot start).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .digits import DigitQuad, Digits, check_base, join_digits, to_digits
from .dynamics import (
    BaseReport,
    Cycle,
    FixedNumeral,
    UndeterminedOrbitError,
    ZeroSink,
    base_report,
    trajectory,
    work_estimate,
)
from .pairs import pair_of_digits
from .predictions import FiveMultiple, classify_base, fixed_point_digits
from .verify import DEPTHS, MATCH, MISMATCH, NOT_PREDICTED, judge, verify_base

# CSV columns: the keys of a JSON row, in order
SWEEP_COLUMNS = (
    "b", "m", "n", "mb_measured", "mb_predicted", "mb_match", "sb_size",
    "cb_fraction", "cb_decimal", "cb_predicted_fraction", "cb_match",
)
HISTOGRAM_COLUMNS = ("k", "count", "fraction")
FIXED_POINTS_COLUMNS = ("b", "value", "d3", "d2", "d1", "d0", "pair_outer", "pair_inner")
SWEEP_METRICS = ("mb", "cb", "sbsize", "fixedpoints")
# the metrics that need base_report
_REPORT_METRICS = frozenset({"mb", "cb", "sbsize"})


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def fraction_to_decimal(frac: Fraction) -> str:
    """Exact decimal rendering to 12 places, rounded half away from zero."""
    q, r = divmod(frac.numerator * 10**12, frac.denominator)
    if 2 * r >= frac.denominator:
        q += 1
    text = str(q).rjust(13, "0")
    return f"{text[:-12]}.{text[-12:]}"


def fmt_fraction(frac: Fraction | None) -> str | None:
    return None if frac is None else f"{frac.numerator}/{frac.denominator}"


def fmt_numeral(digits: Digits, b: int) -> str:
    if b <= 10:
        return "".join(str(a) for a in digits)
    return "[" + ",".join(str(a) for a in digits) + "]"


def _numeral_json(q: DigitQuad) -> dict:
    return {"digits": list(q.digits), "value": q.value}


def _none(value):
    return "none" if value is None else value


def _grid(columns, rows: list[dict]) -> list[list[str]]:
    """Header and cells of a table; a cell is its JSON value as text."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    return [list(columns)] + [[cell(row[c]) for c in columns] for row in rows]


def _write(args: argparse.Namespace, payload: dict, text, columns=(), rows=()) -> None:
    """Write ``payload`` as ``args.format`` to ``--out`` or stdout: JSON as is,
    CSV as the table ``columns`` x ``rows``, text as ``text(payload)``.  A
    destination that cannot be written raises ``ValueError`` naming it."""
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = "".join(",".join(line) + "\n" for line in _grid(columns, rows))
    else:
        out = text(payload)
    try:
        if args.out is None:
            sys.stdout.write(out)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
    except OSError as exc:
        dest = "stdout" if args.out is None else args.out
        raise ValueError(f"cannot write {dest}: {exc.strerror or exc}") from exc


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
        raise ValueError(f"malformed base range {text!r}; expected LO..HI") from None
    if lo > hi:
        raise ValueError(f"empty base range {text!r}")
    check_base(lo)
    check_base(hi)
    return lo, hi


def parse_digit_list(text: str, b: int) -> DigitQuad:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 4 comma-separated digits, got {text!r}")
    try:
        digits = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-integer digit in {text!r}") from None
    return DigitQuad(b, digits)


# What a pool costs, in work_estimate units (~2.5 us each in-process).
# Measured on a 2-core host against --jobs 1, in fresh processes: a
# two-worker pool costs ~0.034 s to start plus ~0.12 ms per task, and wins
# back ~1.8 us per unit it moves off the critical path, so 0.034 s and
# 0.12 ms come to ~20,000 and ~64 units.  verify 60..80 --depth deep
# (18,000 units off, 21 tasks) broke even; sweep 2..400 (24,000 units off,
# 399 tasks) still lost 0.03 s.
_POOL_START_UNITS = 20_000
_POOL_TASK_UNITS = 64


def _parallel_map(worker, tasks, costs: list[int], jobs: int | None):
    """``[worker(t) for t in tasks]``, each task a tuple led by its base and
    ``costs`` their work estimates.

    ``jobs`` caps the workers, at most one per task.  The run stays
    in-process unless the work a pool could take off the critical path,
    total - max(longest, total / jobs), exceeds what the pool costs to
    start and to feed, both measured in the same units.  A pool gets the
    most expensive tasks first; the rows come back in task order.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    # at most one worker per task: the pool forks all its workers at once
    jobs = min(jobs or os.cpu_count() or 1, len(tasks))
    total = sum(costs)
    saved = total - max(max(costs), total / jobs)
    if jobs <= 1 or saved <= _POOL_START_UNITS + _POOL_TASK_UNITS * len(tasks):
        return [worker(t) for t in tasks]
    # imported here: a serial run never loads the multiprocessing machinery
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    order = sorted(range(len(tasks)), key=costs.__getitem__, reverse=True)
    rows = [None] * len(tasks)
    done = 0
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for row in pool.map(worker, [tasks[i] for i in order], chunksize=1):
                rows[order[done]] = row
                done += 1
    except BrokenExecutor as exc:
        # in submission order: the first lost tasks were running when a worker died
        lost = [tasks[i][0] for i in order[done:]]
        more = f" and {len(lost) - 10} more" if len(lost) > 10 else ""
        raise type(exc)(
            f"{exc}; no row came back for bases {', '.join(map(str, lost[:10]))}{more}"
            " (largest estimate first)"
        ) from exc
    return rows


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


_TERMINAL_KINDS = {FixedNumeral: "fixed-point", ZeroSink: "zero-sink", Cycle: "cycle"}


def _terminal_json(term) -> dict:
    return {"kind": _TERMINAL_KINDS[type(term)], **asdict(term)}


def _trajectory_text(payload: dict) -> str:
    b, start, states = payload["base"], payload["start"], payload["states"]
    lines = [f"base {b}  start {fmt_numeral(start['digits'], b)}  (value {start['value']})"]
    for state, nxt in zip(states, states[1:]):
        desc = sorted(state["digits"], reverse=True)
        asc = sorted(state["digits"])
        line = (
            f"  {fmt_numeral(desc, b)} - {fmt_numeral(asc, b)}"
            f" = {fmt_numeral(nxt['digits'], b)}"
        )
        if b > 10:
            line += f"   ({join_digits(desc, b)} - {join_digits(asc, b)} = {nxt['value']})"
        lines.append(line)
    term = payload["terminal"]
    if term["kind"] == "fixed-point":
        lines.append(
            f"fixed point {fmt_numeral(states[-1]['digits'], b)} (value {term['value']})"
            f" reached after {payload['distance']} steps"
        )
    elif term["kind"] == "zero-sink":
        lines.append(f"zero sink reached after {len(states) - 1} steps")
    else:
        lines.append(
            f"cycle of period {term['period']} entered after {term['entry_step']} steps"
        )
    return "\n".join(lines) + "\n"


def cmd_trajectory(args: argparse.Namespace) -> int:
    b = args.base
    check_base(b)
    if args.digits is not None:
        start = parse_digit_list(args.digits, b)
    else:
        start = to_digits(args.input, b)
    t = trajectory(start, max_steps=args.max_steps)
    payload = {
        "base": b,
        "start": _numeral_json(t.states[0]),
        "states": [_numeral_json(s) for s in t.states],
        "terminal": _terminal_json(t.terminal),
        "distance": t.distance,
    }
    _write(args, payload, _trajectory_text)
    return 0


# ---------------------------------------------------------------------------
# fixed-points
# ---------------------------------------------------------------------------


def _fixed_point_quads(b: int, report: BaseReport | None = None) -> list[DigitQuad]:
    """The base's fixed numerals; ``report``, when given, is ``base_report(b)``."""
    if isinstance(classify_base(b), FiveMultiple):
        return [fixed_point_digits(b)]
    return [to_digits(v, b) for v in (report or base_report(b)).fixed_numerals]


def _fixed_points_text(payload: dict) -> str:
    b = payload["base"]
    if not payload["fixed_points"]:
        return f"base {b}: no non-zero fixed point\n"
    return "".join(
        f"base {b}: fixed point {fmt_numeral(fp['digits'], b)} (value {fp['value']},"
        f" pair {tuple(fp['pair'])})\n"
        for fp in payload["fixed_points"]
    )


def cmd_fixed_points(args: argparse.Namespace) -> int:
    b = args.base
    points = [
        {**_numeral_json(q), "pair": list(pair_of_digits(q.digits))}
        for q in _fixed_point_quads(b)
    ]
    rows = [
        dict(zip(FIXED_POINTS_COLUMNS, (b, fp["value"], *fp["digits"], *fp["pair"])))
        for fp in points
    ]
    _write(args, {"base": b, "fixed_points": points}, _fixed_points_text,
           FIXED_POINTS_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_worker(task: tuple[int, frozenset[str]]) -> dict:
    """One JSON row of the sweep; ``fixed_points`` only when asked for.

    The mb and cb cells are :func:`~kaprekar4.verify.judge`'s, the verdicts
    of ``verify``: a match is true, a mismatch false, not-predicted null.
    """
    b, metrics = task
    cls = classify_base(b)
    five = isinstance(cls, FiveMultiple)
    report = base_report(b) if metrics & _REPORT_METRICS else None
    judged = judge(report) if "mb" in metrics or "cb" in metrics else None
    mb = judged if "mb" in metrics else None
    cb = judged if "cb" in metrics else None
    fraction = cb.measured_fraction if cb else None
    cell = {MATCH: True, MISMATCH: False}.get
    row = {
        "b": b,
        "m": cls.m if five else None,
        "n": cls.n if five else None,
        "mb_measured": mb.measured_max_distance if mb else None,
        "mb_predicted": mb.predicted_max_distance if mb else None,
        "mb_match": cell(mb.max_distance_verdict) if mb else None,
        # a base with no fixed numeral has no basin to size
        "sb_size": (
            report.convergent_count if "sbsize" in metrics and report.fixed_numerals else None
        ),
        "cb_fraction": fmt_fraction(fraction),
        "cb_decimal": None if fraction is None else fraction_to_decimal(fraction),
        "cb_predicted_fraction": fmt_fraction(cb.predicted_fraction) if cb else None,
        "cb_match": cell(cb.fraction_verdict) if cb else None,
    }
    if "fixedpoints" in metrics:
        row["fixed_points"] = [q.value for q in _fixed_point_quads(b, report)]
    return row


def _sweep_text(payload: dict) -> str:
    # the CSV cells, aligned for reading
    grid = _grid(SWEEP_COLUMNS, payload["rows"])
    widths = [max(len(r[i]) for r in grid) for i in range(len(SWEEP_COLUMNS))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n" for r in grid
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    lo, hi = parse_base_range(args.bases)
    # first-seen order, each metric once
    metrics = list(dict.fromkeys(m.strip() for m in args.metrics.split(",") if m.strip()))
    bad = [m for m in metrics if m not in SWEEP_METRICS]
    if bad or not metrics:
        raise ValueError(f"metrics must be a non-empty subset of {SWEEP_METRICS}")
    bases = range(lo, hi + 1)
    # fixedpoints alone measures nothing but bases 2 and 4
    measured = bool(_REPORT_METRICS.intersection(metrics))
    costs = [work_estimate(b) if measured else 1 for b in bases]
    rows = _parallel_map(_sweep_worker, [(b, frozenset(metrics)) for b in bases], costs,
                         args.jobs)
    payload = {"bases": [lo, hi], "metrics": metrics, "rows": rows}
    _write(args, payload, _sweep_text, SWEEP_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def _histogram_text(payload: dict) -> str:
    lines = [f"base {payload['base']}: {payload['total']} convergent numerals"]
    for row in payload["rows"]:
        line = f"  {row['k']:>3}  {row['count']}"
        if row["fraction"] is not None:
            line += f"  {row['fraction']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def cmd_histogram(args: argparse.Namespace) -> int:
    b = args.base
    report = base_report(b)
    if not report.fixed_numerals:
        raise ValueError(f"base {b} has no non-zero fixed point")
    total = report.convergent_count
    rows = []
    for k in range(report.max_distance + 1):
        count = report.histogram.get(k, 0)
        fraction = fraction_to_decimal(Fraction(count, total)) if args.normalize else None
        rows.append({"k": k, "count": count, "fraction": fraction})
    payload = {"base": b, "total": total, "normalized": bool(args.normalize), "rows": rows}
    _write(args, payload, _histogram_text, HISTOGRAM_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_worker(task: tuple[int, str]) -> dict:
    """One JSON report of the verify payload."""
    b, depth = task
    r = verify_base(b, depth)
    return {
        **asdict(r),
        "predicted_fraction": fmt_fraction(r.predicted_fraction),
        "measured_fraction": fmt_fraction(r.measured_fraction),
        "all_match": r.all_match,
    }


def _verify_text(payload: dict) -> str:
    lines = []
    for rep in payload["reports"]:
        b = rep["base"]
        if (
            rep["max_distance_verdict"] == NOT_PREDICTED
            and rep["measured_max_distance"] is None
            and not rep["checks"]
        ):
            lines.append(f"base {b}: no fixed point; nothing to verify")
            continue
        lines.append(
            f"base {b}: max distance predicted={_none(rep['predicted_max_distance'])}"
            f" measured={_none(rep['measured_max_distance'])}"
            f" [{rep['max_distance_verdict']}]"
        )
        lines.append(
            f"base {b}: convergent fraction"
            f" predicted={_none(rep['predicted_fraction'])}"
            f" measured={_none(rep['measured_fraction'])}"
            f" [{rep['fraction_verdict']}]"
        )
        for check in rep["checks"]:
            tail = f"  ({check['detail']})" if check["detail"] else ""
            lines.append(
                f"base {b}: {check['label']} [{'pass' if check['passed'] else 'FAIL'}]{tail}"
            )
    lines.append("all checks passed" if payload["all_match"] else "MISMATCHES FOUND")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = parse_base_range(args.bases)
    bases = range(lo, hi + 1)
    # a deep verify also walks all b(b+1)/2 canonical pairs: ~2 units each
    # for FiveMultiple (predecessor rows, distance and grid checks), ~1/5 of
    # a unit otherwise (the step table alone)
    deep = args.depth == "deep"
    costs = [
        work_estimate(b)
        + deep * b * (b + 1) // (1 if isinstance(classify_base(b), FiveMultiple) else 10)
        for b in bases
    ]
    reports = _parallel_map(_verify_worker, [(b, args.depth) for b in bases], costs, args.jobs)
    all_match = all(r["all_match"] for r in reports)
    payload = {"bases": [lo, hi], "depth": args.depth, "all_match": all_match, "reports": reports}
    _write(args, payload, _verify_text)
    return 0 if all_match else 1


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaprekar4",
        description="Four-digit digit-rearrangement dynamics in any base",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []  # (subparser, its formats, whether it takes --bases)

    def command(name, func, help, *, many=False, formats=("text", "json", "csv")):
        # led by --base, or by --bases when many
        p = sub.add_parser(name, help=help)
        if many:
            p.add_argument("--bases", type=str, required=True, help="range LO..HI")
        else:
            p.add_argument("--base", type=int, required=True)
        p.set_defaults(func=func)
        commands.append((p, formats, many))
        return p

    p = command("trajectory", cmd_trajectory, "iterate one numeral to its terminal",
                formats=("text", "json"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=int, help="start value as a decimal integer < base^4")
    group.add_argument("--digits", type=str, help="start digits a3,a2,a1,a0 (decimal components)")
    p.add_argument("--max-steps", type=int, default=None)

    command("fixed-points", cmd_fixed_points, "list the non-zero fixed numerals of a base")

    p = command("sweep", cmd_sweep, "per-base metrics over a range of bases", many=True)
    p.add_argument("--metrics", type=str, default="mb,cb,sbsize")

    p = command("histogram", cmd_histogram, "distance distribution of one base")
    p.add_argument("--normalize", action="store_true")

    p = command("verify", cmd_verify, "compare predictions against measurements", many=True,
                formats=("text", "json"))
    p.add_argument("--depth", choices=DEPTHS, default="formulas")

    # shared flags follow each command's own, the order --help lists them in
    for p, formats, many in commands:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", type=str, default=None)
        if many:
            p.add_argument("--jobs", type=int, default=None, help="most worker processes"
                           " (default: all cores); small runs stay in-process, a pool starts"
                           " the largest bases first, and the output does not depend on either")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
