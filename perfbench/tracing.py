"""Per-layer tracing of one workload, run in-process.

Spans are recorded from the benchmark's side: the public functions of each
kaprekar4 module are replaced, for the duration of the traced run, by
wrappers that record (name, start, end, parent, base) in flat arrays.  The
package's modules import each other's functions by name (``from .pairs
import pair_count``), so every module attribute bound to a traced function
is replaced, not only the defining one.  The hottest leaves are only
counted (``step_pair``) or counted and timed without a span
(``step_value``); their time stays in their caller's self time.

Run as a program, it times one workload untraced in a fresh process, then
traced in its own, and prints the per-layer metrics as JSON:

    PYTHONPATH=src python3 perfbench/tracing.py --workload sweep --seed 1

The spans themselves are written, gzip-compressed, under
``perfbench/results``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import tempfile
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import harness

# module -> functions recorded as spans
SPANS = {
    "cli": ("main", "_sweep_worker", "_verify_worker"),
    "verify": ("verify_base",),
    "dynamics": ("base_report", "pair_distance_map", "trajectory"),
    "pairs": ("pair_count", "predecessors_of"),
    "predictions": ("grid_landing",),
    "tables": ("cell_step_bound", "cycle_cells", "grid_arrival", "landing_witnesses",
               "max_total_steps"),
    "enumeration": ("convergence_report", "distance_table", "step_table"),
}
COUNTED = {"pairs": ("step_pair",)}
TIMED_LEAVES = {"digits": ("step_value",)}

TASKS = ("cli._sweep_worker", "cli._verify_worker")

# below this many states, a step table is lost in the interpreter's own
# memory and bytes_per_state would measure the rest of the run instead
MIN_TABLE_STATES = 1_000_000


@dataclass
class SpanTable:
    """Spans as parallel columns; ``parent`` is a row index or -1, ``base``
    the first argument when it is an int, else -1."""

    names: list[str]
    name: list[int]
    parent: list[int]
    base: list[int]
    start: list[float]
    end: list[float]

    @cached_property
    def _rows(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            out.setdefault(self.names[nid], []).append(i)
        return out

    def rows(self, name: str) -> list[int]:
        return self._rows.get(name, [])

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._base = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        # leaf name -> reader of (calls, seconds or None)
        self._counts: dict[str, Callable[[], tuple[int, float | None]]] = {}

    def span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        col_name, col_parent, col_base = self._name, self._parent, self._base
        col_start, col_end, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(col_name)
            col_name.append(nid)
            col_parent.append(stack[-1])
            first = args[0] if args else None
            col_base.append(first if type(first) is int else -1)
            col_end.append(0.0)
            stack.append(i)
            col_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                col_end[i] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        n = 0

        def wrapper(*args, _fn=fn):
            nonlocal n
            n += 1
            return _fn(*args)

        self._counts[name] = lambda: (n, None)
        return wrapper

    def timed_leaf(self, name: str, fn):
        n = 0
        total = 0.0
        clock = time.perf_counter

        def wrapper(*args):
            nonlocal n, total
            n += 1
            t0 = clock()
            out = fn(*args)
            total += clock() - t0
            return out

        self._counts[name] = lambda: (n, total)
        return wrapper

    def calls(self, name: str) -> int:
        return self._counts[name]()[0] if name in self._counts else 0

    def leaf_seconds(self, name: str) -> float:
        return (self._counts[name]()[1] or 0.0) if name in self._counts else 0.0

    def table(self) -> SpanTable:
        return SpanTable(
            list(self.names),
            list(self._name),
            list(self._parent),
            list(self._base),
            list(self._start),
            list(self._end),
        )


@contextmanager
def installed(tracer: Tracer):
    """Route every kaprekar4 module attribute bound to a traced function
    through the tracer's wrapper; restore the originals on exit."""
    import kaprekar4.cli
    import kaprekar4.enumeration  # noqa: F401  (imported lazily by base_report)

    modules = [m for n, m in sys.modules.items() if n == "kaprekar4" or n.startswith("kaprekar4.")]
    replaced = []
    for kinds, make in ((SPANS, tracer.span), (COUNTED, tracer.counter),
                        (TIMED_LEAVES, tracer.timed_leaf)):
        for mod_name, fn_names in kinds.items():
            home = sys.modules[f"kaprekar4.{mod_name}"]
            for fn_name in fn_names:
                fn = getattr(home, fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", fn)
                for m in modules:
                    if getattr(m, fn_name, None) is fn:
                        setattr(m, fn_name, wrapper)
                        replaced.append((m, fn_name, fn))
    try:
        yield tracer
    finally:
        for m, fn_name, fn in replaced:
            setattr(m, fn_name, fn)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(t: SpanTable) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(t.parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [t.duration(i) for i in range(len(t.name))]
    for p, kids in children.items():
        covered = 0.0
        run_start = run_end = None
        for k in sorted(kids, key=t.start.__getitem__):
            s, e = max(t.start[k], t.start[p]), min(t.end[k], t.end[p])
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out


def inclusive_time(t: SpanTable, prefix: str) -> float:
    """Time inside spans named ``prefix...``, each interval counted once:
    spans nested in a span of the same prefix are skipped."""
    total = 0.0
    for i, nid in enumerate(t.name):
        if t.names[nid].startswith(prefix):
            p = t.parent[i]
            if p < 0 or not t.names[t.name[p]].startswith(prefix):
                total += t.duration(i)
    return total


def layer_metrics(t: SpanTable, tracer: Tracer, *, untraced_wall_s: float,
                  pool_wall_s: float | None, jobs: int, rss_growth_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    selfs = self_times(t)

    def self_sum(name: str) -> float:
        return sum((selfs[i] for i in t.rows(name)), 0.0)

    def calls(name: str) -> int:
        return len(t.rows(name))

    tasks = [i for name in TASKS for i in t.rows(name)]
    task_sum = sum((t.duration(i) for i in tasks), 0.0)
    longest = max((t.duration(i) for i in tasks), default=0.0)
    (run,) = t.rows("run")
    traced_wall = t.duration(run)

    pdm_rows = t.rows("dynamics.pair_distance_map")
    canonical = sum(b * (b + 1) // 2 for b in (t.base[i] for i in pdm_rows))
    step_pair_calls = tracer.calls("pairs.step_pair")

    step_value_calls = tracer.calls("digits.step_value")
    step_value_s = tracer.leaf_seconds("digits.step_value")

    enum_rows = t.rows("enumeration.step_table")
    enum_states = sum(t.base[i] ** 4 for i in enum_rows)
    step_table_s = inclusive_time(t, "enumeration.step_table")
    largest_table = max((t.base[i] ** 4 for i in enum_rows), default=0)

    checks_s = 0.0
    for i in t.rows("verify.verify_base"):
        reports = [k for k in t.rows("dynamics.base_report") if t.parent[k] == i]
        checks_s += t.duration(i) - sum(t.duration(k) for k in reports)

    return {
        "cli.task_sum_s": task_sum,
        "cli.longest_task_s": longest,
        "cli.pool_eff": (max(task_sum / jobs, longest) / pool_wall_s) if pool_wall_s else 0.0,
        "cli.self_s": self_sum("cli.main"),
        "dynamics.pair_distance_map.calls": len(pdm_rows),
        "dynamics.pair_distance_map.self_s": self_sum("dynamics.pair_distance_map"),
        "dynamics.base_report.self_s": self_sum("dynamics.base_report"),
        "dynamics.trajectory.calls": calls("dynamics.trajectory"),
        "dynamics.trajectory.self_s": self_sum("dynamics.trajectory"),
        "pairs.pair_count.calls": calls("pairs.pair_count"),
        "pairs.pair_count.s": inclusive_time(t, "pairs.pair_count"),
        "pairs.predecessors_of.calls": calls("pairs.predecessors_of"),
        "pairs.predecessors_of.s": inclusive_time(t, "pairs.predecessors_of"),
        "pairs.step_pair.calls": step_pair_calls,
        "pairs.step_pair_per_pair": step_pair_calls / canonical if canonical else 0.0,
        "digits.step_value.calls": step_value_calls,
        "digits.step_value.s": step_value_s,
        "digits.states_per_s": step_value_calls / step_value_s if step_value_s else 0.0,
        "enumeration.step_table.s": step_table_s,
        "enumeration.states_per_s": enum_states / step_table_s if step_table_s else 0.0,
        "enumeration.distance_table.s": self_sum("enumeration.distance_table"),
        "enumeration.bytes_per_state": (
            rss_growth_bytes / largest_table if largest_table >= MIN_TABLE_STATES else 0.0
        ),
        "predictions.grid_landing.calls": calls("predictions.grid_landing"),
        "predictions.grid_landing.s": inclusive_time(t, "predictions.grid_landing"),
        "tables.s": inclusive_time(t, "tables."),
        "verify.checks_s": checks_s,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall_s,
    }


def design_check(workload: str, t: SpanTable, m: dict[str, float]) -> dict:
    """The share of time the workload was chosen for, as measured in this run."""
    if workload == "sweep":
        share, whole, floor = m["dynamics.pair_distance_map.self_s"], m["cli.task_sum_s"], 0.8
        label = "dynamics.pair_distance_map.self_s / cli.task_sum_s"
    elif workload == "verify-deep":
        share, whole, floor = m["pairs.pair_count.s"], m["trace.wall_s"], 0.45
        label = "pairs.pair_count.s / trace.wall_s"
    else:
        share, whole, floor = inclusive_time(t, "enumeration."), m["trace.wall_s"], 0.9
        label = "enumeration.* / trace.wall_s"
    ratio = share / whole if whole else 0.0
    return {"share": label, "value": ratio, "expected_above": floor, "holds": ratio > floor}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def in_process_run(w: harness.Workload, numerals: list[int], tracer: Tracer | None = None):
    """Run the workload in this process, traced when ``tracer`` is given.

    Returns the wall seconds, the peak RSS in bytes before the run, and
    [exit code, output digest, oracle payload or None].  The package modules
    are imported before the clock starts, so a traced and an untraced run in
    fresh processes pay the same costs.
    """
    import kaprekar4.cli
    import kaprekar4.enumeration  # noqa: F401  (imported lazily by base_report)
    import oracle_driver

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    with tempfile.TemporaryDirectory(dir=harness.BENCH_DIR) as tmp:
        out_path = Path(tmp) / "out"

        def invoke():
            if not w.cli:
                payload = oracle_driver.run(numerals)
                return 0, harness.oracle_report_digest(payload), payload
            code = kaprekar4.cli.main([*w.traced_cli, "--out", str(out_path)])
            return code, harness.sha256(out_path.read_bytes()), None

        t0 = time.perf_counter()
        if tracer is None:
            result = invoke()
        else:
            with installed(tracer):
                result = tracer.span("run", invoke)()
        return {"wall_s": time.perf_counter() - t0, "rss_before": rss_before,
                "result": list(result)}


def traced_run(workload: str, seed: int) -> dict:
    """Untraced run in a fresh process, the pool run for a pool workload,
    then the traced run in this process; their checks and the metrics."""
    w = harness.WORKLOADS[workload]
    reference = harness.load_reference()
    numerals = harness.oracle_numerals(seed) if workload == "oracle" else []
    expected = harness.trajectory_distances(numerals)
    failures: list[str] = []
    attempted = 0

    def check(code: int, digest: str, payload: dict | None, what: str) -> None:
        nonlocal attempted
        attempted += 1
        reason = harness.check_output(reference, workload, code, digest)
        if reason is None and payload is not None:
            reason = harness.check_numeral_distances(payload, numerals, expected)
        if reason is not None:
            failures.append(f"{what}: {reason}")

    untraced = harness.run_process(
        [__file__, "--workload", workload, "--seed", str(seed), "--untraced"])
    if untraced.exit_code != 0:
        raise RuntimeError(f"untraced run exited with code {untraced.exit_code}")
    untraced_run = json.loads(untraced.stdout)
    untraced_wall = untraced_run["wall_s"]
    check(*untraced_run["result"], "untraced run")

    pool_wall = None
    if w.jobs > 1:
        pool = harness.run_process(list(w.argv))
        check(pool.exit_code, harness.sha256(pool.stdout), None, "pool run")
        pool_wall = pool.wall_s

    tracer = Tracer()
    run = in_process_run(w, numerals, tracer)
    check(*run["result"], "traced run")

    rss_growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - run["rss_before"]
    table = tracer.table()
    metrics = layer_metrics(
        table, tracer, untraced_wall_s=untraced_wall, pool_wall_s=pool_wall,
        jobs=w.jobs, rss_growth_bytes=rss_growth,
    )
    spans_path = _write_spans(table, f"{workload}-seed{seed}-{time.time_ns()}")
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "design_check": design_check(workload, table, metrics),
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
        "untraced_wall_s": untraced_wall,
        "pool_wall_s": pool_wall,
    }


def _write_spans(t: SpanTable, run_id: str) -> Path:
    results = harness.BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"spans-{run_id}.json.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump(
            {
                "run_id": run_id,
                "columns": ["name", "start", "end", "parent", "base"],
                "names": t.names,
                "name": t.name,
                "start": t.start,
                "end": t.end,
                "parent": t.parent,
                "base": t.base,
            },
            fh,
        )
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--untraced", action="store_true",
                        help="only time an untraced in-process run")
    args = parser.parse_args()
    if args.untraced:
        w = harness.WORKLOADS[args.workload]
        numerals = harness.oracle_numerals(args.seed) if w.name == "oracle" else []
        out = in_process_run(w, numerals)
    else:
        out = traced_run(args.workload, args.seed)
    json.dump(out, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
