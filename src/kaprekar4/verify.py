"""Prediction-versus-measurement harness.

``verify_base`` compares the closed-form predictors against the measured
dynamics of one base.  Depth "formulas" checks the two headline numbers
with :func:`judge`, which also gives ``sweep`` its match cells, so both
commands read one verdict rule.  Depth "deep" also exercises the
structural claims behind them (predecessor tables, basin structure, grid
landing bounds, the literal data tables, and integer-level cycle entries).
Mismatches, a rule row missing a candidate among them, are reported as data
(exit 1).  Two faults raise (exit 4): a rule candidate that misses its
target, in :func:`pair_distance_map`'s guard, and a pair past the 2n + 8
landing budget, in ``_grid_landings``.

The deep checks of one base share two results: the distance map, which also
gives the measured numbers, and the step table of :mod:`pairs`.  The checks
walk pair orbits only through that table, and read every grid landing, the
witnesses' too, from one memo over it.  Each general predecessor rule row is
checked against the table by count and image, and each condensed row
against the general one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .digits import join_digits, step_value, to_digits
from .dynamics import (
    BaseReport,
    Cycle,
    PairDistanceMap,
    ZeroSink,
    _pairs_report,
    base_report,
    fixed_numeral_value,
    pair_distance_map,
    trajectory,
)
from .pairs import (
    Pair,
    PairType,
    _canon,
    _code,
    _pair_at,
    _step_table,
    classify_pair,
    condensed_predecessors_of,
    fixed_pair,
    predecessors_of,
)
from .predictions import (
    FiveMultiple,
    NoFixedPoint,
    TwoOrFour,
    classify_base,
    predict_convergent_fraction,
    predict_max_distance,
)
from .tables import (
    cell_step_bound,
    cycle_cells,
    grid_arrival,
    landing_bound,
    landing_witnesses,
    max_total_steps,
)

DEPTHS = ("formulas", "deep")

MATCH = "match"
MISMATCH = "mismatch"
NOT_PREDICTED = "not-predicted"


@dataclass
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class PredictionReport:
    """One base's predictions against its measurements.

    The fields are the keys of a report in ``verify --format json``, with
    the fractions rendered as ``p/q`` and ``all_match`` added.
    """

    base: int
    predicted_max_distance: int | None
    measured_max_distance: int | None
    max_distance_verdict: str
    predicted_fraction: Fraction | None
    measured_fraction: Fraction | None
    fraction_verdict: str
    checks: list[Check] = field(default_factory=list)

    @property
    def all_match(self) -> bool:
        return (
            self.max_distance_verdict != MISMATCH
            and self.fraction_verdict != MISMATCH
            and all(c.passed for c in self.checks)
        )


def _verdict(predicted, measured) -> str:
    if predicted is None:
        return NOT_PREDICTED
    return MATCH if predicted == measured else MISMATCH


# ---------------------------------------------------------------------------
# Deep checks
# ---------------------------------------------------------------------------


def _offenders(label: str, what: str, offenders: list) -> Check:
    """Passes when ``offenders`` is empty; otherwise lists them after ``what``."""
    return Check(label, not offenders, f"{what} {offenders}" if offenders else "")


def _pair_numerals(pair: Pair, b: int):
    """One numeral value per sorted digit multiset realising ``pair``."""
    # for one shift s the numerals (s+d, s+t+dp, s+t, s) step by b^2 + b in t
    d, dp = pair
    step = b * b + b
    for s in range(b - d):
        first = join_digits((s + d, s + dp, s, s), b)
        yield from range(first, first + (d - dp + 1) * step, step)


def _check_fixed_numeral_landing(b: int) -> Check:
    """Numerals on the fixed pair step onto the fixed numeral; numerals on a
    first-generation predecessor pair never do."""
    target = fixed_pair(b)
    v_fixed = fixed_numeral_value(b)
    for x in _pair_numerals(target, b):
        if step_value(x, b) != v_fixed:
            return Check("fixed-numeral-landing", False, f"{x} misses the fixed numeral")
    for p in predecessors_of(target, b) - {target}:
        for x in _pair_numerals(p, b):
            if step_value(x, b) == v_fixed:
                return Check(
                    "fixed-numeral-landing", False, f"{x} (pair {p}) short-circuits"
                )
    return Check("fixed-numeral-landing", True)


def _check_predecessor_inversion(
    b: int, table: array, pdm: PairDistanceMap | None
) -> Check:
    """The predecessor tables equal a scan of the forward step and, when
    5 | b, the reverse-BFS distance map equals the forward walk."""
    # A rule row is a set and each pair has one image, so the row equals the
    # preimage of code c exactly when it has counts[c] members, each of them
    # canonical and stepping onto c.  A condensed row is then right exactly
    # when it equals the general row.
    counts = array("l", [0]) * len(table)
    for t in table:
        counts[t] += 1
    condensed = b % 4 == 0 and b > 4
    c = 0
    for d in range(b):
        for dp in range(d + 1):
            p = (d, dp)
            row = predecessors_of(p, b)
            if len(row) != counts[c]:
                return Check("predecessor-inversion", False, f"table wrong at {p}")
            for x, y in row:
                if not 0 <= y <= x < b or table[x * (x + 1) // 2 + y] != c:
                    return Check("predecessor-inversion", False, f"table wrong at {p}")
            if condensed and condensed_predecessors_of(p, b) != row:
                return Check("predecessor-inversion", False, f"condensed rules wrong at {p}")
            c += 1
    if pdm is not None:
        # The fixed pair has distance 0 and every other pair is in the map
        # exactly when its image is, one step further out.  Distances then
        # fall by one along each orbit in the map, so it reaches the fixed
        # pair: these rules hold exactly when the map equals the forward walk.
        dist = array("l", [-1]) * len(table)
        for (x, y), s in pdm.steps.items():
            dist[x * (x + 1) // 2 + y] = s
        fixed = _code(pdm.fixed)
        for c, t in enumerate(table):
            s = dist[t]
            want = 0 if c == fixed else -1 if s < 0 else s + 1
            if dist[c] != want:
                return Check(
                    "predecessor-inversion", False, f"distance map wrong at {_pair_at(c)}"
                )
    return Check("predecessor-inversion", True)


def _check_self_fixed(label: str, table: array, expected: set[Pair]) -> Check:
    """The pairs the step table maps to themselves are exactly ``expected``."""
    self_fixed = {_pair_at(c) for c, t in enumerate(table) if c == t}
    ok = self_fixed == expected
    return Check(label, ok, "" if ok else f"self-fixed pairs {self_fixed}")


def _h_set(pair: Pair, b: int) -> frozenset[Pair]:
    x, y = pair
    return frozenset(
        {_canon(x, y), _canon(x, b - y), _canon(y, b - x), _canon(b - y, b - x)}
    )


def _basin_structure_checks(b: int, m: int, n: int, pdm: PairDistanceMap) -> list[Check]:
    """Structural claims about the fixed pair's predecessor closure, m > 1."""
    closure = set(pdm.steps)
    bad_type = sorted(p for p in closure if classify_pair(p, b) is not PairType.A)
    bad_mult = sorted(p for p in closure if p[0] % m or p[1] % m)
    expected = 4 ** (n + 1)
    checks = [
        _offenders("basin-pairs-type-a", "non-(a) pairs", bad_type[:4]),
        _offenders("basin-coordinates-multiples", f"coords not multiples of {m}:", bad_mult[:4]),
        Check(
            "basin-pair-count",
            len(closure) == expected,
            f"{len(closure)} pairs, expected {expected}",
        ),
    ]

    families = {_h_set(p, b) for p in closure}
    covered: set[Pair] = set()
    detail = ""
    for fam in families:
        if len(fam) != 4 or not fam <= closure or fam & covered:
            detail = f"family {sorted(fam)} breaks the partition"
            break
        covered |= fam
    if not detail and covered != closure:
        detail = "families do not cover the closure"
    checks.append(Check("basin-four-families", not detail, detail))
    return checks


def _orbit(pair: Pair, steps: int, table: array) -> list[Pair]:
    """``pair`` and its first ``steps`` images, read off the step table."""
    codes = [_code(pair)]
    for _ in range(steps):
        codes.append(table[codes[-1]])
    return [_pair_at(c) for c in codes]


def _grid_landings(b: int, n: int, table: array) -> tuple[array, array]:
    """The grid landing of every pair code, memoised along the step table.

    Returns the steps to the first grid pair and that grid pair's cell code,
    each indexed by pair code.  A pair whose landing exceeds a budget of
    2n + 8 steps raises ``RuntimeError``, as ``predictions.grid_landing`` does.
    """
    g = b // 5
    budget = 2 * n + 8
    steps = array("l", [-1]) * len(table)
    cells = array("l", [0]) * len(table)
    for p in range(5):
        for q in range(p + 1):
            c = _code((p * g, q * g))
            steps[c] = 0
            cells[c] = _code((p, q))
    path: list[int] = []
    for c in range(len(table)):
        k = c
        while steps[k] < 0 and len(path) <= budget:
            path.append(k)
            k = table[k]
        s, cell = steps[k], cells[k]
        if s < 0 or s + len(path) > budget:
            raise RuntimeError(
                f"pair {_pair_at(c)} found no grid pair within {budget} steps in base {b}"
            )
        while path:
            s += 1
            k = path.pop()
            steps[k] = s
            cells[k] = cell
    return steps, cells


def _grid_checks(b: int, n: int, table: array) -> list[Check]:
    """Landing bounds, data-table rows, and iterate identities for b = 5*2^n."""
    checks = []
    g = 2**n

    # measured landing of every canonical pair, grouped by cell; a cell's
    # code is its index in cell_pairs, which lists the cells in sorted order
    cell_pairs = [_pair_at(k) for k in range(15)]  # 0 <= q <= p <= 4
    bound = [landing_bound(*cell, n) for cell in cell_pairs]
    worst = [-1] * len(cell_pairs)
    over: list[Pair] = []
    steps, cells = _grid_landings(b, n, table)
    for c, (s, k) in enumerate(zip(steps, cells)):
        if s > bound[k]:
            over.append(_pair_at(c))
        if s > worst[k]:
            worst[k] = s
    checks.append(_offenders("landing-bounds", "bound exceeded from", over[:4]))

    # arrival table: iterate each grid cell the stated number of steps
    detail = ""
    for p, q in cell_pairs:
        entry = grid_arrival(p, q, n)
        cur = _orbit((p * g, q * g), entry.steps, table)[-1]
        if cur != (entry.cell[0] * g, entry.cell[1] * g):
            detail = f"cell ({p},{q}) reaches {cur}, table says {entry.cell}"
            break
    checks.append(Check("grid-arrival-table", not detail, detail))

    # iterate identities along the two slow approach chains
    orbit = _orbit((1, 1), n + 1, table)
    ok = all(orbit[t] == (b - 2 ** (t - 1), b - 3 * 2 ** (t - 1)) for t in range(1, n + 2))
    checks.append(Check("iterates-from-(1,1)", ok))
    orbit = _orbit((1, 0), n + 2, table)
    ok = all(orbit[t] == (b - 2 ** (t - 2), b - 2 ** (t - 1)) for t in range(3, n + 3))
    checks.append(Check("iterates-from-(1,0)", ok))

    if n < 5:
        return checks

    # tightness: witness rows, per-cell attainment, column maxima, cycle rows
    detail = ""
    for w in landing_witnesses(n):
        c = _code(w.start)
        measured = (steps[c], _pair_at(cells[c]))
        if measured != (w.steps, w.cell):
            detail = f"start {w.start}: measured {measured}, stated {(w.steps, w.cell)}"
            break
    checks.append(Check("landing-witnesses", not detail, detail))

    unattained = [
        cell for cell, w, bd in zip(cell_pairs, worst, bound) if w >= 0 and w != bd
    ]
    checks.append(_offenders("landing-attainment", "bound not attained for cells", unattained))

    predicted = predict_max_distance(b)
    column_max = max_total_steps(n)
    checks.append(
        Check(
            "cell-bound-column-max",
            column_max == predicted,
            f"column max {column_max}, predicted distance {predicted}",
        )
    )
    checks.append(_check_cycle_rows(b, n, table))
    return checks


def _on_cycle(code: int, table: array) -> bool:
    """Whether ``code`` lies on a loop of the step table: Floyd's search meets
    the loop its orbit ends in, and one turn of that loop is walked."""
    slow, fast = table[code], table[table[code]]
    while slow != fast:
        slow, fast = table[slow], table[table[fast]]
    k = table[slow]
    while k != slow and k != code:
        k = table[k]
    return k == code


def _cycle_row_representatives(cell: Pair, b: int, n: int) -> list[int]:
    g = 2**n
    if cell == (0, 0):
        repunit = join_digits((1, 1, 1, 1), b)
        return [repunit, 2 * repunit]
    starts = [(cell[0] * g, cell[1] * g)]
    starts.extend(w.start for w in landing_witnesses(n) if w.cell == cell)
    values = []
    for d, dp in starts:
        values.append(join_digits((d, dp, 0, 0), b))
        if d + 1 < b:
            values.append(join_digits((d + 1, dp + 1, 1, 1), b))  # shifted carrier
    return values


def _check_cycle_rows(b: int, n: int, table: array) -> Check:
    """Cycle-marked cells: sampled orbits must turn periodic within the
    tabulated step count.

    When the cell's grid pair sits off the loop itself, the count is exactly
    attained by any carrier of that pair and equality is required.  When the
    grid pair is a member of the loop, worst-case orbits provably turn
    periodic one or more steps before the tabulated count (they merge into
    the loop just before landing on the grid), so only the bound is asserted
    and the measured entries are reported.
    """
    details = []
    g = 2**n
    for cell in cycle_cells(n):
        bound = cell_step_bound(*cell, n)
        exact = cell != (0, 0) and not _on_cycle(_code((cell[0] * g, cell[1] * g)), table)
        entries = []
        for value in _cycle_row_representatives(cell, b, n):
            t = trajectory(to_digits(value, b))
            if cell == (0, 0):
                ok = isinstance(t.terminal, ZeroSink) and len(t.states) - 1 == bound
                entries.append(len(t.states) - 1)
            else:
                ok = isinstance(t.terminal, Cycle) and t.terminal.period >= 2
                if ok:
                    entries.append(t.terminal.entry_step)
                    if exact:
                        ok = t.terminal.entry_step == bound
                    else:
                        ok = t.terminal.entry_step <= bound
            if not ok:
                return Check(
                    "cycle-rows",
                    False,
                    f"cell {cell}: start {value} gives {t.terminal}, tabulated {bound}",
                )
        details.append(f"{cell}: entries {sorted(set(entries))} within {bound}")
    return Check("cycle-rows", True, "; ".join(details))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def judge(report: BaseReport) -> PredictionReport:
    """The two predictions of ``report.base`` against ``report``, no checks.

    A report with no fixed numeral has no measured fraction.
    """
    b = report.base
    measured_max = report.max_distance
    measured_fraction = report.convergent_fraction if report.fixed_numerals else None
    predicted_max = predict_max_distance(b)
    predicted_fraction = predict_convergent_fraction(b)
    return PredictionReport(
        base=b,
        predicted_max_distance=predicted_max,
        measured_max_distance=measured_max,
        max_distance_verdict=_verdict(predicted_max, measured_max),
        predicted_fraction=predicted_fraction,
        measured_fraction=measured_fraction,
        fraction_verdict=_verdict(predicted_fraction, measured_fraction),
    )


def verify_base(b: int, depth: str = "formulas") -> PredictionReport:
    if depth not in DEPTHS:
        raise ValueError(f"depth must be one of {DEPTHS}, got {depth!r}")
    cls = classify_base(b)
    # the deep checks validate the very map that gives the measured numbers
    pdm = pair_distance_map(b) if isinstance(cls, FiveMultiple) else None
    report = base_report(b) if pdm is None else _pairs_report(pdm)
    out = judge(report)
    if depth != "deep":
        return out

    table = _step_table(b)
    match cls:
        case NoFixedPoint():
            out.checks.append(_check_self_fixed("no-fixed-numeral", table, {(0, 0)}))
        case TwoOrFour():
            fixed = report.fixed_numerals
            out.checks += [
                _check_predecessor_inversion(b, table, None),
                Check("fixed-numerals-exist", bool(fixed), f"fixed numerals {fixed}"),
            ]
        case FiveMultiple(m=m, n=n):
            out.checks += [
                _check_predecessor_inversion(b, table, pdm),
                _check_self_fixed("fixed-pair-unique", table, {(0, 0), fixed_pair(b)}),
                _check_fixed_numeral_landing(b),
            ]
            if m > 1:
                out.checks.extend(_basin_structure_checks(b, m, n, pdm))
            elif n >= 2:
                out.checks.extend(_grid_checks(b, n, table))
    return out
