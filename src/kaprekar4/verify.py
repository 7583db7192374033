"""Prediction-versus-measurement harness.

``verify_base`` compares the closed-form predictors against the measured
dynamics of one base.  Depth "formulas" checks the two headline numbers
with :func:`judge`, which also gives ``sweep`` its match cells, so both
commands read one verdict rule.  Depth "deep" also exercises the
structural claims behind them (predecessor tables, basin structure, grid
landing bounds, the literal data tables, and integer-level cycle entries).
Mismatches, a rule row missing a candidate among them, are reported as data
(exit 1).  Three faults raise (exit 4): a rule candidate that misses its
target, in :func:`pair_distance_map`'s guard; a pair past the 2n + 8
landing budget, in ``_grid_landings``; and a map level of 254 or more, in
the inversion check.

The deep checks of one base share two results: the distance map, which also
gives the measured numbers, and the step table of :mod:`pairs`.  Every base
builds the map, an empty one when it has no fixed pair, and one check,
labelled by class, holds the pairs the table fixes to the map's start set
plus (0, 0).  The landing check reads the fixed pair and numeral from the
map and the report.  The checks walk pair orbits only through that table,
and read every grid landing, the witnesses' too, from one memo over it.
The walk's guard checks each member of the general rows it takes, and a
member missing from one of them shows as a hole in the map.  The inversion
check derives the general rows of the pairs the walk does not reach and of
the fixed pairs, and checks each against the table by count and image.  It
compares the condensed rules' code image with the table as one array, and
the map with the forward walk in one pass over the distance bytes.

The per-code vectors of the inversion check (preimage counts, distances)
and of the landing memo (steps, cells) are ``bytearray``s, one byte per
pair.  Distances and landing steps hold 255 for "not in the map" and "not
yet landed".  Each vector has its guard: a 256th pair onto one code fails
the inversion check at that code, a map level whose next level would reach
255 raises, and the landing budget is at most 34 steps.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from fractions import Fraction

from .digits import _step_value, check_base, join_digits, to_digits
from .dynamics import (
    BaseReport,
    Cycle,
    PairDistanceMap,
    ZeroSink,
    _pairs_report,
    pair_distance_map,
    trajectory,
)
from .pairs import (
    Pair,
    PairType,
    _canon,
    _code,
    _not_canonical,
    _pair_at,
    _step_table,
    classify_pair,
    condensed_image,
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
    """One numeral value per sorted digit multiset realising ``pair``, each
    in [0, b^4); a pair that is not canonical raises ``ValueError``."""
    # for one shift s the numerals (s+d, s+t+dp, s+t, s) step by b^2 + b in t
    d, dp = pair
    if not 0 <= dp <= d < b:
        _not_canonical(d, dp, b)
    step = b * b + b
    for s in range(b - d):
        first = join_digits((s + d, s + dp, s, s), b)
        yield from range(first, first + (d - dp + 1) * step, step)


def _check_fixed_numeral_landing(b: int, target: Pair, v_fixed: int) -> Check:
    """Numerals on the fixed pair ``target`` step onto the fixed numeral
    ``v_fixed``; numerals on a first-generation predecessor pair never do."""
    # _pair_numerals rejects a pair that is not canonical, so with b checked
    # every numeral lies in [0, b^4) and the unchecked step may take it
    check_base(b)
    for x in _pair_numerals(target, b):
        if _step_value(x, b) != v_fixed:
            return Check("fixed-numeral-landing", False, f"{x} misses the fixed numeral")
    for p in predecessors_of(target, b) - {target}:
        for x in _pair_numerals(p, b):
            if _step_value(x, b) == v_fixed:
                return Check("fixed-numeral-landing", False, f"{x} (pair {p}) short-circuits")
    return Check("fixed-numeral-landing", True)


# a distance byte's level one step further out; 255, "not in the map", stays
_NEXT_LEVEL = bytes(range(1, 256)) + b"\xff"


class _Rows(dict):
    """A stand-in code image: keeps, for each row code, the codes it lists."""

    def __setitem__(self, key: slice, rows) -> None:
        for q, r in enumerate(rows, key.start):
            self.setdefault(r, []).append(q)


def _check_predecessor_inversion(b: int, table: array, pdm: PairDistanceMap) -> Check:
    """The predecessor tables equal a scan of the forward step, and the
    reverse-BFS distance map equals the forward walk.

    A general row is a set and each pair has one image, so the row equals
    the preimage of code c exactly when it has counts[c] members, each of
    them canonical and stepping onto c.  Such a row is derived here only for
    a pair absent from the map, and for each fixed pair.  The walk took every
    other pair's row, and its guard checked each member: canonical, stepping
    onto the pair.  If such a row missed a true preimage q, then q is absent
    from the map while its image is in it, and the distance comparison below
    fails at q.  The one member the walk cannot see is a fixed pair in its
    own row, because the walk seeds that pair; so the fixed rows are derived
    again.  The condensed rules write entry q of a code image with the row
    that lists q.  Every row, the empty ones too, is its preimage exactly
    when each of the n codes is written once and the image equals the
    table; only a failure replays the rules row by row.  A failure names the
    first failing pair in code order, the general rules before the
    condensed ones at the same pair.

    A rule row has a handful of members, so a table that sends 256 or more
    pairs onto one code fails at that code.  A map whose next level would
    reach the 255 of "not in the map" raises ``RuntimeError``; no real map
    comes near, as the largest distance of any base is 61.
    """
    counts = bytearray(len(table))
    try:
        for t in table:
            counts[t] += 1
    except ValueError:  # a 256th pair onto t: no rule row is that long
        return Check("predecessor-inversion", False, f"table wrong at {_pair_at(t)}")
    top = max(pdm.steps.values(), default=0)
    if top >= 254:
        raise RuntimeError(f"distance {top} leaves no byte below the 255 sentinel in base {b}")
    dist = bytearray(b"\xff") * len(table)
    for (x, y), s in pdm.steps.items():
        dist[x * (x + 1) // 2 + y] = s
    fixed = {_code(p) for p in pdm.fixed}

    def misses(row: set[Pair], c: int) -> bool:
        if len(row) != counts[c]:
            return True
        for x, y in row:
            if not 0 <= y <= x < b or table[x * (x + 1) // 2 + y] != c:
                return True
        return False

    # the first failing code of the general rows, derived where ``derive``
    # holds 255: the pairs absent from the map, and the fixed pairs
    derive = bytearray(dist)
    for c in fixed:
        derive[c] = 255
    general = None
    for d in range(b):
        start, end = d * (d + 1) // 2, (d + 1) * (d + 2) // 2
        c = derive.find(255, start, end)
        while c != -1 and not misses(predecessors_of((d, c - start), b), c):
            c = derive.find(255, c + 1, end)
        if c != -1:
            general = c
            break
    # the first wrong row of the condensed rules: n writes, and an image
    # equal to the table, whose entries are codes, so none is the fill n;
    # on failure, the first row whose codes are not its preimage's
    condensed = None
    if b % 4 == 0 and b > 4:
        n = len(table)
        image = array("I", [n]) * n
        if condensed_image(b, image) != n or image != table:
            listed, want = _Rows(), _Rows()
            condensed_image(b, listed)
            want[0:n] = table  # each row lists its preimage, each code once
            bad = [r for r in {*listed, *want} if sorted(listed.get(r, ())) != want.get(r)]
            condensed = _pair_at(min(bad))
    if general is not None and not (condensed and _code(condensed) < general):
        return Check("predecessor-inversion", False, f"table wrong at {_pair_at(general)}")
    if condensed:
        return Check("predecessor-inversion", False, f"condensed rules wrong at {condensed}")
    # The fixed pairs have distance 0 and every other pair is in the map
    # exactly when its image is, one step further out.  Distances then fall
    # by one along each orbit in the map, so it reaches a fixed pair: these
    # rules hold exactly when the map equals the forward walk.
    want = bytearray(map(dist.__getitem__, table)).translate(_NEXT_LEVEL)
    for c in fixed:
        want[c] = 0
    if want != dist:
        c = next(c for c, (w, s) in enumerate(zip(want, dist)) if w != s)
        return Check("predecessor-inversion", False, f"distance map wrong at {_pair_at(c)}")
    return Check("predecessor-inversion", True)


def _h_set(pair: Pair, b: int) -> frozenset[Pair]:
    x, y = pair
    return frozenset({_canon(x, y), _canon(x, b - y), _canon(y, b - x), _canon(b - y, b - x)})


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


def _grid_landings(b: int, n: int, table: array) -> tuple[bytearray, bytearray, bytearray]:
    """The grid landing of every pair code, memoised along the step table.

    Returns the steps to the first grid pair and that grid pair's cell code,
    each indexed by pair code, and each cell's most steps, indexed by cell
    code, as bytes.  A pair whose landing exceeds a
    budget of 2n + 8 steps raises ``RuntimeError``, as
    ``predictions.grid_landing`` does.  The budget is at most 34 (n <= 13),
    so a landing never reaches 255, which marks a pair not yet landed.
    """
    g = b // 5
    budget = 2 * n + 8
    steps = bytearray(b"\xff") * len(table)
    cells = bytearray(len(table))
    worst = bytearray(15)  # each cell's grid pair lands on itself in 0 steps
    for k in range(15):  # cell code k, the grid pair g*(p, q)
        p, q = _pair_at(k)
        steps[_code((p * g, q * g))] = 0
        cells[_code((p * g, q * g))] = k
    path: list[int] = []
    for c in range(len(table)):
        if steps[c] != 255:
            continue
        k = c
        while steps[k] == 255 and len(path) <= budget:
            path.append(k)
            k = table[k]
        s, cell = steps[k], cells[k]
        if s == 255 or s + len(path) > budget:
            raise RuntimeError(
                f"pair {_pair_at(c)} found no grid pair within {budget} steps in base {b}"
            )
        while path:
            s += 1
            k = path.pop()
            steps[k] = s
            cells[k] = cell
        # the path's head, its last step, lands in the most steps
        if s > worst[cell]:
            worst[cell] = s
    return steps, cells, worst


def _grid_checks(b: int, n: int, table: array) -> list[Check]:
    """Landing bounds, data-table rows, and iterate identities for b = 5*2^n."""
    checks = []
    g = 2**n

    # measured landing of every canonical pair, grouped by cell; a cell's
    # code is its index in cell_pairs, which lists the cells in sorted order
    cell_pairs = [_pair_at(k) for k in range(15)]  # 0 <= q <= p <= 4
    bound = [landing_bound(*cell, n) for cell in cell_pairs]
    steps, cells, worst = _grid_landings(b, n, table)
    over: list[Pair] = []
    if any(w > bd for w, bd in zip(worst, bound)):
        over = [_pair_at(c) for c, (s, k) in enumerate(zip(steps, cells)) if s > bound[k]]
    checks.append(_offenders("landing-bounds", "bound exceeded from", over[:4]))

    # arrival table: each grid cell's first return to the grid is one step
    # onto its image, then the image's landing
    detail = ""
    for p, q in cell_pairs:
        s, cell = grid_arrival(p, q, n)
        t = table[_code((p * g, q * g))]
        got, (x, y) = steps[t] + 1, _pair_at(cells[t])
        if (x, y) != cell:
            detail = f"cell ({p},{q}) reaches {(x * g, y * g)}, table says {cell}"
        elif got != s:
            detail = f"cell ({p},{q}) first returns at step {got}, table says {s}"
        if detail:
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
    for start, s, cell in landing_witnesses(n):
        c = _code(start)
        measured = (steps[c], _pair_at(cells[c]))
        if measured != (s, cell):
            detail = f"start {start}: measured {measured}, stated {(s, cell)}"
            break
    checks.append(Check("landing-witnesses", not detail, detail))

    unattained = [cell for cell, w, bd in zip(cell_pairs, worst, bound) if w != bd]
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
    starts.extend(start for start, _, c in landing_witnesses(n) if c == cell)
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
                    ok = t.terminal.entry_step == bound if exact else t.terminal.entry_step <= bound
            if not ok:
                detail = f"cell {cell}: start {value} gives {t.terminal}, tabulated {bound}"
                return Check("cycle-rows", False, detail)
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
    # the deep checks validate the very map that gives the measured numbers
    pdm = pair_distance_map(b)
    report = _pairs_report(pdm)
    out = judge(report)
    if depth != "deep":
        return out

    table = _step_table(b)
    if pdm.fixed:
        out.checks.append(_check_predecessor_inversion(b, table, pdm))
    # the walk must start from every non-zero pair the table fixes
    self_fixed = {_pair_at(c) for c, t in enumerate(table) if c == t}
    ok = self_fixed == {(0, 0), *pdm.fixed}
    detail = "" if ok else f"self-fixed pairs {self_fixed}"
    match classify_base(b):
        case NoFixedPoint():
            out.checks.append(Check("no-fixed-numeral", ok, detail))
        case TwoOrFour():
            fixed = report.fixed_numerals
            out.checks.append(
                Check("fixed-numerals-exist", ok and bool(fixed), f"fixed numerals {fixed}")
            )
        case FiveMultiple(m=m, n=n):
            (target,), (v_fixed,) = pdm.fixed, report.fixed_numerals  # exactly one each
            out.checks += [
                Check("fixed-pair-unique", ok, detail),
                _check_fixed_numeral_landing(b, target, v_fixed),
            ]
            if m > 1:
                out.checks.extend(_basin_structure_checks(b, m, n, pdm))
            elif n >= 2:
                out.checks.extend(_grid_checks(b, n, table))
    return out
