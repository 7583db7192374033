"""Orbit analysis: trajectories, distance maps over the pair graph, and
per-base convergence statistics.

Each base takes the route of its :func:`~kaprekar4.predictions.classify_base`
class.  ``FiveMultiple``: the pair graph is walked backwards from the fixed
pair and each pair is weighted by how many numerals carry it.  ``TwoOrFour``
(16 and 256 numerals): every integer orbit is run with :func:`trajectory`.
``NoFixedPoint``: an empty report.  The numpy oracle in
:mod:`kaprekar4.enumeration` is a third, independent route, run only on
demand (``method="enumeration"``) and by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digits import DigitQuad, join_digits, step_value, to_digits
from .pairs import (
    Pair,
    fixed_pair,
    pair_count,
    predecessors_of,
    step_pair,
)
from .predictions import FiveMultiple, NoFixedPoint, TwoOrFour, classify_base


@dataclass(frozen=True)
class FixedNumeral:
    """Orbit ends on a non-zero numeral equal to its own image."""

    value: int


@dataclass(frozen=True)
class ZeroSink:
    """Orbit falls into the all-zero numeral."""


@dataclass(frozen=True)
class Cycle:
    """Orbit enters a cycle of period >= 2 after ``entry_step`` steps."""

    period: int
    entry_step: int


Terminal = FixedNumeral | ZeroSink | Cycle


class UndeterminedOrbitError(RuntimeError):
    """An orbit neither repeated nor reached a fixed value within ``max_steps``."""


@dataclass
class Trajectory:
    states: list[DigitQuad]
    terminal: Terminal
    distance: int | None


def trajectory(start: DigitQuad, max_steps: int | None = None) -> Trajectory:
    """Full orbit of ``start`` with a terminal verdict.

    ``distance`` is set only for fixed-numeral terminals: the number of steps
    until the fixed numeral first appears.  The state list stops at the fixed
    numeral, or just before the first repeated state.

    With ``max_steps`` None the orbit runs until it first repeats.  That
    takes at most b(b+1)/2 steps: every state after the start is the image
    of one of the b(b+1)/2 difference pairs.
    """
    b = start.base
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    values = [start.value]
    seen = {start.value: 0}
    terminal: Terminal
    distance: int | None = None
    while True:
        cur = values[-1]
        nxt = step_value(cur, b)
        if nxt == cur:
            if cur == 0:
                terminal = ZeroSink()
            else:
                terminal = FixedNumeral(cur)
                distance = len(values) - 1
            break
        if nxt in seen:
            entry = seen[nxt]
            terminal = Cycle(period=len(values) - entry, entry_step=entry)
            break
        if max_steps is not None and len(values) - 1 >= max_steps:
            raise UndeterminedOrbitError(
                f"orbit of {start.value} in base {b} undetermined after {max_steps} steps"
            )
        seen[nxt] = len(values)
        values.append(nxt)

    states = [to_digits(v, b) for v in values]
    return Trajectory(states=states, terminal=terminal, distance=distance)


# ---------------------------------------------------------------------------
# Pair-graph distances
# ---------------------------------------------------------------------------


@dataclass
class PairDistanceMap:
    """Least step counts from each canonical pair to the fixed pair.

    Pairs whose orbit never reaches the fixed pair are simply absent from
    ``steps``.
    """

    base: int
    fixed: Pair
    steps: dict[Pair, int]


def pair_distance_map(b: int) -> PairDistanceMap:
    """Reverse breadth-first distances to the fixed pair; needs 5 | b.

    One guard step per reached pair: a candidate predecessor that is not
    canonical or does not step onto its target raises ``RuntimeError``.
    ``verify --depth deep`` checks the map against the forward pair step.
    For bases 2 and 4 there is no fixed pair; :func:`base_report` runs
    their integer orbits instead.
    """
    target = fixed_pair(b)
    steps: dict[Pair, int] = {target: 0}
    frontier = [target]
    s = 0  # each frontier is one BFS level: its new pairs lie s steps out
    while frontier:
        s += 1
        nxt: list[Pair] = []
        for p in frontier:
            for q in predecessors_of(p, b):
                if not 0 <= q[1] <= q[0] < b or step_pair(q, b) != p:
                    raise RuntimeError(f"predecessor {q} of {p} misses it in base {b}")
                if q not in steps:
                    steps[q] = s
                    nxt.append(q)
        frontier = nxt
    return PairDistanceMap(base=b, fixed=target, steps=steps)


def fixed_numeral_value(b: int) -> int:
    """The unique non-zero fixed numeral for 5 | b.

    Computed as the one-step image of any numeral carrying the fixed pair,
    not from a digit formula, so it stays independent of the closed-form
    predictors.
    """
    d, dp = fixed_pair(b)
    representative = join_digits((d, dp, 0, 0), b)
    return step_value(representative, b)


# ---------------------------------------------------------------------------
# Per-base statistics
# ---------------------------------------------------------------------------


@dataclass
class BaseReport:
    """Convergence statistics of one base.

    A report stores the distance histogram (distance -> how many numerals
    lie that many steps from a non-zero fixed numeral) and the fixed
    numerals; the maximum distance, the convergent count and the convergent
    fraction are derived from the histogram.
    """

    base: int
    histogram: dict[int, int]
    fixed_numerals: list[int]

    @property
    def max_distance(self) -> int | None:
        """None when no non-zero fixed numeral exists."""
        return max(self.histogram, default=None)

    @property
    def convergent_count(self) -> int:
        return sum(self.histogram.values())

    @property
    def convergent_fraction(self) -> Fraction:
        return Fraction(self.convergent_count, self.base**4)


def _pairs_report(pdm: PairDistanceMap) -> BaseReport:
    b = pdm.base
    hist: dict[int, int] = {0: 1, 1: pair_count(pdm.fixed, b) - 1}
    for p, s in pdm.steps.items():
        if p == pdm.fixed:
            continue
        hist[s + 1] = hist.get(s + 1, 0) + pair_count(p, b)
    return BaseReport(b, dict(sorted(hist.items())), [fixed_numeral_value(b)])


def _orbit_report(b: int) -> BaseReport:
    """BaseReport from the trajectory of every numeral; for bases 2 and 4."""
    hist: dict[int, int] = {}
    fixed: set[int] = set()
    for v in range(b**4):
        t = trajectory(to_digits(v, b))
        if isinstance(t.terminal, FixedNumeral):
            hist[t.distance] = hist.get(t.distance, 0) + 1
            fixed.add(t.terminal.value)
    return BaseReport(b, dict(sorted(hist.items())), sorted(fixed))


def base_report(b: int, method: str = "auto") -> BaseReport:
    """Convergence statistics for one base.

    method:
      - "auto": the route of the base's class: pair-weighted counting for
        ``FiveMultiple``, the trajectory of every numeral for ``TwoOrFour``,
        an empty report for ``NoFixedPoint``.
      - "pairs": force the pair route (multiples of 5 only).
      - "enumeration": force the brute-force numpy oracle.
    """
    cls = classify_base(b)
    if method not in ("auto", "pairs", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    if method == "enumeration":
        from .enumeration import convergence_report

        return convergence_report(b)
    if method == "pairs" or isinstance(cls, FiveMultiple):
        return _pairs_report(pair_distance_map(b))
    if isinstance(cls, TwoOrFour):
        return _orbit_report(b)
    return BaseReport(b, {}, [])


def work_estimate(b: int) -> int:
    """Units of work ``base_report(b)`` does on its route.

    A unit is one reached pair for ``FiveMultiple``: at most b(b+1)/2 when
    m = 1, exactly 4^(n+1) when m > 1.  It costs ~1-3.5 us.  ``TwoOrFour``
    counts 10 per numeral, about what its integer orbits cost;
    ``NoFixedPoint`` counts 1.
    """
    cls = classify_base(b)
    if isinstance(cls, TwoOrFour):
        return 10 * b**4
    if isinstance(cls, NoFixedPoint):
        return 1
    return b * (b + 1) // 2 if cls.m == 1 else 4 ** (cls.n + 1)
