"""Orbit analysis: trajectories, distance maps over the pair graph, and
per-base convergence statistics.

Every base takes one route: the pair graph is walked backwards from its
start set, the non-zero pairs that are their own image, and each pair is
weighted by how many numerals carry it; the report steps the set's
carriers to the fixed numerals.  :func:`~kaprekar4.predictions.classify_base`
picks the set: (3b/5, b/5) for ``FiveMultiple``, the fixed pair's one
home, a scan for ``TwoOrFour``, none for ``NoFixedPoint``.  A trajectory
derives its distance from its orbit.  The numpy oracle of
:mod:`kaprekar4.enumeration`, an independent route, runs only on demand
(``method="enumeration"``) and in the tests.  It only measures; ``cli`` prices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .digits import DigitQuad, join_digits, step_value, to_digits
from .pairs import Pair, pair_count, predecessors_of, step_pair
from .predictions import FiveMultiple, TwoOrFour, classify_base


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

    @property
    def distance(self) -> int | None:
        """Steps until the fixed numeral first appears; None for other terminals."""
        return len(self.states) - 1 if isinstance(self.terminal, FixedNumeral) else None


def trajectory(start: DigitQuad, max_steps: int | None = None) -> Trajectory:
    """Full orbit of ``start`` with a terminal verdict.

    The state list stops at the fixed numeral, or just before the first
    repeated state.

    With ``max_steps`` None the orbit runs until it first repeats.  That
    takes at most b(b+1)/2 steps: every state after the start is the image
    of one of the b(b+1)/2 difference pairs.
    """
    b = start.base
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    # the orbit in order, each value mapped to its step index
    seen = {start.value: 0}
    cur = start.value
    terminal: Terminal
    while True:
        nxt = step_value(cur, b)
        if nxt == cur:
            terminal = FixedNumeral(cur) if cur else ZeroSink()
            break
        if nxt in seen:
            entry = seen[nxt]
            terminal = Cycle(period=len(seen) - entry, entry_step=entry)
            break
        if max_steps is not None and len(seen) - 1 >= max_steps:
            raise UndeterminedOrbitError(
                f"orbit of {start.value} in base {b} undetermined after {max_steps} steps"
            )
        seen[nxt] = len(seen)
        cur = nxt

    return Trajectory(states=[to_digits(v, b) for v in seen], terminal=terminal)


# ---------------------------------------------------------------------------
# Pair-graph distances
# ---------------------------------------------------------------------------


@dataclass
class PairDistanceMap:
    """Least step counts from each canonical pair to the nearest fixed pair.

    ``fixed`` lists the non-zero pairs that are their own image, in code
    order.  Pairs whose orbit never reaches one are simply absent from
    ``steps``.
    """

    base: int
    fixed: tuple[Pair, ...]
    steps: dict[Pair, int]


def _fixed_pairs(b: int) -> tuple[Pair, ...]:
    """The non-zero pairs that are their own image: (3b/5, b/5) for 5 | b, a
    scan of every pair for bases 2 and 4, none for other bases."""
    cls = classify_base(b)
    if isinstance(cls, TwoOrFour):
        pairs = ((d, dp) for d in range(1, b) for dp in range(d + 1))
        return tuple(p for p in pairs if step_pair(p, b) == p)
    return ((3 * b // 5, b // 5),) if isinstance(cls, FiveMultiple) else ()


def pair_distance_map(b: int) -> PairDistanceMap:
    """Reverse breadth-first distances to the fixed pairs, walked one level
    at a time; empty for a base with no fixed numeral, which has no fixed
    pair to start from.

    One guard step per reached pair: a candidate predecessor that is not
    canonical or does not step onto its target raises ``RuntimeError``.
    ``verify --depth deep`` checks the map against the forward pair step.
    """
    fixed = _fixed_pairs(b)
    steps = dict.fromkeys(fixed, 0)
    level, s = list(fixed), 0
    while level:
        s += 1
        nxt = []
        for p in level:
            for q in predecessors_of(p, b):
                if not 0 <= q[1] <= q[0] < b or step_pair(q, b) != p:
                    raise RuntimeError(f"predecessor {q} of {p} misses it in base {b}")
                if q not in steps:
                    steps[q] = s
                    nxt.append(q)
        level = nxt
    return PairDistanceMap(base=b, fixed=fixed, steps=steps)


def fixed_numerals(b: int) -> list[int]:
    """The non-zero fixed numerals of base ``b``, ascending; [] when it has none.

    Each is the one-step image of a numeral carrying one of the fixed pairs,
    not a digit formula, so it stays independent of the closed-form
    predictors.  A value that is not its own image raises ``RuntimeError``.
    """
    return _carried_fixed_numerals(_fixed_pairs(b), b)


def _carried_fixed_numerals(fixed: tuple[Pair, ...], b: int) -> list[int]:
    values = [step_value(join_digits((*p, 0, 0), b), b) for p in fixed]
    for p, v in zip(fixed, values):
        if step_value(v, b) != v:
            raise RuntimeError(f"pair {p} gives {v}, not a fixed numeral of base {b}")
    return values


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
    hist: dict[int, int] = {}
    for p, s in pdm.steps.items():
        hist[s + 1] = hist.get(s + 1, 0) + pair_count(p, b)
    if pdm.fixed:
        # a fixed numeral carries its fixed pair but lies 0 steps out, not 1
        hist[1] -= len(pdm.fixed)
        hist[0] = len(pdm.fixed)
    return BaseReport(b, dict(sorted(hist.items())), _carried_fixed_numerals(pdm.fixed, b))


def base_report(b: int, method: str = "pairs") -> BaseReport:
    """Convergence statistics for one base.

    method:
      - "pairs": pair-weighted counting over the walk from the fixed pairs;
        a base with none gets an empty report.
      - "enumeration": force the brute-force numpy oracle.
    """
    if method not in ("pairs", "enumeration"):
        raise ValueError(f"unknown method {method!r}")
    if method == "enumeration":
        from .enumeration import convergence_report

        return convergence_report(b)
    return _pairs_report(pair_distance_map(b))

