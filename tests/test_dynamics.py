import random

import pytest

from kaprekar4.digits import DigitQuad, join_digits, to_digits
from kaprekar4.dynamics import (
    BaseReport,
    Cycle,
    FixedNumeral,
    PairDistanceMap,
    UndeterminedOrbitError,
    ZeroSink,
    _orbit_report,
    base_report,
    fixed_numeral_value,
    integer_distance,
    pair_distance_map,
    trajectory,
    work_estimate,
)
from kaprekar4.pairs import fixed_pair, pair_count, step_pair
from kaprekar4.predictions import FiveMultiple, NoFixedPoint, TwoOrFour, classify_base
from oracles import (
    canonical_pairs,
    full_report,
    oracle_distance,
    oracle_pair_distances,
    oracle_step,
    zero_orbit_values,
)


def test_worked_chain_from_0889():
    t = trajectory(to_digits(889, 10))
    assert [s.value for s in t.states] == [889, 8991, 8082, 8532, 6174]
    assert t.terminal == FixedNumeral(6174)
    assert t.distance == 4


def test_repdigit_reaches_zero_sink():
    t = trajectory(DigitQuad(10, (5, 5, 5, 5)))
    assert t.terminal == ZeroSink()
    assert [s.value for s in t.states] == [5555, 0]
    assert t.distance is None


def test_zero_start():
    t = trajectory(to_digits(0, 10))
    assert t.terminal == ZeroSink()
    assert len(t.states) == 1


def test_base5_orbit_of_one():
    t = trajectory(to_digits(1, 5))
    assert [s.value for s in t.states] == [1, 124, 496, 392]
    assert t.terminal == FixedNumeral(392)
    assert t.distance == 3  # within the base-5 worst case of 4


def test_start_at_fixed_numeral():
    t = trajectory(to_digits(6174, 10))
    assert t.distance == 0
    assert len(t.states) == 1


def test_cycle_terminal_base_20():
    t = trajectory(to_digits(64000, 20))  # digits (8,0,0,0)
    assert t.terminal == Cycle(period=6, entry_step=1)
    assert len(t.states) == 7
    # consecutive states follow the step map
    for cur, nxt in zip(t.states, t.states[1:]):
        assert oracle_step(cur.value, 20) == nxt.value


def test_undetermined_orbit():
    with pytest.raises(UndeterminedOrbitError):
        trajectory(to_digits(889, 10), max_steps=1)
    with pytest.raises(ValueError):
        trajectory(to_digits(889, 10), max_steps=0)


def test_unbounded_orbit_ends_within_pair_count():
    # every state after the start is the image of one of the b(b+1)/2
    # difference pairs, so the orbit repeats or ends within that many steps
    for b in range(2, 11):
        longest = max(len(trajectory(to_digits(x, b)).states) - 1 for x in range(b**4))
        assert longest <= b * (b + 1) // 2, b


# ---------------------------------------------------------------------------
# pair distance map
# ---------------------------------------------------------------------------


def test_pair_distance_map_base_10():
    pdm = pair_distance_map(10)
    assert pdm.fixed == (6, 2)
    assert pdm.steps.get((6, 2)) == 0
    assert pdm.steps.get((8, 1)) == 2
    assert pdm.steps.get((9, 0)) == pdm.steps.get((8, 1)) + 1
    assert pdm.steps.get((5, 5)) == 4  # (5,5) -> (1,1) -> (9,7) -> ... -> (6,2)
    assert pdm.steps.get((0, 0)) is None
    assert max(pdm.steps.values()) == 6


def test_pair_distance_map_needs_multiple_of_five():
    with pytest.raises(ValueError):
        pair_distance_map(7)
    with pytest.raises(ValueError):
        pair_distance_map(4)


def test_pair_distances_decrease_along_step():
    for b in (5, 10, 15, 20, 40):
        pdm = pair_distance_map(b)
        for p, s in pdm.steps.items():
            if s > 0:
                assert pdm.steps[step_pair(p, b)] == s - 1


def test_pair_distance_map_matches_forward_walk():
    for b in range(5, 121, 5):
        pdm = pair_distance_map(b)
        assert pdm.steps == oracle_pair_distances(b, pdm.fixed), b


@pytest.mark.parametrize("b, reached", [(10, None), (20, None), (40, None), (320, 38601)])
def test_one_guard_step_per_reached_pair(monkeypatch, b, reached):
    # every pair has one image, so the BFS meets each reached pair, the fixed
    # pair included, once as a candidate and steps it once
    import kaprekar4.dynamics as dynamics_mod

    calls = []

    def counting(pair, base):
        calls.append(pair)
        return step_pair(pair, base)

    monkeypatch.setattr(dynamics_mod, "step_pair", counting)
    pdm = pair_distance_map(b)
    assert len(calls) == len(pdm.steps)
    assert reached is None or len(pdm.steps) == reached


# ---------------------------------------------------------------------------
# integer distance
# ---------------------------------------------------------------------------


def test_work_estimate_bounds_the_pair_route():
    # the CLI plans its pool from this estimate: it may not undercount
    for b in range(5, 401, 5):
        reached = len(pair_distance_map(b).steps)
        estimate = work_estimate(b)
        assert reached <= estimate, b
        if classify_base(b).m > 1:
            assert reached == estimate, b


def test_work_estimate_of_other_routes(monkeypatch):
    # each base runs exactly the route of its class, and its estimate is
    # that route's formula, written here from b alone
    import kaprekar4.dynamics as dynamics_mod

    routes = []

    def orbits(b):
        routes.append("orbits")
        return BaseReport(b, {}, [])

    def pairs(b):
        routes.append("pairs")
        return PairDistanceMap(b, fixed_pair(b), {fixed_pair(b): 0})

    monkeypatch.setattr(dynamics_mod, "_orbit_report", orbits)
    monkeypatch.setattr(dynamics_mod, "pair_distance_map", pairs)
    want_route = {TwoOrFour: ["orbits"], FiveMultiple: ["pairs"], NoFixedPoint: []}
    for b in range(2, 401):
        routes.clear()
        base_report(b)
        assert routes == want_route[type(classify_base(b))], b
        if b in (2, 4):
            want = 10 * b**4
        elif b % 5:
            want = 1
        elif (b // 5) & (b // 5 - 1) == 0:  # b = 5 * 2^n
            want = b * (b + 1) // 2
        else:  # 4^(n+1) for b = 5m * 2^n, m > 1 odd
            want = 4 * (b & -b) ** 2
        assert work_estimate(b) == want, b
    assert [work_estimate(b) for b in (2, 3, 4, 6, 65536)] == [160, 1, 2560, 1, 1]


def test_integer_distance_examples():
    pdm = pair_distance_map(10)
    assert integer_distance(to_digits(6174, 10), pdm) == 0
    assert integer_distance(to_digits(8532, 10), pdm) == 1
    assert integer_distance(to_digits(889, 10), pdm) == 4
    assert integer_distance(to_digits(5555, 10), pdm) is None
    with pytest.raises(ValueError):
        integer_distance(to_digits(1, 5), pdm)


def test_integer_distance_matches_orbit_sampling():
    rng = random.Random(1729)
    for b in (10, 20):
        pdm = pair_distance_map(b)
        fixed = {fixed_numeral_value(b)}
        for _ in range(200):
            x = rng.randrange(b**4)
            assert integer_distance(to_digits(x, b), pdm) == oracle_distance(x, b, fixed)


# ---------------------------------------------------------------------------
# base reports
# ---------------------------------------------------------------------------


def test_base_report_10():
    rep = base_report(10)
    assert rep.max_distance == 7
    assert rep.convergent_count == 9990
    assert rep.fixed_numerals == [6174]
    assert rep.histogram == {0: 1, 1: 383, 2: 576, 3: 2400, 4: 1272, 5: 1518, 6: 1656, 7: 2184}
    assert sum(rep.histogram.values()) == rep.convergent_count
    assert max(rep.histogram) == rep.max_distance


def test_base_report_15():
    rep = base_report(15)
    assert rep.convergent_count == 2160
    assert rep.max_distance == 2


def test_base_report_2_and_4():
    rep2 = base_report(2)
    assert rep2.max_distance == 1
    assert rep2.convergent_count == 14 == 2**4 - 2
    assert rep2.fixed_numerals == [7, 9]

    rep4 = base_report(4)
    assert rep4.max_distance == 3
    assert rep4.convergent_count == 84
    assert rep4.fixed_numerals == [201]
    assert rep4.histogram == {0: 1, 1: 47, 2: 24, 3: 12}


def test_orbit_report_matches_both_oracles():
    from kaprekar4.enumeration import convergence_report

    # field by field, and in the key order the numpy oracle gives
    for b in range(2, 13):
        via_orbits = _orbit_report(b)
        for other in (convergence_report(b), full_report(b)):
            assert via_orbits.base == other.base, b
            assert via_orbits.histogram == other.histogram, b
            assert list(via_orbits.histogram) == list(other.histogram), b
            assert via_orbits.fixed_numerals == other.fixed_numerals, b


def test_base_report_no_fixed_point():
    rep = base_report(6)
    assert rep.max_distance is None
    assert rep.convergent_count == 0
    assert rep.convergent_fraction == 0
    assert rep.histogram == {}
    assert rep.fixed_numerals == []


def test_base_report_methods_agree():
    # every multiple of 5 up to 60, field by field, then 80 (5 * 2^4, whose
    # convergent fraction is not predicted) and 120 (5 * 3 * 2^3)
    for b in (*range(5, 61, 5), 80, 120):
        via_pairs = base_report(b, method="pairs")
        via_enum = base_report(b, method="enumeration")
        assert via_pairs.max_distance == via_enum.max_distance, b
        assert via_pairs.convergent_count == via_enum.convergent_count, b
        assert via_pairs.convergent_fraction == via_enum.convergent_fraction, b
        assert via_pairs.histogram == via_enum.histogram, b
        assert via_pairs.fixed_numerals == via_enum.fixed_numerals, b
    # bases 2 and 4: the orbit walk of "auto" against the numpy oracle
    for b in (2, 4):
        assert base_report(b) == base_report(b, method="enumeration"), b
    with pytest.raises(ValueError):
        base_report(7, method="pairs")
    with pytest.raises(ValueError):
        base_report(7, method="nope")


def test_pair_weighted_histogram_structure():
    # distance-1 bin counts every carrier of the fixed pair except the
    # fixed numeral itself
    for b in (5, 10, 20, 25):
        rep = base_report(b)
        from kaprekar4.pairs import fixed_pair

        assert rep.histogram[1] == pair_count(fixed_pair(b), b) - 1
        assert rep.histogram[0] == 1


def test_distance_histogram():
    hist = base_report(10).histogram
    assert set(hist) <= set(range(8))
    assert sum(hist.values()) == 9990
    hist5 = base_report(5).histogram
    assert set(hist5) <= set(range(5))
    assert sum(hist5.values()) == 620
    assert base_report(6).histogram == {}


# ---------------------------------------------------------------------------
# enumeration-level invariants
# ---------------------------------------------------------------------------


def test_zero_orbits_are_exactly_repdigits():
    for b in (5, 10):
        repunit = join_digits((1, 1, 1, 1), b)
        assert list(zero_orbit_values(b)) == [c * repunit for c in range(b)]


def test_cycles_only_where_expected():
    from kaprekar4.enumeration import distance_table

    # every orbit converges (no cycles) exactly when the convergent set has
    # size b^4 - b: bases 2, and 5 * 2^n with n = 0 or n odd
    cases = (
        (2, False),
        (4, True),
        (5, False),
        (10, False),
        (15, True),
        (20, True),
        (30, True),
        (40, False),
    )
    for b, expect_cycles in cases:
        _, counts, dist, _ = distance_table(b)
        # a value stays out exactly when its image does
        unresolved = int(counts[dist < 0].sum()) - len(zero_orbit_values(b))
        assert (unresolved > 0) == expect_cycles, b


def test_all_canonical_pairs_realised():
    for b in (3, 11):
        for p in canonical_pairs(b):
            assert pair_count(p, b) >= 1
