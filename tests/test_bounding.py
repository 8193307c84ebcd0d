from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxbounds.bounding import (
    BooleanSystem,
    BoundPair,
    LpProblem,
    LpResult,
    atleast_r_bounds,
    boolean_lp_bounds,
    boolean_system_from_boxes,
    exactly_r_bounds,
    hunter_worsley_upper,
    pairwise_probabilities,
    q_atleast_bounds,
    q_exactly_bounds,
    solve_lp,
    union_bounds,
)
from boxbounds.errors import InfeasibleBoundsError, InputError
from boxbounds.geometry import Box
from boxbounds.measure import ProductMeasure
from boxbounds.oracle import exact_count_distribution
from boxbounds.screening import MomentVector, binomial_moments

from helpers import (
    dawson_sankoff_lower,
    lp_optimum_by_vertex_enumeration,
    moments_from_distribution,
    random_count_distribution,
    random_instance,
    two_moment_upper,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# solver


def test_solve_single_variable_equality():
    result = solve_lp(LpProblem((1.0,), "min", ((1.0,),), (0.3,)))
    assert result.status == "optimal"
    assert result.value == pytest.approx(0.3, abs=TOL)


def test_solve_max_puts_mass_on_cheapest_coefficient():
    result = solve_lp(LpProblem((1.0, 1.0), "max", ((1.0, 2.0),), (1.0,)))
    assert result.status == "optimal"
    assert result.value == pytest.approx(1.0, abs=TOL)
    assert result.solution == pytest.approx((1.0, 0.0), abs=TOL)


def test_solve_reports_infeasible():
    result = solve_lp(LpProblem((1.0,), "min", ((1.0,),), (-0.5,)))
    assert result.status == "infeasible"
    assert result.value is None


def test_solve_reports_unbounded():
    result = solve_lp(LpProblem((0.0, -1.0), "min", ((1.0, -1.0),), (0.0,)))
    assert result.status == "unbounded"


def test_solve_lp_validation():
    with pytest.raises(InputError):
        LpProblem((1.0,), "maximize", ((1.0,),), (1.0,))
    with pytest.raises(InputError):
        LpProblem((1.0,), "min", ((1.0, 2.0),), (1.0,))
    with pytest.raises(InputError):
        LpProblem((float("inf"),), "min", ((1.0,),), (1.0,))


def test_three_event_two_moment_instance_against_vertex_enumeration():
    rows = ((1.0, 2.0, 3.0), (0.0, 1.0, 3.0))
    rhs = (1.5, 0.75)
    objective = (1.0, 1.0, 1.0)
    for sense in ("min", "max"):
        expected = lp_optimum_by_vertex_enumeration(objective, rows, rhs, sense)
        got = solve_lp(LpProblem(objective, sense, rows, rhs))
        assert got.status == "optimal"
        assert got.value == pytest.approx(expected, abs=TOL)


def test_random_lps_against_vertex_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        rows_n = int(rng.integers(1, min(3, n) + 1))
        a = rng.integers(0, 4, size=(rows_n, n)).astype(float)
        x_feasible = rng.random(n)
        a = np.vstack([a, np.ones(n)])  # total-mass row keeps the LP bounded
        b = a @ x_feasible
        c = rng.integers(-3, 4, size=n).astype(float)
        rows = tuple(tuple(row) for row in a)
        for sense in ("min", "max"):
            expected = lp_optimum_by_vertex_enumeration(c, rows, tuple(b), sense)
            got = solve_lp(LpProblem(tuple(c), sense, rows, tuple(b)))
            assert got.status == "optimal"
            assert got.value == pytest.approx(expected, abs=1e-8)
            residual = np.abs(a @ np.array(got.solution) - b).max()
            assert residual <= TOL
            assert min(got.solution) >= -1e-12


def test_redundant_rows_are_tolerated():
    # duplicated constraint, consistent right-hand side
    rows = ((1.0, 1.0), (1.0, 1.0), (1.0, 2.0))
    rhs = (1.0, 1.0, 1.5)
    result = solve_lp(LpProblem((1.0, 0.0), "min", rows, rhs))
    assert result.status == "optimal"
    assert result.value == pytest.approx(0.5, abs=TOL)


# ---------------------------------------------------------------------------
# moment problems


def test_union_single_event():
    pair = union_bounds(MomentVector(1, (0.4,)), 1)
    assert pair.lower == pytest.approx(0.4, abs=TOL)
    assert pair.upper == pytest.approx(0.4, abs=TOL)


def test_union_sandwich_example2(ex2):
    moments = binomial_moments(*ex2, m=2)
    for include_p0 in (False, True):
        pair = union_bounds(moments, 2, include_p0=include_p0)
        assert pair.lower - TOL <= 28 / 125 <= pair.upper + TOL


def test_union_m2_matches_closed_forms():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        p = random_count_distribution(rng, n)
        moments = moments_from_distribution(p, 2)
        s1, s2 = moments.s
        if s1 <= 0.0:
            continue
        pair = union_bounds(moments, 2)
        assert pair.lower == pytest.approx(dawson_sankoff_lower(s1, s2), abs=TOL)
        assert pair.upper == pytest.approx(two_moment_upper(s1, s2, n), abs=TOL)


def test_atleast_r1_equals_union_with_p0():
    moments = MomentVector(4, (0.9, 0.2))
    assert atleast_r_bounds(moments, 1, 2) == union_bounds(moments, 2, include_p0=True)


def test_atleast_full_information_pins_top_count():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        p = random_count_distribution(rng, n)
        moments = moments_from_distribution(p, n)
        pair = atleast_r_bounds(moments, n, n)
        assert pair.lower == pytest.approx(moments.s_k(n), abs=TOL)
        assert pair.upper == pytest.approx(moments.s_k(n), abs=TOL)


def test_atleast_sandwich_example2(ex2):
    moments = binomial_moments(*ex2, m=2)
    exact = exact_count_distribution(*ex2).at_least(2)
    pair = atleast_r_bounds(moments, 2, 2)
    assert pair.lower - TOL <= exact <= pair.upper + TOL
    assert exact == pytest.approx(1 / 125, abs=1e-12)


def test_exactly_r0_full_moments_gives_complement(ex2):
    boxes, measure = ex2
    moments = binomial_moments(boxes, measure)
    pair = exactly_r_bounds(moments, 0, moments.n_events)
    assert pair.lower == pytest.approx(1 - 28 / 125, abs=TOL)
    assert pair.upper == pytest.approx(1 - 28 / 125, abs=TOL)


def test_exactly_sandwich_example2(ex2):
    moments = binomial_moments(*ex2, m=2)
    pair = exactly_r_bounds(moments, 1, 2)
    assert pair.lower - TOL <= 27 / 125 <= pair.upper + TOL


def test_exactly_single_event():
    pair = exactly_r_bounds(MomentVector(1, (0.4,)), 1, 1)
    assert pair.lower == pytest.approx(0.4, abs=TOL)
    assert pair.upper == pytest.approx(0.4, abs=TOL)


def test_moment_order_validation():
    moments = MomentVector(3, (0.5, 0.1))
    with pytest.raises(InputError):
        union_bounds(moments, 3)
    with pytest.raises(InputError):
        atleast_r_bounds(moments, 4)
    with pytest.raises(InputError):
        exactly_r_bounds(moments, -1)


def test_infeasible_moments_raise():
    with pytest.raises(InfeasibleBoundsError) as info:
        union_bounds(MomentVector(3, (0.1, 3.0)), 2)
    assert info.value.result.status == "infeasible"


# ---------------------------------------------------------------------------
# union-augmented problems


def test_q_atleast_r1_returns_q(ex2):
    moments = binomial_moments(*ex2, m=3)
    pair = q_atleast_bounds(moments, 1)
    assert pair.lower == pytest.approx(moments.q, abs=TOL)
    assert pair.upper == pytest.approx(moments.q, abs=TOL)


def test_q_atleast_example2_pinned(ex2):
    moments = binomial_moments(*ex2, m=3)
    pair = q_atleast_bounds(moments, 2, 3)
    assert pair.lower == pytest.approx(1 / 125, abs=TOL)
    assert pair.upper == pytest.approx(1 / 125, abs=TOL)


def test_q_exactly_example2(ex2):
    moments = binomial_moments(*ex2, m=3)
    pair = q_exactly_bounds(moments, 1)
    assert pair.lower == pytest.approx(27 / 125, abs=TOL)
    assert pair.upper == pytest.approx(27 / 125, abs=TOL)


def test_q_exactly_rejects_r0(ex2):
    moments = binomial_moments(*ex2, m=3)
    with pytest.raises(InputError):
        q_exactly_bounds(moments, 0)


def test_q_requires_union_probability():
    # realized by p = (0.55, 0.4, 0.05) over three events
    moments = MomentVector(3, (0.5, 0.05))
    with pytest.raises(InputError):
        q_atleast_bounds(moments, 1)
    pair = q_atleast_bounds(moments, 1, q=0.45)
    assert pair.lower == pytest.approx(0.45, abs=TOL)
    with pytest.raises(InputError):
        q_atleast_bounds(moments, 1, q=1.5)


def test_q_augmentation_never_loosens():
    rng = np.random.default_rng(31)
    for _ in range(40):
        boxes, measure = random_instance(rng, max_events=8)
        n = len(boxes)
        moments = binomial_moments(boxes, measure)
        r = min(2, n)
        for m in range(1, min(3, n) + 1):
            plain = atleast_r_bounds(moments, r, m)
            augmented = q_atleast_bounds(moments, r, m)
            assert augmented.lower >= plain.lower - TOL
            assert augmented.upper <= plain.upper + TOL
            plain_e = exactly_r_bounds(moments, r, m)
            augmented_e = q_exactly_bounds(moments, r, m)
            assert augmented_e.lower >= plain_e.lower - TOL
            assert augmented_e.upper <= plain_e.upper + TOL


def test_q_bounds_sandwich_exact():
    rng = np.random.default_rng(37)
    for _ in range(25):
        boxes, measure = random_instance(rng, max_events=8)
        n = len(boxes)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure)
        r = min(2, n)
        m = min(3, n)
        pair = q_atleast_bounds(moments, r, m)
        assert pair.lower - TOL <= dist.at_least(r) <= pair.upper + TOL
        pair = q_exactly_bounds(moments, r, m)
        assert pair.lower - TOL <= dist.exactly(r) <= pair.upper + TOL


# ---------------------------------------------------------------------------
# Hunter-Worsley


def test_hunter_worsley_example2(ex2):
    boxes, measure = ex2
    moments = binomial_moments(boxes, measure, m=1)
    bound = hunter_worsley_upper(moments.s_k(1), pairwise_probabilities(boxes, measure), 7)
    assert bound == pytest.approx(28 / 125, abs=1e-12)


def test_hunter_worsley_degrades_to_boole():
    assert hunter_worsley_upper(0.7, {}, 3) == pytest.approx(0.7, abs=1e-15)


def test_hunter_worsley_two_identical_events():
    bound = hunter_worsley_upper(0.6, {(0, 1): 0.3}, 2)
    assert bound == pytest.approx(0.3, abs=1e-15)


def test_hunter_worsley_validation():
    with pytest.raises(InputError):
        hunter_worsley_upper(0.5, {(0, 0): 0.1}, 2)
    with pytest.raises(InputError):
        hunter_worsley_upper(0.5, {(0, 3): 0.1}, 2)
    with pytest.raises(InputError):
        hunter_worsley_upper(0.5, {(0, 1): 1.2}, 2)


def _hunter_worsley_reference(s1, pairwise, n_events):
    """Prim's algorithm over a dense list-of-lists weight matrix."""
    weight = [[0.0] * n_events for _ in range(n_events)]
    for (i, j), value in pairwise.items():
        weight[i][j] = weight[j][i] = float(value)
    if n_events <= 1:
        return float(s1)
    in_tree = [False] * n_events
    in_tree[0] = True
    best = list(weight[0])
    total = 0.0
    for _ in range(n_events - 1):
        v = max((u for u in range(n_events) if not in_tree[u]), key=lambda u: (best[u], -u))
        total += best[v]
        in_tree[v] = True
        for u in range(n_events):
            if not in_tree[u] and weight[v][u] > best[u]:
                best[u] = weight[v][u]
    return float(s1) - total


# Few distinct weights, so ties (and ties between 0.0 and -0.0) are common.
PAIR_WEIGHTS = st.sampled_from([0.0, -0.0, -1e-13, 1e-12, 0.1, 0.25, 0.3, 1.0])


@given(st.integers(0, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_hunter_worsley_matches_list_prim(n, data):
    pairs = list(combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    pairwise = {}
    for i, j in chosen:
        key = (j, i) if data.draw(st.booleans()) else (i, j)
        pairwise[key] = data.draw(PAIR_WEIGHTS)
    s1 = data.draw(st.sampled_from([0.0, 0.7, 2.5]))
    assert repr(hunter_worsley_upper(s1, pairwise, n)) == repr(
        _hunter_worsley_reference(s1, pairwise, n)
    )


def test_hunter_worsley_duplicate_keys():
    assert hunter_worsley_upper(1.0, {(0, 1): 0.25, (1, 0): 0.25}, 2) == 0.75
    with pytest.raises(InputError, match="conflicting"):
        hunter_worsley_upper(1.0, {(0, 1): 0.25, (1, 0): 0.5}, 2)


def test_hunter_worsley_dominates_exact_and_boole():
    rng = np.random.default_rng(41)
    for _ in range(30):
        boxes, measure = random_instance(rng, max_events=9)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure, m=1)
        s1 = moments.s_k(1)
        bound = hunter_worsley_upper(s1, pairwise_probabilities(boxes, measure), len(boxes))
        assert bound >= dist.union() - 1e-12
        assert bound <= s1 + 1e-12
        assert min(bound, 1.0) <= min(s1, 1.0) + 1e-12


# ---------------------------------------------------------------------------
# Boolean atom LP


def test_boolean_two_events_pinned():
    system = BooleanSystem(
        2, 2, {frozenset({0}): 0.5, frozenset({1}): 0.5, frozenset({0, 1}): 0.25}
    )
    pair = boolean_lp_bounds(system, "union")
    assert pair.lower == pytest.approx(0.75, abs=TOL)
    assert pair.upper == pytest.approx(0.75, abs=TOL)


def test_boolean_all_zero():
    system = BooleanSystem(
        2, 2, {frozenset({0}): 0.0, frozenset({1}): 0.0, frozenset({0, 1}): 0.0}
    )
    pair = boolean_lp_bounds(system, "union")
    assert pair.lower == pytest.approx(0.0, abs=TOL)
    assert pair.upper == pytest.approx(0.0, abs=TOL)


def test_boolean_tighter_than_moment_lp_example1(ex1):
    boxes, measure = ex1
    moments = binomial_moments(boxes, measure, m=2)
    moment_pair = union_bounds(moments, 2)
    system = boolean_system_from_boxes(boxes, measure, 2)
    boolean_pair = boolean_lp_bounds(system, "union")
    assert boolean_pair.lower >= moment_pair.lower - TOL
    assert boolean_pair.upper <= moment_pair.upper + TOL
    exact = exact_count_distribution(boxes, measure).union()
    assert boolean_pair.lower - TOL <= exact <= boolean_pair.upper + TOL


def test_boolean_full_information_is_exact():
    rng = np.random.default_rng(43)
    for _ in range(10):
        boxes, measure = random_instance(rng, max_events=5)
        n = len(boxes)
        dist = exact_count_distribution(boxes, measure)
        system = boolean_system_from_boxes(boxes, measure, n)
        for target, r, exact in (
            ("union", None, dist.union()),
            ("atleast", min(2, n), dist.at_least(min(2, n))),
            ("exactly", min(1, n), dist.exactly(min(1, n))),
            ("exactly", 0, dist.exactly(0)),
        ):
            pair = boolean_lp_bounds(system, target, r)
            assert pair.lower == pytest.approx(exact, abs=TOL)
            assert pair.upper == pytest.approx(exact, abs=TOL)


def test_boolean_validation():
    with pytest.raises(InputError):
        BooleanSystem(2, 2, {frozenset({0}): 0.5})  # incomplete
    with pytest.raises(InputError):
        BooleanSystem(
            2, 2, {frozenset({0}): 0.5, frozenset({1}): 0.5, frozenset({0, 1}): 0.7}
        )  # intersection above marginal
    with pytest.raises(InputError):
        BooleanSystem(2, 2, {frozenset({0}): 1.5, frozenset({1}): 0.5, frozenset({0, 1}): 0.2})
    system = BooleanSystem(
        2, 1, {frozenset({0}): 0.5, frozenset({1}): 0.5}
    )
    with pytest.raises(InputError):
        boolean_lp_bounds(system, "atleast", 0)
    with pytest.raises(InputError):
        boolean_lp_bounds(system, "union", 1)
    with pytest.raises(InputError):
        boolean_lp_bounds(system, "nonsense")


def test_boolean_large_degenerate_instance():
    # 1024 atom variables with many ratio ties: exercises the degenerate
    # crawl, the Bland fallback, and the periodic tableau rebuild
    rng = np.random.default_rng(99)
    boxes, measure = random_instance(rng, max_events=10, min_events=10, max_dim=3)
    system = boolean_system_from_boxes(boxes, measure, 2)
    pair = boolean_lp_bounds(system, "union")
    exact = exact_count_distribution(boxes, measure).union()
    assert pair.lower - TOL <= exact <= pair.upper + TOL


def test_boolean_event_cap():
    n = 13
    p = {frozenset({i}): 0.1 for i in range(n)}
    system = BooleanSystem(n, 1, p)
    with pytest.raises(InputError):
        boolean_lp_bounds(system, "union")


def test_boolean_inconsistent_probabilities_raise():
    # marginals force overlap (0.9 + 0.9 - 1 = 0.8) but the pair claims less
    system = BooleanSystem(
        2, 2, {frozenset({0}): 0.9, frozenset({1}): 0.9, frozenset({0, 1}): 0.1}
    )
    with pytest.raises(InfeasibleBoundsError):
        boolean_lp_bounds(system, "union")


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_sandwich_and_monotone_tightening():
    rng = np.random.default_rng(47)
    for _ in range(20):
        boxes, measure = random_instance(rng, max_events=9)
        n = len(boxes)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure)
        exact_union = dist.union()
        r = min(2, n)
        previous = {}
        for m in range(1, min(4, n) + 1):
            checks = [
                ("union", union_bounds(moments, m), exact_union),
                ("union-p0", union_bounds(moments, m, include_p0=True), exact_union),
                ("atleast", atleast_r_bounds(moments, r, m), dist.at_least(r)),
                ("exactly", exactly_r_bounds(moments, r, m), dist.exactly(r)),
            ]
            for name, pair, exact in checks:
                assert pair.lower - TOL <= exact <= pair.upper + TOL
                if name in previous:
                    assert pair.lower >= previous[name].lower - TOL
                    assert pair.upper <= previous[name].upper + TOL
                previous[name] = pair


def test_sharpness_at_full_moment_order():
    rng = np.random.default_rng(53)
    for _ in range(15):
        boxes, measure = random_instance(rng, max_events=8)
        n = len(boxes)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure)
        r = min(2, n)
        for pair, exact in (
            (union_bounds(moments, n, include_p0=True), dist.union()),
            (union_bounds(moments, n), dist.union()),
            (atleast_r_bounds(moments, r, n), dist.at_least(r)),
            (exactly_r_bounds(moments, r, n), dist.exactly(r)),
        ):
            assert pair.lower == pytest.approx(exact, abs=TOL)
            assert pair.upper == pytest.approx(exact, abs=TOL)


def test_true_distribution_is_feasible_for_every_formulation():
    rng = np.random.default_rng(59)
    boxes, measure = random_instance(rng, max_events=7, min_events=3)
    n = len(boxes)
    dist = exact_count_distribution(boxes, measure)
    moments = binomial_moments(boxes, measure)
    p = np.array(dist.p)
    for m in range(1, min(4, n) + 1):
        from boxbounds.bounding import _moment_rows, _q_rows  # noqa: PLC0415

        rows, rhs, start = _moment_rows(moments, m, include_p0=True)
        residual = np.abs(np.array(rows) @ p[start:] - np.array(rhs)).max()
        assert residual <= TOL
        rows, rhs = _q_rows(moments, m, moments.q)
        residual = np.abs(np.array(rows) @ p[1:] - np.array(rhs)).max()
        assert residual <= TOL


def test_bound_pair_rejects_inverted_bounds():
    with pytest.raises(ArithmeticError):
        BoundPair(0.5, 0.3, "test")
