import re
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain, combinations
from math import comb
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxbounds import bounding
from boxbounds.bounding import (
    BooleanSystem,
    BoundPair,
    LpProblem,
    LpResult,
    atleast_r_bounds,
    boolean_lp_bounds,
    boolean_system_from_boxes,
    check_atom_cap,
    exactly_r_bounds,
    hunter_worsley_upper,
    pairwise_probabilities,
    q_atleast_bounds,
    q_exactly_bounds,
    solve_lp,
    union_bounds,
)
from boxbounds.bounding import _moment_rows
from boxbounds.cli import load_document, parse_geometry
from boxbounds.errors import InfeasibleBoundsError, InputError
from boxbounds.geometry import Box, EmptinessMode
from boxbounds.measure import PiecewiseCdf, ProductMeasure
from boxbounds.oracle import exact_count_distribution
from boxbounds.screening import MomentVector, binomial_moments, enumerate_tuples

from helpers import (
    all_atom_lp_bounds,
    dawson_sankoff_lower,
    full_body_phase2,
    lp_optimum_by_vertex_enumeration,
    moments_from_distribution,
    random_count_distribution,
    random_instance,
    reference_boolean_checks,
    reference_boolean_rows,
    two_call_solve_lp,
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


def test_zero_row_problem_solves():
    result = solve_lp(LpProblem((1.0,), "min", (), ()))
    assert (result.status, result.value, result.solution) == ("optimal", 0.0, (0.0,))
    assert solve_lp(LpProblem((1.0,), "max", (), ())).status == "unbounded"
    problem = LpProblem(np.ones(2), "min", np.zeros((0, 2)), np.zeros(0))
    assert (problem.n_rows, problem.n_vars, problem.a_eq.shape) == (0, 2, (0, 2))


@pytest.mark.parametrize(
    "args, message",
    [
        (((1.0,), "maximize", ((1.0,),), (1.0,)), "sense must be 'min' or 'max'"),
        (((), "min", (), ()), "objective must have at least one variable"),
        (((1.0,), "min", ((1.0,),), (1.0, 2.0)), "right-hand side disagree"),
        (((1.0,), "min", ((1.0,), (1.0,)), (1.0,)), "right-hand side disagree"),
        (((1.0, 2.0), "min", ((1.0, 2.0), (1.0,)), (1.0, 1.0)), "row length"),
        (((1.0, 2.0), "min", ((1.0,), (1.0, 2.0)), (1.0, 1.0)), "row length"),
        (((1.0,), "min", ((1.0, 2.0),), (1.0,)), "row length"),
        (((1.0,), "min", ((),), (1.0,)), "row length"),
        (((1.0,), "min", (1.0,), (1.0,)), "row length"),
    ],
)
def test_lp_problem_rejects_malformed_data(args, message):
    with pytest.raises(InputError, match=message):
        LpProblem(*args)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_lp_problem_rejects_non_finite_data(bad):
    with pytest.raises(InputError, match="LP data must be finite"):
        LpProblem((bad, 1.0), "min", ((1.0, 1.0),), (1.0,))
    with pytest.raises(InputError, match="LP data must be finite"):
        LpProblem((1.0, 1.0), "min", ((1.0, 1.0), (0.0, bad)), (1.0, 0.5))
    with pytest.raises(InputError, match="LP data must be finite"):
        LpProblem((1.0, 1.0), "min", ((1.0, 1.0),), (bad,))


def test_lp_problem_stores_read_only_float_copies():
    objective = np.array([1, 2])
    a_eq = np.array([[1.0, 1.0], [0.0, 1.0]])
    b_eq = [1, 0.5]
    problem = LpProblem(objective, "max", a_eq, b_eq)
    objective[0] = a_eq[0, 0] = 9
    b_eq[0] = 9.0
    for stored, expected in (
        (problem.objective, [1.0, 2.0]),
        (problem.a_eq, [[1.0, 1.0], [0.0, 1.0]]),
        (problem.b_eq, [1.0, 0.5]),
    ):
        assert stored.dtype == np.float64
        assert stored.tolist() == expected
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 0.0
    assert (problem.n_rows, problem.n_vars) == (2, 2)
    assert problem == problem
    assert problem != LpProblem(objective, "max", a_eq, b_eq)
    # a bound pair's max problem shares the checked arrays of its min problem
    flipped = problem.flipped()
    assert (flipped.sense, flipped.flipped().sense) == ("min", "max")
    for name in ("objective", "a_eq", "b_eq"):
        assert getattr(flipped, name) is getattr(problem, name)


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
    # Entries 0..3, then mixed signs, where rows with b < 0 meet phase 1's
    # flip; those are held bit for bit to the two-call simplex as well.
    for low in (0, -3):
        negative_rows = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            rows_n = int(rng.integers(1, min(3, n) + 1))
            a = rng.integers(low, 4, size=(rows_n, n)).astype(float)
            x_feasible = rng.random(n)
            a = np.vstack([a, np.ones(n)])  # total-mass row keeps the LP bounded
            b = a @ x_feasible
            negative_rows += int((b < 0).any())
            c = rng.integers(-3, 4, size=n).astype(float)
            rows = tuple(tuple(row) for row in a)
            for sense in ("min", "max"):
                expected = lp_optimum_by_vertex_enumeration(c, rows, tuple(b), sense)
                problem = LpProblem(tuple(c), sense, rows, tuple(b))
                got = solve_lp(problem)
                assert got.status == "optimal"
                assert got.value == pytest.approx(expected, abs=1e-8)
                residual = np.abs(a @ np.array(got.solution) - b).max()
                assert residual <= TOL
                assert min(got.solution) >= -1e-12
                if low < 0:
                    assert _bits(got) == _bits(two_call_solve_lp(problem))
        assert (negative_rows > 0) == (low < 0)


def test_redundant_rows_are_tolerated():
    # duplicated constraint, consistent right-hand side
    rows = ((1.0, 1.0), (1.0, 1.0), (1.0, 2.0))
    rhs = (1.0, 1.0, 1.5)
    result = solve_lp(LpProblem((1.0, 0.0), "min", rows, rhs))
    assert result.status == "optimal"
    assert result.value == pytest.approx(0.5, abs=TOL)


@pytest.mark.parametrize("crash", [False, True], ids=["artificial", "crash"])
def test_pivot_counts_cover_phase_1_where_it_ran(monkeypatch, crash):
    pivot = bounding._pivot
    made = []

    def counted(tableau, basis, row, col):
        made.append((row, col))
        pivot(tableau, basis, row, col)

    monkeypatch.setattr(bounding, "_pivot", counted)
    rng = np.random.default_rng(8)
    phase1 = phase2 = 0
    for _ in range(30):
        a = np.vstack([rng.integers(0, 4, size=(3, 6)), np.ones(6)])
        b = a @ rng.random(6)
        c = rng.integers(-3, 4, size=6).astype(float)
        # a crash basis naming the first column for the total-mass row only
        basis = np.array([-1, -1, -1, 0]) if crash else None
        made.clear()
        first = solve_lp(LpProblem(c, "min", a, b), crash=basis)
        assert first.pivots == len(made)
        made.clear()
        second = solve_lp(LpProblem(c, "max", a, b), first._start)
        assert second.pivots == len(made)
        phase1 += first.pivots - second.pivots
        phase2 += second.pivots
    assert phase1 > 0 and phase2 > 0
    assert first == replace(first, pivots=first.pivots + 1)


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


def _boolean_bounds(moments, target, r=None):
    """boolean_lp_bounds over as many independent events as the moments have."""
    n = moments.n_events
    system = BooleanSystem(n, 1, {frozenset({i}): 0.1 for i in range(n)})
    return boolean_lp_bounds(system, target, r)


@pytest.mark.parametrize(
    "bound, args, message",
    [
        (union_bounds, (3,), "m=3 out of range 1..2"),
        (atleast_r_bounds, (4,), "r=4 out of range 1..3"),
        (atleast_r_bounds, (1, 0), "m=0 out of range 1..2"),
        (exactly_r_bounds, (-1,), "r=-1 out of range 0..3"),
        (q_atleast_bounds, (0,), "r=0 out of range 1..3"),
        (q_exactly_bounds, (0,), "r=0 out of range 1..3 (no p_0 in this layout)"),
        (q_exactly_bounds, (1, 3), "m=3 out of range 1..2"),
        (_boolean_bounds, ("atleast", 4), "r=4 out of range 1..3"),
        (_boolean_bounds, ("atleast", None), "r is required for the atleast target"),
        (_boolean_bounds, ("exactly", -1), "r=-1 out of range 0..3"),
        (_boolean_bounds, ("union", 1), "r is meaningless for the union target"),
        (_boolean_bounds, ("nonsense",), "unknown target 'nonsense'"),
    ],
)
def test_moment_range_messages(bound, args, message):
    # The bound functions and check_moment_request share these messages.
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        bound(MomentVector(3, (0.5, 0.1), 0.5), *args)


def _raised(call):
    """The InputError message that call raises, or None."""
    try:
        call()
    except InfeasibleBoundsError:
        return None
    except InputError as error:
        return str(error)
    return None


def test_check_moment_request_raises_what_the_bounds_raise():
    # Over S_1..S_n, the check must raise each bound's error, or none.
    moments = MomentVector(4, (1.2, 0.5, 0.1, 0.01), 0.9)
    calls = {
        ("union", False): lambda r, m: union_bounds(moments, m),
        ("atleast", False): lambda r, m: atleast_r_bounds(moments, r, m),
        ("exactly", False): lambda r, m: exactly_r_bounds(moments, r, m),
        ("union", True): lambda r, m: q_atleast_bounds(moments, 1, m),
        ("atleast", True): lambda r, m: q_atleast_bounds(moments, r, m),
        ("exactly", True): lambda r, m: q_exactly_bounds(moments, r, m),
    }
    for (target, with_q), call in calls.items():
        for r in (None,) if target == "union" else range(-1, 6):
            for m in range(-1, 6):
                expected = _raised(lambda: call(r, m))
                got = _raised(lambda: bounding.check_moment_request(target, 4, r, m, with_q))
                assert got == expected, (target, with_q, r, m)
    # The Boolean bound raises the same for r, for every target and r.
    marginals = (0.5, 0.4, 0.3, 0.2)
    p = {
        frozenset(combo): float(np.prod([marginals[i] for i in combo]))
        for k in range(1, 5)
        for combo in combinations(range(4), k)
    }
    system = BooleanSystem(4, 2, {key: value for key, value in p.items() if len(key) <= 2})
    for target in ("union", "atleast", "exactly", "nonsense"):
        for r in (None, *range(-1, 6)):
            expected = _raised(lambda: boolean_lp_bounds(system, target, r))
            got = _raised(lambda: bounding.check_moment_request(target, 4, r))
            assert got == expected, (target, r)
    # The Boolean system, from boxes or from its entries, raises the same
    # for m: four independent events, box i on [0, marginals[i]] in axis i.
    boxes = [
        Box(f"A{i}", [0.0] * 4, [marginals[i] if a == i else 1.0 for a in range(4)])
        for i in range(4)
    ]
    measure = ProductMeasure.uniform([0.0] * 4, [1.0] * 4)
    for m in range(-1, 6):
        got = _raised(lambda: bounding.check_moment_request("union", 4, None, m))
        entries = {key: value for key, value in p.items() if len(key) <= m}
        assert _raised(lambda: BooleanSystem(4, m, entries)) == got, m
        assert _raised(lambda: boolean_system_from_boxes(boxes, measure, m)) == got, m


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
    message = "pairwise probability of pair (0, 1) = 1.2 is not in [0, 1]"
    with pytest.raises(InputError, match=re.escape(message)):
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


def test_atom_budget_edge():
    check_atom_cap(8, 8)  # 256 rows over 256 atoms: 2^16 cells, at the budget
    check_atom_cap(12, 1)
    for n, m in ((9, 3), (13, 1), (10**5, 10**5)):
        with pytest.raises(InputError, match="exceeds the budget of 65536 matrix cells"):
            check_atom_cap(n, m)


def test_boolean_inconsistent_probabilities_raise():
    # marginals force overlap (0.9 + 0.9 - 1 = 0.8) but the pair claims less
    system = BooleanSystem(
        2, 2, {frozenset({0}): 0.9, frozenset({1}): 0.9, frozenset({0, 1}): 0.1}
    )
    with pytest.raises(InfeasibleBoundsError):
        boolean_lp_bounds(system, "union")


# ---------------------------------------------------------------------------
# array assembly against the tuple assembly it replaced


def _tuple_moment_rows(moments, m, include_p0):
    n = moments.n_events
    start = 0 if include_p0 else 1
    rows = []
    rhs = []
    for k in range(start, m + 1):
        rows.append(tuple(float(comb(i, k)) for i in range(start, n + 1)))
        rhs.append(moments.s_k(k))
    return rows, rhs, start


def _tuple_q_rows(moments, m, q):
    n = moments.n_events
    rows = [tuple(1.0 for _ in range(1, n + 1))]
    rhs = [q]
    for k in range(1, m + 1):
        rows.append(tuple(float(comb(i, k)) for i in range(1, n + 1)))
        rhs.append(moments.s_k(k))
    return rows, rhs


def _tuple_indicator(start, n, lo, hi):
    return tuple(1.0 if lo <= i <= hi else 0.0 for i in range(start, n + 1))


def _tuple_boolean_rows(system):
    n_atoms = 1 << system.n_events
    rows = [tuple(1.0 for _ in range(n_atoms))]
    rhs = [1.0]
    for k in range(1, system.m + 1):
        for combo in combinations(range(system.n_events), k):
            i_mask = 0
            for i in combo:
                i_mask |= 1 << i
            rows.append(
                tuple(1.0 if mask & i_mask == i_mask else 0.0 for mask in range(n_atoms))
            )
            rhs.append(system.p[frozenset(combo)])
    return rows, rhs


@pytest.fixture
def recorded_lps(monkeypatch):
    """The LpProblems handed to solve_lp, each answered with value 0."""
    problems = []

    def record(problem, start=None, *, crash=None):
        problems.append(problem)
        return LpResult(status="optimal", value=0.0)

    monkeypatch.setattr(bounding, "solve_lp", record)
    return problems


def _assert_bitwise(got, want):
    want = np.array(want, dtype=float)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_solved(problems, objective, rows, rhs):
    """One min and one max solve, both on the float64 data of the tuples."""
    assert [problem.sense for problem in problems] == ["min", "max"]
    for problem in problems:
        _assert_bitwise(problem.objective, objective)
        _assert_bitwise(problem.a_eq, rows)
        _assert_bitwise(problem.b_eq, rhs)
    problems.clear()


@pytest.mark.parametrize("n", [1, 2, 5, 17, 40, 64, 70])
def test_moment_lps_match_the_tuple_assembly(n, recorded_lps):
    assert comb(70, 35) > 2**63  # the largest entries take float rounding
    rng = np.random.default_rng(n)
    q = float(rng.random())
    moments = MomentVector(n, tuple(rng.random(n) * 10.0 ** rng.integers(0, 20, n)), q)
    rs = sorted({1, max(1, n // 3), n})
    for m in sorted({1, min(3, n), max(1, n // 2), n}):
        for include_p0 in (False, True):
            rows, rhs, start = _tuple_moment_rows(moments, m, include_p0)
            a_eq, b_eq = _moment_rows(moments, m, start)
            _assert_bitwise(a_eq, rows)
            _assert_bitwise(b_eq, rhs)
            union_bounds(moments, m, include_p0)
            _assert_solved(recorded_lps, _tuple_indicator(start, n, 1, n), rows, rhs)
        rows, rhs, _ = _tuple_moment_rows(moments, m, True)
        for r in rs:
            atleast_r_bounds(moments, r, m)
            _assert_solved(recorded_lps, _tuple_indicator(0, n, r, n), rows, rhs)
        for r in [0, *rs]:
            exactly_r_bounds(moments, r, m)
            _assert_solved(recorded_lps, _tuple_indicator(0, n, r, r), rows, rhs)
        rows, rhs = _tuple_q_rows(moments, m, q)
        a_eq, b_eq = _moment_rows(moments, m, 1, q)
        _assert_bitwise(a_eq, rows)
        _assert_bitwise(b_eq, rhs)
        for r in rs:
            q_atleast_bounds(moments, r, m)
            _assert_solved(recorded_lps, _tuple_indicator(1, n, r, n), rows, rhs)
            q_exactly_bounds(moments, r, m)
            _assert_solved(recorded_lps, _tuple_indicator(1, n, r, r), rows, rhs)


@pytest.mark.parametrize("n", range(1, 9))
def test_boolean_lp_matches_the_tuple_assembly(n, recorded_lps):
    rng = np.random.default_rng(100 + n)
    marginals = rng.random(n)
    for m in range(1, n + 1):
        p = {
            frozenset(combo): float(np.prod(marginals[list(combo)]))
            for k in range(1, m + 1)
            for combo in combinations(range(n), k)
        }
        system = BooleanSystem(n, m, p)
        rows, rhs = _tuple_boolean_rows(system)
        sizes = [bin(mask).count("1") for mask in range(1 << n)]
        targets = [("union", None, 1, n)]
        targets += [("atleast", r, r, n) for r in range(1, n + 1)]
        targets += [("exactly", r, r, r) for r in range(n + 1)]
        for target, r, lo, hi in targets:
            boolean_lp_bounds(system, target, r)
            objective = tuple(1.0 if lo <= size <= hi else 0.0 for size in sizes)
            _assert_solved(recorded_lps, objective, rows, rhs)


# ---------------------------------------------------------------------------
# one phase 1 per bound pair, against the simplex that ran two


def _bits(result):
    """An LpResult's status, value and solution, floats as bytes (-0.0 != 0.0)."""
    value = () if result.value is None else (result.value,)
    return result.status, np.array(value).tobytes(), np.array(result.solution or ()).tobytes()


def _atom_p(rng, n, m, forbidden=()):
    """p_I, |I| <= m, of random atom masses, zero on each atom holding a forbidden set."""
    atoms = np.arange(1 << n)
    mass = rng.random(1 << n)
    for subset in forbidden:
        mask = sum(1 << i for i in subset)
        mass[(atoms & mask) == mask] = 0.0
    mass /= mass.sum()
    p = {}
    for k in range(1, m + 1):
        for combo in combinations(range(n), k):
            mask = sum(1 << i for i in combo)
            p[frozenset(combo)] = float(mass[(atoms & mask) == mask].sum())
    return p


def _monotone_p(rng, n, m):
    """p_I, |I| <= m, each at most every p_{I - i}; often no distribution fits."""
    p = {}
    for k in range(1, m + 1):
        for combo in combinations(range(n), k):
            key = frozenset(combo)
            cap = min(p[key - {i}] for i in combo) if k > 1 else 1.0
            p[key] = cap * float(rng.choice([0.0, rng.random(), 1.0]))
    return p


def _bound_call(data, rng):
    """One bound function call over a drawn moment, q-moment or Boolean problem."""
    kind = data.draw(st.sampled_from(["moment", "q-moment", "boolean"]))
    consistent = data.draw(st.booleans())
    if kind == "boolean":
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, n))
        p = _atom_p(rng, n, m) if consistent else _monotone_p(rng, n, m)
        system = BooleanSystem(n, m, p)
        target = data.draw(st.sampled_from(["union", "atleast", "exactly"]))
        r = None if target == "union" else data.draw(st.integers(int(target == "atleast"), n))
        return lambda: boolean_lp_bounds(system, target, r)
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, min(n, 6)))
    moments = moments_from_distribution(random_count_distribution(rng, n), m)
    if not consistent:
        s = tuple(v * rng.uniform(0.5, 1.5) for v in moments.s)
        moments = MomentVector(n, s, float(rng.random()))
    r = data.draw(st.integers(1, n))
    if kind == "q-moment":
        bound = data.draw(st.sampled_from([q_atleast_bounds, q_exactly_bounds]))
        return lambda: bound(moments, r, m)
    return data.draw(st.sampled_from([
        lambda: union_bounds(moments, m),
        lambda: union_bounds(moments, m, include_p0=True),
        lambda: atleast_r_bounds(moments, r, m),
        lambda: exactly_r_bounds(moments, r - 1, m),
    ]))


@contextmanager
def _reported_pivots():
    """The pivots each solve_lp call inside reports, in call order."""
    solve = bounding.solve_lp
    pivots = []

    def counted(problem, start=None, *, crash=None):
        result = solve(problem, start, crash=crash)
        pivots.append(result.pivots)
        return result

    with mock.patch.object(bounding, "solve_lp", counted):
        yield pivots


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_bound_pairs_match_the_two_call_simplex(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bound = _bound_call(data, rng)
    solve = bounding.solve_lp
    started = []

    def checked(problem, start=None, *, crash=None):
        got = solve(problem, start, crash=crash)
        assert _bits(got) == _bits(two_call_solve_lp(problem, crash))
        started.append(start is not None)
        return got

    with mock.patch.object(bounding, "solve_lp", checked):
        try:
            bound()
        except InfeasibleBoundsError:
            assert started == [False]
        else:
            assert started == [False, True]


def test_a_bound_pair_runs_phase_1_once(monkeypatch):
    phase1 = bounding._phase1
    calls = []

    def counted(a, b, crash=None):
        calls.append(a.shape)
        return phase1(a, b, crash)

    monkeypatch.setattr(bounding, "_phase1", counted)
    moments = moments_from_distribution((0.2, 0.3, 0.4, 0.1), 2)
    system = BooleanSystem(3, 2, _atom_p(np.random.default_rng(5), 3, 2, [(0, 1)]))
    for bound in (
        lambda: union_bounds(moments, 2),
        lambda: atleast_r_bounds(moments, 2, 2),
        lambda: q_exactly_bounds(moments, 1, 2),
        lambda: boolean_lp_bounds(system, "union"),
        lambda: boolean_lp_bounds(system, "exactly", 1),
    ):
        bound()
        assert len(calls) == 1
        calls.clear()
    with pytest.raises(InfeasibleBoundsError):
        union_bounds(MomentVector(3, (0.5, 2.0)), 2)
    assert len(calls) == 1
    calls.clear()
    # library callers of solve_lp still get a full solve each
    problem = LpProblem((1.0, 1.0), "max", ((1.0, 2.0),), (1.0,))
    assert solve_lp(problem).value == solve_lp(problem).value == 1.0
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Boolean atom LP over the surviving atoms, against all 2^N atoms


def test_zero_rows_and_the_atoms_they_cover_are_dropped(recorded_lps):
    p = _atom_p(np.random.default_rng(7), 3, 2, [(0, 1)])
    assert [key for key, value in p.items() if value <= 0.0] == [frozenset({0, 1})]
    system = BooleanSystem(3, 2, p)
    rows, rhs = _tuple_boolean_rows(system)
    atoms = [0b000, 0b001, 0b010, 0b100, 0b101, 0b110]  # none holds both 0 and 1
    kept = [i for i, value in enumerate(rhs) if value > 0.0]
    assert len(kept) == 6  # every row but {0, 1}
    boolean_lp_bounds(system, "union")
    _assert_solved(
        recorded_lps,
        [0.0 if atom == 0 else 1.0 for atom in atoms],
        [[rows[i][atom] for atom in atoms] for i in kept],
        [rhs[i] for i in kept],
    )


def _boxes(rng, n, overlapping, extent=100.0):
    """n random 2-d boxes and the uniform measure on [0, extent]^2.

    Overlapping boxes (lower corners in [0, 10]^2, sides 60-90) have no
    zero p_I; sparse ones (corners in [0, 70]^2, sides 10-50) have many.
    A larger extent scales every p_I by (100 / extent)^2.
    """
    boxes = []
    for i in range(n):
        if overlapping:
            lower, side = rng.uniform(0, 10, 2), rng.uniform(60, 90, 2)
        else:
            lower, side = rng.uniform(0, 70, 2), rng.uniform(10, 50, 2)
        boxes.append(Box(f"A{i + 1}", tuple(lower), tuple(lower + side)))
    return boxes, ProductMeasure.uniform((0.0, 0.0), (extent, extent))


def _box_system(rng, n, m, overlapping):
    return boolean_system_from_boxes(*_boxes(rng, n, overlapping), m)


def _corpus():
    """(label, n, top m, system builder of m) with zeros of every kind, and none.

    The all-atom LP over 2^8 atoms takes seconds from m = 3 on, so N = 8
    stops at m = 2; every other system runs at every m.
    """
    rng = np.random.default_rng(12)
    marginals = rng.random(5)
    pairs = [(0, 1), (2, 5), (3, 6)]
    triples = [(0, 1, 2), (1, 3, 4)]
    return [
        ("sparse boxes", 6, 6, lambda m: _box_system(rng, 6, m, False)),
        ("sparse boxes", 7, 7, lambda m: _box_system(rng, 7, m, False)),
        ("sparse boxes", 8, 2, lambda m: _box_system(rng, 8, m, False)),
        ("overlapping boxes", 6, 6, lambda m: _box_system(rng, 6, m, True)),
        ("zeros at order 2", 7, 7, lambda m: BooleanSystem(7, m, _atom_p(rng, 7, m, pairs))),
        ("zeros at order 3", 6, 6, lambda m: BooleanSystem(6, m, _atom_p(rng, 6, m, triples))),
        ("zero singleton", 6, 6, lambda m: BooleanSystem(6, m, _atom_p(rng, 6, m, [(2,)]))),
        ("product", 5, 5, lambda m: BooleanSystem(5, m, {
            frozenset(combo): float(np.prod(marginals[list(combo)]))
            for k in range(1, m + 1)
            for combo in combinations(range(5), k)
        })),
    ]


@pytest.mark.parametrize(
    "label, n, top, build", _corpus(), ids=[f"{label}-{n}" for label, n, *_ in _corpus()]
)
def test_boolean_lp_matches_the_all_atom_lp(label, n, top, build):
    zeros_seen = False
    for m in range(1, top + 1):
        system = build(m)
        has_zero = min(system.p.values()) <= 0.0
        zeros_seen |= has_zero
        targets = [("union", None)]
        targets += [("atleast", r) for r in sorted({1, 2, n})]
        targets += [("exactly", r) for r in sorted({0, 1, n})]
        for target, r in targets:
            got = boolean_lp_bounds(system, target, r)
            want = all_atom_lp_bounds(system, target, r)
            if has_zero:
                assert got.lower == pytest.approx(want.lower, abs=1e-12)
                assert got.upper == pytest.approx(want.upper, abs=1e-12)
            else:
                assert repr(got) == repr(want)
    assert zeros_seen == (label not in ("overlapping boxes", "product"))


# ---------------------------------------------------------------------------
# phase 1 from the inclusion-exclusion basis


def _box_cases(n, overlapping, extent=100.0):
    """(system, target, r, truth) at every m for n random 2-d boxes."""
    rng = np.random.default_rng(10 * n + overlapping)
    boxes, measure = _boxes(rng, n, overlapping, extent)
    dist = exact_count_distribution(boxes, measure)
    for m in range(1, n + 1):
        system = boolean_system_from_boxes(boxes, measure, m)
        yield system, "union", None, dist.union()
        yield system, "atleast", 2, dist.at_least(2)
        yield system, "exactly", 1, dist.exactly(1)


BOX_SHAPES = [(n, overlapping) for n in (5, 6, 7) for overlapping in (True, False)]
BOX_IDS = [f"{'overlapping' if o else 'sparse'}-{n}" for n, o in BOX_SHAPES]
# p_I of order 1e-2..1, and the same boxes with p_I of order 1e-10..1e-8,
# where a Bonferroni row's real negative value lies well inside (-1e-7, 0).
EXTENTS = pytest.mark.parametrize("extent", [100.0, 1e6], ids=["p-1", "p-1e-8"])


_PHASE1 = bounding._phase1


def _artificial_start(a, b, crash=None):
    """The phase 1 of a plain LP: every row on an artificial variable."""
    return _PHASE1(a, b)


@EXTENTS
@pytest.mark.parametrize("n, overlapping", BOX_SHAPES, ids=BOX_IDS)
def test_crash_start_agrees_with_the_artificial_start(n, overlapping, extent):
    tol = 1e-12 * (100.0 / extent) ** 2
    for system, target, r, truth in _box_cases(n, overlapping, extent):
        got = boolean_lp_bounds(system, target, r)
        with mock.patch.object(bounding, "_phase1", _artificial_start):
            want = boolean_lp_bounds(system, target, r)
        assert got.lower == pytest.approx(want.lower, abs=tol)
        assert got.upper == pytest.approx(want.upper, abs=tol)
        assert got.lower - tol <= truth <= got.upper + tol


def test_a_negative_bonferroni_row_near_zero_takes_an_artificial():
    # p_i = 1e-8 and p_ij = 0.8e-8 on three events (p_123 = 0.7e-8 fits).
    # The start gives x_i = p_i - p_ij - p_ik = -0.6e-8 on each singleton
    # atom; started there anyway, the min of the union is 2.4e-8, above its
    # max.  The LP's bounds are 1.2e-8 and 1.4e-8 around the union 1.3e-8.
    p = {frozenset({i}): 1e-8 for i in range(3)}
    p.update({frozenset(pair): 0.8e-8 for pair in combinations(range(3), 2)})
    system = BooleanSystem(3, 2, p)
    union = boolean_lp_bounds(system, "union")
    assert union.lower == pytest.approx(1.2e-8, rel=1e-12)
    assert union.upper == pytest.approx(1.4e-8, rel=1e-12)
    for target, r in (("union", None), ("atleast", 2), ("exactly", 1)):
        got = boolean_lp_bounds(system, target, r)
        with mock.patch.object(bounding, "_phase1", _artificial_start):
            want = boolean_lp_bounds(system, target, r)
        assert got.lower == pytest.approx(want.lower, rel=1e-12, abs=1e-22)
        assert got.upper == pytest.approx(want.upper, rel=1e-12, abs=1e-22)


# N = 8 at every m, the widest atom LP of the budget, checked on HiGHS.
HIGHS_SHAPES = BOX_SHAPES + [(8, True), (8, False)]


@pytest.mark.parametrize(
    "n, overlapping", HIGHS_SHAPES, ids=BOX_IDS + ["overlapping-8", "sparse-8"]
)
def test_boolean_lps_match_highs(n, overlapping):
    optimize = pytest.importorskip("scipy.optimize")
    solve = bounding.solve_lp
    solved = []

    def against_highs(problem, start=None, *, crash=None):
        got = solve(problem, start, crash=crash)
        sign = 1.0 if problem.sense == "min" else -1.0
        want = optimize.linprog(
            sign * problem.objective,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=(0, None),
            method="highs",
        )
        assert want.status == 0
        assert got.value == pytest.approx(sign * want.fun, abs=1e-9)
        solved.append(problem.sense)
        return got

    with mock.patch.object(bounding, "solve_lp", against_highs):
        for system, target, r, _ in _box_cases(n, overlapping):
            boolean_lp_bounds(system, target, r)
    assert len(solved) == 6 * n


@EXTENTS
@pytest.mark.parametrize("n, overlapping", BOX_SHAPES, ids=BOX_IDS)
def test_a_full_information_boolean_pair_makes_no_pivot(n, overlapping, extent):
    tol = 1e-12 * (100.0 / extent) ** 2
    with _reported_pivots() as pivots:
        for system, target, r, truth in _box_cases(n, overlapping, extent):
            if system.m == n:
                pair = boolean_lp_bounds(system, target, r)
                assert pair.lower == pytest.approx(truth, abs=tol)
                assert pair.upper == pytest.approx(truth, abs=tol)
    assert pivots == [0] * 6  # three targets, a min and a max each


@pytest.mark.parametrize("draw", range(3))
def test_a_middle_order_union_pair_stays_under_the_pivot_ceiling(draw):
    # (8, 4) on overlapping boxes, the slowest shape the atom budget
    # admits.  Priced by the most negative reduced cost, these union pairs
    # took 2,839-6,074 pivots; by steepest edge they take 373-534.
    boxes, measure = _boxes(np.random.default_rng(1000 + draw), 8, True)
    union = exact_count_distribution(boxes, measure).union()
    system = boolean_system_from_boxes(boxes, measure, 4)
    with _reported_pivots() as pivots:
        pair = boolean_lp_bounds(system, "union")
    assert len(pivots) == 2 and sum(pivots) <= 2000
    assert pair.lower - 1e-12 <= union <= pair.upper + 1e-12


def test_a_kept_row_whose_own_atom_was_dropped_takes_an_artificial():
    # The 1e-12 monotonicity slack admits p_01 > 0 = p_1.  The zero row of
    # {1} drops atom {0, 1}, the own atom of the kept row {0, 1}.
    system = BooleanSystem(
        2, 2, {frozenset({0}): 0.7, frozenset({1}): 0.0, frozenset({0, 1}): 1e-13}
    )
    phase1 = bounding._phase1
    crashes = []

    def recorded(a, b, crash=None):
        crashes.append(list(crash))
        return phase1(a, b, crash)

    with mock.patch.object(bounding, "_phase1", recorded):
        pairs = [
            boolean_lp_bounds(system, "union"),
            boolean_lp_bounds(system, "atleast", 1),
            boolean_lp_bounds(system, "exactly", 0),
        ]
    # columns: atoms {} and {0}; rows: total mass, {0}, {0, 1}
    assert crashes == [[0, 1, -1]] * 3
    assert [(pair.lower, pair.upper) for pair in pairs[:2]] == [(0.7, 0.7)] * 2
    assert pairs[2].lower == pairs[2].upper == pytest.approx(0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# the atom LP from the system's orders, against the frozenset assembly

ROOT = Path(__file__).parent.parent


def _admitted(n):
    """The orders m whose atom LP over n events the cell budget admits."""
    admitted = []
    for m in range(1, n + 1):
        try:
            check_atom_cap(n, m)
        except InputError:
            break
        admitted.append(m)
    return admitted


def _file_systems():
    """Ledger systems of every geometry golden and both fixtures, at every admitted m."""
    paths = sorted((ROOT / "tests" / "golden").glob("*.json")) + sorted(
        (ROOT / "fixtures").glob("*.json")
    )
    for path in paths:
        doc = load_document(str(path))
        if path.name == "cli_stdout.json" or "boxes" not in doc:
            continue
        problem = parse_geometry(doc)
        for m in _admitted(len(problem.boxes)):
            yield boolean_system_from_boxes(problem.boxes, problem.measure, m)


def _flat_piecewise_systems():
    """Ledger systems under marginals flat on [40, 60]: the tuples whose meet
    lies there on an axis are kept by the walk but carry probability 0.0."""
    flat = PiecewiseCdf((0.0, 40.0, 60.0, 100.0), (0.0, 0.5, 0.5, 1.0))
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        n, dim = 6 + seed % 3, 2 + seed % 2
        lower = rng.uniform(0.0, 70.0, (n, dim))
        upper = lower + rng.uniform(10.0, 50.0, (n, dim))
        boxes = [Box(f"A{i}", tuple(lo), tuple(hi))
                 for i, (lo, hi) in enumerate(zip(lower, upper))]
        for m in _admitted(n):
            yield boolean_system_from_boxes(boxes, ProductMeasure((flat,) * dim), m)


def _slack_systems():
    """Dict systems whose zero p_I are moved within the 1e-12 slack: to
    -5e-13, a zero row, or to 5e-13, a kept row whose own atom and
    supersets' atoms a zero facet drops."""
    for seed in range(12):
        rng = np.random.default_rng(400 + seed)
        n = 3 + seed % 4
        forbidden = [tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))]
        for m in range(1, n + 1):
            p = _atom_p(rng, n, m, forbidden + [(int(rng.integers(n)),)] * (seed % 2))
            for key, value in p.items():
                if value == 0.0:
                    p[key] = float(rng.choice([0.0, -5e-13, 5e-13]))
            yield BooleanSystem(n, m, p)


def _assert_atom_lp_matches_the_reference(system):
    got = bounding._atom_lp(system)
    want = reference_boolean_rows(system)
    for got_part, want_part in zip(got, want):
        assert got_part.dtype == want_part.dtype and got_part.shape == want_part.shape
        assert got_part.tobytes() == want_part.tobytes()


def test_atom_lp_matches_the_frozenset_assembly():
    seen = {"files": 0, "m = 1": 0, "zero ledger rows": 0, "dropped own atom": 0, "slack": 0}
    for system in _file_systems():
        _assert_atom_lp_matches_the_reference(system)
        seen["files"] += 1
        seen["m = 1"] += system.m == 1
    for n, overlapping in HIGHS_SHAPES:
        for system, target, _, _ in _box_cases(n, overlapping):
            if target == "union":
                _assert_atom_lp_matches_the_reference(system)
    for system in _flat_piecewise_systems():
        _assert_atom_lp_matches_the_reference(system)
        seen["zero ledger rows"] += any((values == 0.0).any() for _, values in system.orders)
    for system in _slack_systems():
        _assert_atom_lp_matches_the_reference(system)
        values = np.array(list(system.p.values()))
        seen["slack"] += bool(((values < 0.0) | (values == 5e-13)).any())
        seen["dropped own atom"] += bool((bounding._atom_lp(system)[2] < 0).any())
    assert min(seen.values()) > 0, seen


def _first_error(call):
    try:
        call()
    except InputError as exc:
        return str(exc)
    return None


def test_ledger_checks_raise_the_dict_messages(monkeypatch):
    # One ledger probability moved out of range or above one of its
    # facets', or to within the slack of either: the system from the
    # ledger and the system from the dict of the same p both raise what
    # the per-subset reference checks raise, or pass where they pass.
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        boxes, measure = _boxes(rng, int(rng.integers(3, 7)), bool(seed % 2))
        n = len(boxes)
        m = int(rng.integers(1, n + 1))
        ledger = enumerate_tuples(boxes, EmptinessMode.POSITIVE_MEASURE, m, measure)
        p = {}
        for k in range(1, m + 1):
            given = ledger.probabilities(k)
            for combo in combinations(range(n), k):
                p[frozenset(combo)] = given.get(combo, 0.0)
        monkeypatch.setattr(bounding, "enumerate_tuples", lambda *args: ledger)
        for slack in (2e-12, 5e-13, -2e-12, -5e-13):
            level = ledger.levels[int(rng.integers(1, len(ledger.levels) + 1))]
            row = int(rng.integers(len(level)))
            members = frozenset(level.indices[row].tolist())
            if len(members) > 1 and slack > 0:  # above the facet without one member
                value = p[members - {int(rng.choice(sorted(members)))}] + slack
            else:  # out of [0, 1], or not by more than the slack
                value = (1.0 if slack > 0 else 0.0) + slack
            kept = level.probability
            level.probability = kept.copy()
            level.probability[row] = value
            moved = {**p, members: value}
            want = _first_error(lambda: reference_boolean_checks(n, m, moved))
            assert _first_error(lambda: BooleanSystem(n, m, moved)) == want
            assert _first_error(lambda: boolean_system_from_boxes(boxes, measure, m)) == want
            level.probability = kept
            kind = "passes" if want is None else "range" if "probability" in want else "facet"
            outcomes.add(kind)
    assert outcomes == {"passes", "range", "facet"}


def _product_p(marginals, m):
    """p of independent events with these marginals, every subset to order m."""
    return {
        frozenset(combo): float(np.prod([marginals[i] for i in combo]))
        for k in range(1, m + 1)
        for combo in combinations(range(len(marginals)), k)
    }


@pytest.mark.parametrize("n, m, edits, message", [
    pytest.param(3, 2, {frozenset({0}): 1.5, frozenset({1, 2}): None},
                 "missing p entry for subset [1, 2]", id="missing subset and p out of range"),
    pytest.param(3, 3, {frozenset({0, 1, 2}): -0.25, frozenset({2}): 1.25},
                 "p[[2]] = 1.25 is not a probability", id="p out of range at two orders"),
    pytest.param(4, 3, {frozenset({1, 2, 3}): 0.3},
                 "p[[1, 2, 3]] exceeds p[[2, 3]]", id="three exceeded facets of one row"),
    pytest.param(10, 2, {frozenset({3, 9}): 0.5},
                 "p[[3, 9]] exceeds p[[9]]", id="two exceeded facets, a member past 8"),
    pytest.param(4, 3, {frozenset({0, 1, 3}): 0.3, frozenset({2, 3}): 0.3},
                 "p[[2, 3]] exceeds p[[3]]", id="facet faults at two orders"),
    pytest.param(3, 2, {frozenset({0}): 2.0, frozenset({0, 5}): 0.1},
                 "subset [0, 5] out of range", id="bad key after a range fault"),
])
def test_first_fault_of_several(n, m, edits, message):
    # The first fault in the documented order, from both paths and the
    # reference: key faults, then a missing subset, then p out of range,
    # then a facet, each by order and then row, naming the facet without
    # the earliest member it exceeds.
    p = _product_p(((0.5, 0.4, 0.3, 0.2) * 3)[:n], m)
    for key, value in edits.items():
        if value is None:
            del p[key]
        else:
            p[key] = value
    assert _first_error(lambda: reference_boolean_checks(n, m, p)) == message
    assert _first_error(lambda: BooleanSystem(n, m, p)) == message


@pytest.mark.parametrize("p, message", [
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): 0.1, (1, 0): 0.4, (0, 0, 1): 0.2},
                 "conflicting values for subset [0, 1]", id="three keys of one subset"),
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): 0.2, (1, 0): 0.2 + 2e-12},
                 "conflicting values for subset [0, 1]", id="just past the slack"),
    pytest.param({(0,): 1.5, (0, 1): 0.1, (1, 0): 0.3},
                 "conflicting values for subset [0, 1]", id="before a missing subset and a range fault"),
    pytest.param({(0,): 0.5, (0, 1): 0.1, (1, 0): 0.3, (0, 5): 0.1},
                 "conflicting values for subset [0, 1]", id="before a later bad key"),
    pytest.param({(0,): 0.5, (0, 5): 0.1, (0, 1): 0.1, (1, 0): 0.3},
                 "subset [0, 5] out of range", id="after an earlier bad key"),
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): float("nan"), (1, 0): 0.3},
                 "conflicting values for subset [0, 1]", id="NaN then a probability"),
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): float("nan"), (1, 0): float("nan")},
                 "conflicting values for subset [0, 1]", id="NaN twice"),
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): float("inf"), (1, 0): float("inf")},
                 "p[[0, 1]] = inf is not a probability", id="an equal infinity"),
    pytest.param({(0,): 0.5, (1,): 0.5, (0, 1): 0.2, (1, 0): 0.2 + 5e-13, frozenset({0, 1}): 0.2},
                 None, id="repeats within the slack"),
])
def test_conflicting_repeats_of_a_subset(p, message):
    # A subset given twice with values more than 1e-12 apart raises in
    # dict order, as hunter_worsley_upper does for its pairs, and so does
    # a NaN, which a later value would otherwise hide; repeats within the
    # slack pass, and the last value is held.
    assert _first_error(lambda: reference_boolean_checks(2, 2, p)) == message
    assert _first_error(lambda: BooleanSystem(2, 2, p)) == message
    if message is None:
        assert BooleanSystem(2, 2, p).p[frozenset({0, 1})] == list(p.values())[-1]


@pytest.mark.parametrize("value", ["0.5", None, 1 + 0j, np.complex128(0.5), b"0.5"],
                         ids=["str", "None", "complex", "numpy complex", "bytes"])
@pytest.mark.parametrize("call, where", [
    pytest.param(
        lambda v: BooleanSystem(2, 2, {**_product_p((0.5, 0.4), 2), frozenset({1, 0}): v}),
        "p[[0, 1]]", id="BooleanSystem"),
    pytest.param(
        lambda v: hunter_worsley_upper(0.9, {(0, 1): 0.1, (1, 2): v}, 3),
        "pairwise probability of pair (1, 2)", id="hunter_worsley_upper"),
])
def test_values_that_are_not_real_numbers_raise(call, where, value):
    with pytest.raises(InputError) as info:
        call(value)
    assert str(info.value) == f"{where} = {value!r} is not a real number"


def test_bool_and_numpy_scalar_values_are_accepted():
    for value in (True, np.True_, np.float32(0.25), np.float64(0.25), np.int64(0)):
        p = {**_product_p((1.0, 1.0), 2), frozenset({0, 1}): value}
        assert BooleanSystem(2, 2, p).p[frozenset({0, 1})] == float(value)
        assert hunter_worsley_upper(0.9, {(0, 1): value}, 2) == 0.9 - float(value)


def test_dict_orders_keep_their_layout():
    # A dict system holds per order every subset as an (F, k) intp array
    # in lexicographic order, and its p as float64, as combinations lays
    # them out.
    for n in range(1, 10):
        p = _product_p(np.linspace(0.9, 0.1, n).tolist(), n)
        for m in range(1, n + 1):
            system = BooleanSystem(n, m, {key: v for key, v in p.items() if len(key) <= m})
            assert len(system.orders) == m
            for k, (subsets, values) in enumerate(system.orders, 1):
                combos = list(combinations(range(n), k))
                want = np.array(combos)
                want_p = np.array([p[frozenset(combo)] for combo in combos])
                assert subsets.dtype == np.intp and values.dtype == np.float64
                assert subsets.shape == want.shape and values.shape == want_p.shape
                assert subsets.tobytes() == want.tobytes()
                assert values.tobytes() == want_p.tobytes()


def test_dict_and_ledger_systems_build_one_atom_lp():
    # The dict system of a ledger system's p, zero rows included, gives
    # its atom LP byte for byte.
    zero_rows = 0
    for system in chain(_file_systems(), _flat_piecewise_systems()):
        again = BooleanSystem(system.n_events, system.m, system.p)
        for got, want in zip(bounding._atom_lp(again), bounding._atom_lp(system)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        zero_rows += any((values == 0.0).any() for _, values in again.orders)
    assert zero_rows


# ---------------------------------------------------------------------------
# crash-started reads against the full-body reads


def _reads_corpus():
    """(system, target, r) of Boolean bound pairs, zero p_I and small p_I included."""
    for n, overlapping in BOX_SHAPES:
        for extent in (100.0, 1e6):
            for system, target, r, _ in _box_cases(n, overlapping, extent):
                yield system, target, r
    for label, n, top, build in _corpus():
        for m in range(1, top + 1):
            system = build(m)
            for target, r in (("union", None), ("atleast", 2), ("exactly", 1)):
                yield system, target, r
    for draw in range(3):  # (8, 4) on overlapping boxes, the slowest admitted shape
        boxes, measure = _boxes(np.random.default_rng(1000 + draw), 8, True)
        yield boolean_system_from_boxes(boxes, measure, 4), "union", None


def test_crash_started_pairs_match_the_full_body_reads():
    # Each optimum of a crash start reads x_B by one right-hand-side solve,
    # after a phase 2 from phase 1's final tableau; both ends of every
    # Boolean bound pair stay within 1e-12 of the fresh B^-1 [A | b] reads.
    pairs = 0
    for system, target, r in _reads_corpus():
        got = boolean_lp_bounds(system, target, r)
        with mock.patch.object(bounding, "_phase2", full_body_phase2):
            want = boolean_lp_bounds(system, target, r)
        assert got.lower == pytest.approx(want.lower, abs=1e-12)
        assert got.upper == pytest.approx(want.upper, abs=1e-12)
        pairs += 1
    assert pairs == 354


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_moment_lps_keep_the_full_body_reads(data):
    # The moment LPs, which pass no crash basis, read as before bit for bit.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, min(n, 6)))
    moments = moments_from_distribution(random_count_distribution(rng, n), m)
    r = data.draw(st.integers(1, n))
    bound = data.draw(st.sampled_from([
        lambda: union_bounds(moments, m, include_p0=True),
        lambda: atleast_r_bounds(moments, r, m),
        lambda: exactly_r_bounds(moments, r - 1, m),
        lambda: q_atleast_bounds(moments, r, m),
    ]))
    got = bound()
    with mock.patch.object(bounding, "_phase2", full_body_phase2):
        want = bound()
    assert repr(got) == repr(want)


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
        a_eq, b_eq = _moment_rows(moments, m, 0)
        assert np.abs(a_eq @ p - b_eq).max() <= TOL
        a_eq, b_eq = _moment_rows(moments, m, 1, moments.q)
        assert np.abs(a_eq @ p[1:] - b_eq).max() <= TOL


def test_bound_pair_rejects_inverted_bounds():
    with pytest.raises(ArithmeticError):
        BoundPair(0.5, 0.3, "test")


def test_no_bound_is_negative_zero():
    # A maximum of 0 came back as the negated minimum of -c, that is -0.0.
    for pair in (
        union_bounds(MomentVector(2, (0.0, 0.0)), 2, include_p0=True),
        union_bounds(MomentVector(2, (0.0,)), 1),
    ):
        assert (repr(pair.lower), repr(pair.upper)) == ("0.0", "0.0")


def test_moment_lp_budget(monkeypatch):
    # union_bounds with p_0 at m = 1 has 2 rows over p_0..p_N.
    monkeypatch.setattr(bounding, "MOMENT_CELL_BUDGET", 8)
    assert union_bounds(MomentVector(3, (0.5,)), 1, include_p0=True).upper == 0.5
    with pytest.raises(InputError, match="2 rows and 5 columns has 10 cells"):
        union_bounds(MomentVector(4, (0.5,)), 1, include_p0=True)
    monkeypatch.undo()
    with pytest.raises(InputError, match="budget of 1000000"):
        atleast_r_bounds(MomentVector(10**9, (0.5, 0.1)), 1)
