import tracemalloc
from itertools import combinations
from math import comb, fsum, inf

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxbounds.bounding import boolean_system_from_boxes, pairwise_probabilities
from boxbounds.errors import InputError
from boxbounds.geometry import Box, EmptinessMode, meet_vertices, vertex_pair_nonempty
from boxbounds.measure import PiecewiseCdf, ProductMeasure, UniformInterval
from boxbounds.oracle import full_inclusion_exclusion_union
from boxbounds.screening import (
    MASK_BYTE_BUDGET,
    TERM_BUDGET,
    IntersectionGraph,
    MomentVector,
    binomial_moments,
    build_graph,
    clique_number,
    cliques_by_order,
    count_cliques,
    enumerate_tuples,
    pair_verdicts,
    screened_union,
    to_dot,
)

from helpers import ULP_KNOTS, ULP_VALUES, brute_force_tuples, random_instance

STRICT = EmptinessMode.POSITIVE_MEASURE
CLOSED = EmptinessMode.CLOSED


def test_example1_graph(ex1):
    graph = build_graph(ex1[0], STRICT)
    assert graph.n_edges == 8
    assert graph.edges == frozenset(
        {(0, 1), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}
    )
    assert not graph.has_edge(0, 2) and not graph.has_edge(0, 4)


def test_example2_graph(ex2):
    graph = build_graph(ex2[0], STRICT)
    assert graph.edges == frozenset({(1, 6)})


def test_single_box_graph():
    graph = build_graph([Box("B", (0,), (1,))], STRICT)
    assert graph.n_edges == 0


def test_example2_closed_mode_edges(ex2):
    # touching faces count under the closed test
    graph = build_graph(ex2[0], CLOSED)
    assert graph.edges == frozenset({(0, 4), (1, 2), (1, 4), (2, 4), (1, 6)})


def test_example1_tuples(ex1):
    boxes, measure = ex1
    ledger = enumerate_tuples(boxes, STRICT, 5, measure=measure)
    triples = {
        entry.box.id: (entry.box.lower, entry.box.upper)
        for entry in ledger.entries(3)
    }
    assert triples == {
        "A1A2A4": ((5, 6), (6, 7)),
        "A2A3A4": ((3, 4), (4, 7)),
        "A2A3A5": ((2, 4), (4, 5)),
        "A2A4A5": ((3, 4), (6, 5)),
        "A3A4A5": ((3, 3), (4, 5)),
    }
    assert [entry.indices for entry in ledger.entries(3)] == [
        (0, 1, 3), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)
    ]
    quads = ledger.entries(4)
    assert [entry.indices for entry in quads] == [(1, 2, 3, 4)]
    assert (quads[0].box.lower, quads[0].box.upper) == ((3, 4), (4, 5))
    assert quads[0].box.id == "A2A3A4A5"
    assert ledger.entries(5) == []
    assert ledger.term_count() == 19


def test_example2_tuples(ex2):
    boxes, measure = ex2
    ledger = enumerate_tuples(boxes, STRICT, 7, measure=measure)
    assert len(ledger.entries(1)) == 7
    assert [entry.indices for entry in ledger.entries(2)] == [(1, 6)]
    assert ledger.entries(3) == []
    assert ledger.term_count() == 8


def test_max_order_clamped(ex1):
    boxes, measure = ex1
    ledger = enumerate_tuples(boxes, STRICT, 99, measure=measure)
    assert ledger.max_order == 4


def test_ledger_is_lexicographic(ex1):
    boxes, measure = ex1
    ledger = enumerate_tuples(boxes, STRICT, 5)
    assert sorted(ledger.levels) == [1, 2, 3, 4]
    for order in sorted(ledger.levels):
        indices = [entry.indices for entry in ledger.entries(order)]
        assert indices == sorted(indices)
        assert all(len(t) == order for t in indices)


def test_screened_union_example1(ex1):
    result = screened_union(*ex1)
    assert result.terms_used == 19
    assert result.terms_full == 31
    assert result.q == pytest.approx(0.72, abs=1e-12)


def test_screened_union_example2(ex2):
    result = screened_union(*ex2)
    assert result.terms_used == 8
    assert result.terms_full == 127
    assert result.q == pytest.approx(28 / 125, abs=1e-12)


def test_screened_union_single_box():
    measure = ProductMeasure.uniform((0, 0), (10, 10))
    box = Box("B", (1, 1), (3, 2))
    result = screened_union([box], measure)
    assert result.q == pytest.approx(measure.box_probability(box), abs=1e-15)
    assert result.terms_used == 1
    assert result.terms_full == 1


def test_screened_union_no_boxes():
    measure = ProductMeasure.uniform((0,), (1,))
    assert screened_union([], measure) == (0.0, 0, 0)


def test_binomial_moments_example2(ex2):
    moments = binomial_moments(*ex2, m=2)
    assert moments.s[0] == pytest.approx(29 / 125, abs=1e-12)
    assert moments.s[1] == pytest.approx(1 / 125, abs=1e-12)
    assert moments.q == pytest.approx(28 / 125, abs=1e-12)


def test_binomial_moments_example1(ex1):
    moments = binomial_moments(*ex1, m=1)
    assert moments.s == (pytest.approx(1.11, abs=1e-12),)


def test_binomial_moments_no_events():
    measure = ProductMeasure.uniform((0,), (1,))
    moments = binomial_moments([], measure)
    assert moments.n_events == 0
    assert moments.s == ()
    assert moments.q == 0.0


def test_moment_vector_validation():
    with pytest.raises(InputError):
        MomentVector(2, (0.5, 0.1, 0.2))
    mv = MomentVector(3, (0.5, 0.1))
    assert mv.s_k(0) == 1.0
    assert mv.s_k(2) == 0.1
    with pytest.raises(InputError):
        mv.s_k(3)


def test_degenerate_box_pruned_under_strict_mode():
    measure = ProductMeasure.uniform((0, 0), (1, 1))
    boxes = [Box("A", (0, 0), (1, 1)), Box("P", (0.5, 0.2), (0.5, 0.9))]
    graph = build_graph(boxes, STRICT)
    assert graph.n_edges == 0
    ledger = enumerate_tuples(boxes, STRICT, 2, measure=measure)
    assert [entry.indices for entry in ledger.entries(1)] == [(0,)]
    # closed mode keeps it
    closed_ledger = enumerate_tuples(boxes, CLOSED, 2)
    assert len(closed_ledger.entries(1)) == 2
    assert [entry.indices for entry in closed_ledger.entries(2)] == [(0, 1)]


def test_clique_extension_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        boxes, _ = random_instance(rng, max_events=12, max_dim=4)
        for mode in (STRICT, CLOSED):
            ledger = enumerate_tuples(boxes, mode, len(boxes))
            for order in range(1, len(boxes) + 1):
                expected = brute_force_tuples(boxes, mode, order)
                got = [entry.indices for entry in ledger.entries(order)]
                assert got == expected


def test_screened_union_matches_full_inclusion_exclusion():
    rng = np.random.default_rng(3)
    for _ in range(25):
        boxes, measure = random_instance(rng, max_events=10)
        screened = screened_union(boxes, measure)
        full = full_inclusion_exclusion_union(boxes, measure)
        assert screened.q == pytest.approx(full, abs=1e-12)
        assert screened.terms_used <= screened.terms_full
    # a couple of larger instances
    for _ in range(2):
        boxes, measure = random_instance(rng, max_events=15, min_events=13)
        screened = screened_union(boxes, measure)
        full = full_inclusion_exclusion_union(boxes, measure)
        assert screened.q == pytest.approx(full, abs=1e-12)


def test_pruned_tuples_have_zero_probability():
    rng = np.random.default_rng(5)
    for _ in range(20):
        boxes, measure = random_instance(rng, max_events=8)
        graph = build_graph(boxes, STRICT)
        surviving = {v.indices for v in pair_verdicts(boxes, STRICT) if v.nonempty}
        for verdict in pair_verdicts(boxes, STRICT):
            if verdict.indices in surviving:
                continue
            pruned = measure.rect_probability(verdict.lower, verdict.upper)
            assert pruned == 0.0
        assert {(i, j) for i, j in graph.edges} == surviving


def test_pair_verdicts_example1(ex1):
    rows = pair_verdicts(ex1[0], STRICT)
    assert len(rows) == 10
    verdicts = {row.label: row.nonempty for row in rows}
    assert verdicts["A1A3"] is False and verdicts["A1A5"] is False
    assert sum(verdicts.values()) == 8


def test_graph_facts(ex1, ex2):
    g1 = build_graph(ex1[0], STRICT)
    assert count_cliques(g1, 2) == 8
    assert count_cliques(g1, 3) == 5
    assert count_cliques(g1, 4) == 1
    assert count_cliques(g1, 5) == 0
    assert clique_number(g1) == 4
    g2 = build_graph(ex2[0], STRICT)
    assert clique_number(g2) == 2


def test_cliques_by_order_plain_graph():
    graph = IntersectionGraph(4, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
    orders = cliques_by_order(graph)
    assert orders[2] == [(0, 1), (0, 2), (1, 2), (2, 3)]
    assert orders[3] == [(0, 1, 2)]
    assert clique_number(graph) == 3


def test_graph_validation():
    with pytest.raises(InputError):
        IntersectionGraph(2, frozenset({(1, 0)}))
    with pytest.raises(InputError):
        IntersectionGraph(2, frozenset({(0, 2)}))


def test_to_dot(ex2):
    boxes, _ = ex2
    graph = build_graph(boxes, STRICT)
    dot = to_dot(graph, [box.id for box in boxes])
    assert dot.startswith("graph intersections {")
    assert '"A2" -- "A7";' in dot
    assert dot.count("--") == 1
    assert to_dot(graph, [box.id for box in boxes]) == dot
    with pytest.raises(InputError):
        to_dot(graph, ["X"])


@pytest.mark.parametrize("name", ["A\\", 'A\\"1', "A\\\n1"])
def test_to_dot_rejects_an_id_dot_cannot_quote(name):
    # A backslash at the end or before a quote or a newline cannot be quoted.
    with pytest.raises(InputError, match="cannot be written as a DOT quoted string"):
        to_dot(IntersectionGraph(2, frozenset()), ["B", name])


def test_order_sum_requires_measure(ex1):
    boxes, _ = ex1
    ledger = enumerate_tuples(boxes, STRICT, 2)
    with pytest.raises(InputError):
        ledger.order_sum(2)


def test_order_sums_match_manual_totals(ex1):
    boxes, measure = ex1
    graph = build_graph(boxes, STRICT)
    ledger = enumerate_tuples(boxes, STRICT, 5, measure=measure)
    s2 = fsum(
        measure.rect_probability(*meet_vertices([boxes[i], boxes[j]]))
        for i, j in sorted(graph.edges)
    )
    assert ledger.order_sum(2) == pytest.approx(s2, abs=1e-15)
    assert ledger.order_sum(1) == pytest.approx(1.11, abs=1e-12)


# Grid coordinates: touching faces, zero widths, signed zeros and infinities.
PAIR_COORDS = st.sampled_from([-inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, inf])


@st.composite
def box_lists(draw):
    dim = draw(st.integers(1, 3))
    boxes = []
    for i in range(draw(st.integers(0, 6))):
        a = draw(st.lists(PAIR_COORDS, min_size=dim, max_size=dim))
        b = draw(st.lists(PAIR_COORDS, min_size=dim, max_size=dim))
        boxes.append(Box(f"B{i}", tuple(map(min, a, b)), tuple(map(max, a, b))))
    return boxes


def _pair_measure(dim):
    cdf = PiecewiseCdf((-1.0, 0.5, 2.0), (0.0, 0.3, 1.0))
    return ProductMeasure((cdf,) * dim)


@given(box_lists(), st.sampled_from(list(EmptinessMode)))
@settings(max_examples=300, deadline=None)
@example([], CLOSED)
@example([Box("A", (0.0,), (1.0,))], STRICT)
@example([Box("A", (0.0, 0.0), (1.0, 1.0)), Box("B", (1.0, 0.0), (2.0, 1.0))], CLOSED)
@example([Box("A", (0.0, 0.0), (1.0, 1.0)), Box("B", (1.0, 0.0), (2.0, 1.0))], STRICT)
@example([Box("A", (0.5, 0.0), (0.5, 1.0)), Box("B", (0.0, 0.0), (1.0, 1.0))], CLOSED)
@example([Box("A", (-inf, 0.0), (0.5, inf)), Box("B", (-0.0, -inf), (inf, 0.0))], CLOSED)
def test_pair_pass_matches_meet_vertices(boxes, mode):
    reference = [
        ((i, j), *meet_vertices([boxes[i], boxes[j]]))
        for i, j in combinations(range(len(boxes)), 2)
    ]

    graph = build_graph(boxes, mode)
    assert graph.edges == {
        pair for pair, lower, upper in reference if vertex_pair_nonempty(lower, upper, mode)
    }
    assert all(type(v) is int for edge in graph.edges for v in edge)

    rows = pair_verdicts(boxes, mode)
    # repr tells 0.0 from -0.0, which == does not
    assert [(r.indices, r.label, repr(r.lower), repr(r.upper), r.nonempty) for r in rows] == [
        (
            pair,
            boxes[pair[0]].id + boxes[pair[1]].id,
            repr(lower),
            repr(upper),
            vertex_pair_nonempty(lower, upper, mode),
        )
        for pair, lower, upper in reference
    ]
    for row in rows:
        assert all(type(i) is int for i in row.indices)
        assert all(type(v) is float for v in row.lower + row.upper)
        assert type(row.nonempty) is bool

    # screen takes its pair verdicts from the walk's order 2: every pair
    # that passes the test has both boxes among the walk's roots
    level = enumerate_tuples(boxes, mode, 2).levels.get(2)
    walked = set() if level is None else set(map(tuple, level.indices.tolist()))
    assert walked == graph.edges == {r.indices for r in rows if r.nonempty}

    if boxes:
        measure = _pair_measure(boxes[0].dimension)
        pairwise = pairwise_probabilities(boxes, measure)
        expected = {pair: measure.rect_probability(lower, upper) for pair, lower, upper in reference}
        assert list(pairwise.items()) == list(expected.items())
        assert all(type(p) is float for p in pairwise.values())


def _ledger_measures(dim):
    """A uniform measure whose support misses part of the coordinate grid,
    and a piecewise-linear one with a flat segment and knot values whose
    interpolation from the left segment rounds (0.1 + 1.0 * 0.35 < 0.45)."""
    uniform = ProductMeasure((UniformInterval(-1.0, 1.5),) * dim)
    cdf = PiecewiseCdf((-1.0, 0.0, 0.5, 1.0, 2.0), (0.0, 0.1, 0.45, 0.45, 1.0))
    piecewise = ProductMeasure((cdf,) * dim)
    return uniform, piecewise


def _reference_ledger(boxes, mode, max_order, measure):
    """Every nonempty tuple by brute force: (order, indices, id, lower, upper, p)."""
    rows = []
    for k in range(1, min(max_order, len(boxes)) + 1):
        for combo in combinations(range(len(boxes)), k):
            lower, upper = meet_vertices([boxes[i] for i in combo])
            if vertex_pair_nonempty(lower, upper, mode):
                p = None if measure is None else measure.rect_probability(lower, upper)
                ids = "".join(boxes[i].id for i in combo)
                rows.append((k, combo, ids, repr(lower), repr(upper), repr(p)))
    return rows


@given(box_lists(), st.sampled_from(list(EmptinessMode)), st.integers(0, 8), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
@example([], STRICT, 3, 0)
@example([Box("A", (0.0, 0.0), (1.0, 1.0)), Box("B", (1.0, 0.0), (2.0, 1.0))], CLOSED, 2, 1)
@example([Box("A", (0.5, 0.0), (0.5, 1.0)), Box("B", (0.0, 0.0), (1.0, 1.0))], CLOSED, 2, 2)
@example([Box("A", (-0.0, -inf), (inf, 0.0)), Box("B", (0.0, -1.0), (2.0, -0.0))] * 2, CLOSED, 4, 1)
def test_enumerate_tuples_matches_brute_force(boxes, mode, max_order, measure_kind):
    measure = None
    if boxes and measure_kind:
        measure = _ledger_measures(boxes[0].dimension)[measure_kind - 1]
    ledger = enumerate_tuples(boxes, mode, max_order, measure)
    got = [
        (k, entry.indices, entry.box.id, repr(entry.box.lower), repr(entry.box.upper),
         repr(entry.probability))
        for k in sorted(ledger.levels)
        for entry in ledger.entries(k)
    ]
    assert got == _reference_ledger(boxes, mode, max_order, measure)
    assert ledger.term_count() == len(got)
    assert all(type(i) is int for row in got for i in row[1])
    if measure is not None:
        for k in sorted(ledger.levels):
            expected = fsum(measure.rect_probability(*meet_vertices([boxes[i] for i in t]))
                            for _, t, *_ in (row for row in got if row[0] == k))
            assert ledger.order_sum(k) == expected


def test_enumerate_tuples_stops_at_the_term_budget():
    # 22 identical boxes keep all 2^22 - 1 tuples; the walk stops before
    # the order that would take it past the budget, not after the memory.
    boxes = [Box(f"A{i}", (0.0, 0.0), (1.0, 1.0)) for i in range(22)]
    graph = build_graph(boxes, STRICT)
    with pytest.raises(InputError, match="budget"):
        enumerate_tuples(boxes, STRICT, len(boxes))
    with pytest.raises(InputError, match="budget"):
        clique_number(graph)
    below = enumerate_tuples(boxes, STRICT, 7)
    assert below.term_count() == sum(comb(22, k) for k in range(1, 8))
    assert below.term_count() < TERM_BUDGET


def test_walk_memory_stays_within_the_mask_budget():
    # 600 identical boxes keep all 179,700 pairs; the candidate masks of
    # order 3 would take 3 * 179,700 * 600 bytes (323 MB) to gather.
    boxes = [Box(f"A{i}", (0.0,), (1.0,)) for i in range(600)]
    assert 3 * comb(600, 2) * 600 > MASK_BYTE_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="budget"):
            enumerate_tuples(boxes, STRICT, len(boxes))
        uncapped_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        # The last order of a capped walk gathers no mask at all.
        pairs = enumerate_tuples(boxes, STRICT, 2)
        capped_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert uncapped_peak < 64 * 2**20
    assert len(pairs.levels[2].indices) == 179_700
    assert capped_peak < 32 * 2**20


# A non-monotone CDF would give the measure-zero meet of boxes that end
# and start one ULP apart at a knot a positive probability.
ULP_CDF = PiecewiseCdf(ULP_KNOTS, ULP_VALUES)
ULP_BELOW_KNOT = float(np.nextafter(ULP_KNOTS[2], 0.0))


@given(box_lists(), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
@example([Box("A", (0.0,), (ULP_BELOW_KNOT,)), Box("B", (ULP_KNOTS[2],), (11.0,))], 2, 3)
@example([Box("A", (0.0, 0.0), (1.0, 1.0)), Box("B", (1.0, 0.0), (2.0, 1.0))], 2, 1)
@example([Box("A", (-0.0, -inf), (inf, 0.0)), Box("B", (0.0, -1.0), (2.0, -0.0))] * 2, 4, 2)
def test_boolean_system_matches_brute_force(boxes, m, measure_kind):
    assume(boxes)
    m = min(m, len(boxes))
    dim = boxes[0].dimension
    measure = (*_ledger_measures(dim), ProductMeasure((ULP_CDF,) * dim))[measure_kind - 1]
    system = boolean_system_from_boxes(boxes, measure, m)
    expected = [
        (combo, repr(measure.rect_probability(*meet_vertices([boxes[i] for i in combo]))))
        for k in range(1, m + 1)
        for combo in combinations(range(len(boxes)), k)
    ]
    assert [(tuple(sorted(key)), repr(p)) for key, p in system.p.items()] == expected


@given(st.integers(0, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_cliques_by_order_matches_brute_force(n, data):
    all_pairs = list(combinations(range(n), 2))
    edges = frozenset(data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else [])
    max_order = data.draw(st.none() | st.integers(0, n + 1))
    graph = IntersectionGraph(n, edges)
    cap = n if max_order is None else min(max_order, n)
    expected = {}
    for k in range(1, cap + 1):
        cliques = [t for t in combinations(range(n), k) if all(p in edges for p in combinations(t, 2))]
        if not cliques:
            break
        expected[k] = cliques
    assert cliques_by_order(graph, max_order) == expected
    assert clique_number(graph) == max(cliques_by_order(graph), default=0)
