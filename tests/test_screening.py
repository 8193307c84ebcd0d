import random
import tracemalloc
from itertools import combinations
from math import comb, fsum, inf, ldexp
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxbounds import screening
from boxbounds.bounding import boolean_system_from_boxes, pairwise_probabilities
from boxbounds.cli import load_document, parse_geometry
from boxbounds.errors import InputError
from boxbounds.geometry import (
    Box,
    EmptinessMode,
    box_vertices,
    is_nonempty,
    meet_vertices,
    vertex_pair_nonempty,
)
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

from helpers import (
    ULP_KNOTS,
    ULP_VALUES,
    brute_force_tuples,
    random_instance,
    reference_order_sum,
    reference_signed_total,
)

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
    a piecewise-linear one with a flat segment and knot values whose
    interpolation from the left segment rounds (0.1 + 1.0 * 0.35 < 0.45),
    and one with a different marginal per axis (that uniform, that
    piecewise CDF, a shifted uniform), so a CDF taken on the wrong axis
    changes a probability."""
    support = UniformInterval(-1.0, 1.5)
    uniform = ProductMeasure((support,) * dim)
    cdf = PiecewiseCdf((-1.0, 0.0, 0.5, 1.0, 2.0), (0.0, 0.1, 0.45, 0.45, 1.0))
    piecewise = ProductMeasure((cdf,) * dim)
    mixed = ProductMeasure((support, cdf, UniformInterval(-0.5, 2.5))[:dim])
    return uniform, piecewise, mixed


# Lowers on axis 0 and uppers on axis 1 alternate 0.0 and -0.0 across five
# boxes that all meet.
SIGNED_ZERO_TIES = [
    Box("B0", (0.0, -1.0), (1.0, -0.0)),
    Box("B1", (-0.0, -inf), (inf, 0.0)),
    Box("B2", (0.0, -1.0), (2.0, -0.0)),
    Box("B3", (-0.0, -2.0), (1.0, 0.0)),
    Box("B4", (0.0, -0.5), (0.5, 0.0)),
]
# Lowers tie at 0.5 on axis 0 and uppers at 1.0 on axis 2; B2 and B3 only
# touch on axis 1, so the modes differ.
FINITE_TIES = [
    Box("B0", (0.5, 0.0, -1.0), (2.0, 1.0, 1.0)),
    Box("B1", (0.5, -1.0, 0.0), (1.5, 2.0, 1.0)),
    Box("B2", (0.5, 0.5, -1.0), (inf, 1.0, 1.0)),
    Box("B3", (0.5, 0.0, 0.0), (1.0, 0.5, 1.0)),
]
# Lowers tie at -inf and uppers at inf on axis 0, and both ends on axis 1.
INFINITE_TIES = [
    Box("B0", (-inf, -inf), (inf, 1.0)),
    Box("B1", (-inf, 0.0), (inf, inf)),
    Box("B2", (-inf, -1.0), (inf, 2.0)),
    Box("B3", (-inf, -inf), (1.0, inf)),
]


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


@given(box_lists(), st.sampled_from(list(EmptinessMode)), st.integers(0, 8), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
@example([], STRICT, 3, 0)
@example([Box("A", (0.0, 0.0), (1.0, 1.0)), Box("B", (1.0, 0.0), (2.0, 1.0))], CLOSED, 2, 1)
@example([Box("A", (0.5, 0.0), (0.5, 1.0)), Box("B", (0.0, 0.0), (1.0, 1.0))], CLOSED, 2, 2)
@example([Box("A", (-0.0, -inf), (inf, 0.0)), Box("B", (0.0, -1.0), (2.0, -0.0))] * 2, CLOSED, 4, 1)
@example([Box("A", (-1.0, 0.0, 0.0), (1.0, 2.0, 2.0)), Box("B", (0.0, 0.5, 1.0), (2.0, 1.0, inf))],
         CLOSED, 2, 3)
# Three or more members tie on one coordinate at orders 3 and up: the walk
# picks its meets by rank, and a tie must go to the smaller index, as the
# strict comparison of meet_vertices keeps the first.
@example(SIGNED_ZERO_TIES, CLOSED, 5, 0)
@example(SIGNED_ZERO_TIES, CLOSED, 5, 2)
@example(SIGNED_ZERO_TIES, STRICT, 5, 0)
@example(SIGNED_ZERO_TIES, STRICT, 5, 3)
@example(FINITE_TIES, CLOSED, 4, 0)
@example(FINITE_TIES, STRICT, 4, 2)
@example(INFINITE_TIES, CLOSED, 4, 1)
@example(INFINITE_TIES, STRICT, 4, 0)
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


def test_pair_mask_on_every_interval_of_a_grid():
    # Every [a, b] over signed zeros, infinities, touching ends and zero
    # widths: the per-box verdicts and the pair mask against the meets.
    grid = [-inf, -1.0, -0.0, 0.0, 1.0, 2.0, inf]
    boxes = [Box(f"I{i}", (a,), (b,)) for i, (a, b) in enumerate(combinations(grid, 2))]
    boxes += [Box(f"P{i}", (a,), (a,)) for i, a in enumerate(grid)]
    vertices = box_vertices(boxes)
    for mode in EmptinessMode:
        passes, later = screening._pair_mask(vertices, mode)
        assert passes.tolist() == [is_nonempty(box, mode) for box in boxes]
        expected = np.zeros_like(later)
        for i, j in combinations(range(len(boxes)), 2):
            expected[i, j] = vertex_pair_nonempty(*meet_vertices([boxes[i], boxes[j]]), mode)
        assert (later == expected).all()


def _streamed_screen_boxes():
    """The 2,000 sparse 2-d boxes the CI streamed-screen step draws."""
    rng = random.Random(2000)
    boxes = []
    for i in range(2000):
        lower = [rng.uniform(0.0, 990.0) for _ in range(2)]
        upper = [x + rng.uniform(1.0, 10.0) for x in lower]
        boxes.append(Box(f"A{i}", lower, upper))
    return boxes


def test_pair_pass_memory_on_sparse_boxes():
    # Before the per-axis pass, enumerate_tuples peaked at 8.94 MiB here
    # (Python 3.11, numpy 2.4), set by the walk's (R, N) candidate gather next to the mask, and
    # build_graph at N² bytes.  The pass adds one reused (N, N) buffer, so
    # the walk's peak stays and build_graph's is 2N² bytes; a pass that
    # allocated a fresh (N, N) array per axis would take about 3N².
    boxes = _streamed_screen_boxes()
    n = len(boxes)
    measure = ProductMeasure((UniformInterval(0.0, 1000.0),) * 2)
    peaks = {}
    for name, call in (
        ("walk", lambda: enumerate_tuples(boxes, STRICT, n, measure)),
        ("graph", lambda: build_graph(boxes, STRICT)),
    ):
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["walk"] <= 1.1 * 8.94 * 2**20
    assert peaks["graph"] <= 2 * n * n + 2**20


def test_ledger_holds_only_its_columns():
    # 16 boxes that all share the centre of the cube keep every one of the
    # 2^16 - 1 tuples.  Until its indices or vertices are read, a term
    # keeps its parent row, its added box and its probability, 8 bytes
    # each, so neither those columns nor the CDF values the walk computes
    # on the way may stay reachable from the ledger.
    d = 3
    rng = np.random.default_rng(16)
    lowers = rng.uniform(0.0, 0.4, (16, d)).tolist()
    uppers = rng.uniform(0.6, 1.0, (16, d)).tolist()
    boxes = [Box(f"A{i}", tuple(lo), tuple(hi)) for i, (lo, hi) in enumerate(zip(lowers, uppers))]
    cdf = PiecewiseCdf((0.0, 0.3, 0.5, 1.0), (0.0, 0.4, 0.4, 1.0))
    measure = ProductMeasure((cdf, UniformInterval(0.0, 1.0), cdf))
    tracemalloc.start()
    try:
        ledger = enumerate_tuples(boxes, STRICT, len(boxes), measure)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ledger.term_count() == 2**16 - 1
    columns = 3 * 8 * ledger.term_count()
    # The slack covers the array headers and the ledger's small objects.
    assert held <= 1.1 * columns + 64 * 2**10
    # Read, the columns are those of the walk's rows.
    level = ledger.levels[16]
    assert level.indices.tolist() == [list(range(16))]
    assert level.lower.tolist() == [np.max(lowers, axis=0).tolist()]
    assert level.upper.tolist() == [np.min(uppers, axis=0).tolist()]


def _dense_draw(seed, dim, n, side):
    """n boxes in [0, 100]^dim with sides 0.6-1.4 times side, drawn as
    perfbench's dense-ledger shapes are, without the redraw."""
    rng = np.random.default_rng(seed)
    sides = rng.uniform(0.6 * side, 1.4 * side, (n, dim))
    lower = rng.uniform(0.0, 1.0, (n, dim)) * (100.0 - sides)
    upper = (lower + sides).round(4).tolist()
    return [Box(f"A{i}", lo, hi) for i, (lo, hi) in enumerate(zip(lower.round(4).tolist(), upper))]


def _piecewise_measure(seed, dim):
    """Piecewise-linear marginals on [0, 100] as perfbench's dense 3-d file draws them."""
    rng = np.random.default_rng(seed)
    return ProductMeasure(tuple(
        PiecewiseCdf((0.0, *sorted(rng.uniform(5.0, 95.0, 3).round(3)), 100.0),
                     (0.0, 0.2, 0.45, 0.7, 1.0))
        for _ in range(dim)
    ))


def test_ledger_rows_match_their_meets_at_the_benchmark_density():
    # A 44-box 2-d draw under a uniform measure and a 40-box 3-d draw under
    # piecewise-linear marginals, each with 6,000-9,000 retained terms.
    piecewise = _piecewise_measure(3, 3)
    uniform = ProductMeasure((UniformInterval(0.0, 100.0),) * 2)
    for boxes, measure in ((_dense_draw(7, 2, 44, 25.5), uniform),
                           (_dense_draw(1, 3, 40, 32.0), piecewise)):
        ledger = enumerate_tuples(boxes, STRICT, len(boxes), measure)
        assert 6_000 <= ledger.term_count() <= 9_000
        signed = []
        for k in sorted(ledger.levels):
            for entry in ledger.entries(k):
                lower, upper = meet_vertices([boxes[i] for i in entry.indices])
                assert (repr(entry.box.lower), repr(entry.box.upper)) == (repr(lower), repr(upper))
                p = measure.rect_probability(lower, upper)
                assert repr(entry.probability) == repr(p)
                signed.append(p if k % 2 else -p)
        assert screened_union(boxes, measure, STRICT).q == fsum(signed)


# Every finite double up to 2**1000, subnormals included; values spread
# over the whole exponent range; and edge values: signed zeros, the
# smallest subnormal, the smallest normal and the largest double below 1.
SUMMANDS = (
    st.floats(-(2.0**1000), 2.0**1000, allow_nan=False, allow_subnormal=True)
    | st.builds(ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000))
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
                       -1.0, 0.9999999999999999, 2.0**1000, -(2.0**1000)])
)


@st.composite
def grouped_summands(draw):
    """(values, groups, n_groups), some values cancelled by their negation."""
    n_groups = draw(st.integers(1, 5))
    values = draw(st.lists(SUMMANDS, max_size=60))
    if values:
        values += [-v for v in draw(st.lists(st.sampled_from(values), max_size=20))]
    groups = draw(st.lists(st.integers(0, n_groups - 1), min_size=len(values),
                           max_size=len(values)))
    return np.array(values, dtype=float), np.array(groups, dtype=np.intp), n_groups


def _assert_bins_sum_as_fsum(values, groups, n_groups):
    """fsum of each group's bins, and of all bins signed by group parity as
    the ledger's alternating total signs its orders, is fsum of the values."""
    bins = screening.exact_bins(values, groups, n_groups)
    assert len(bins) == n_groups
    for g, group_bins in enumerate(bins):
        assert (group_bins != 0.0).all()
        assert repr(fsum(group_bins.tolist())) == repr(fsum(values[groups == g].tolist()))
    signed = [(b if g % 2 == 0 else -b).tolist() for g, b in enumerate(bins)]
    expected = fsum(np.where(groups % 2 == 0, values, -values).tolist())
    assert repr(fsum(x for b in signed for x in b)) == repr(expected)


@given(grouped_summands())
@settings(max_examples=500, deadline=None)
@example((np.array([]), np.array([], dtype=np.intp), 2))
@example((np.array([-0.0, -0.0, 0.0]), np.array([0, 1, 1]), 3))
@example((np.array([1.0, 2.0**-53, -(2.0**-53), 2.0**-105]), np.array([0, 0, 0, 0]), 1))
@example((np.array([5e-324, 5e-324, -1e-320, 2.0**1000]), np.array([0, 0, 1, 1]), 2))
def test_exact_bins_sum_as_fsum(case):
    _assert_bins_sum_as_fsum(*case)


def test_exact_bins_on_a_million_terms():
    # Probabilities spread over many exponents, a thousand subnormal or
    # tiny ones, a seventh negated, in ten groups.
    rng = np.random.default_rng(10**6)
    values = rng.random(10**6) ** 8
    values[::1000] = np.ldexp(rng.random(1000), rng.integers(-1074, 0, 1000))
    values[::7] *= -1.0
    _assert_bins_sum_as_fsum(values, rng.integers(0, 10, 10**6), 10)


def _sum_corpus():
    """(boxes, measure) of every geometry golden, both fixtures and dense draws."""
    root = Path(__file__).parent.parent
    paths = sorted((root / "tests" / "golden").glob("*.json")) + sorted(
        (root / "fixtures").glob("*.json")
    )
    docs = [load_document(str(path)) for path in paths if path.name != "cli_stdout.json"]
    problems = [parse_geometry(doc) for doc in docs if "boxes" in doc]
    corpus = [(problem.boxes, problem.measure) for problem in problems]
    uniform = ProductMeasure((UniformInterval(0.0, 100.0),) * 2)
    for seed in range(1, 6):
        corpus.append((_dense_draw(seed, 2, 44, 25.5), uniform))
        corpus.append((_dense_draw(seed, 3, 40, 32.0), _piecewise_measure(seed, 3)))
    return corpus


def test_ledger_sums_match_the_reference_bodies():
    # S_k and the alternating total of every ledger, whole and capped at
    # order 3 as bounds --m 3 walks it, in both modes, equal one fsum over
    # the terms bit for bit.
    for boxes, measure in _sum_corpus():
        for mode in EmptinessMode:
            for max_order in (len(boxes), 3):
                ledger = enumerate_tuples(boxes, mode, max_order, measure)
                for k in range(1, max_order + 2):
                    assert repr(ledger.order_sum(k)) == repr(reference_order_sum(ledger, k))
                assert repr(ledger.signed_total()) == repr(reference_signed_total(ledger))


# A non-monotone CDF would give the measure-zero meet of boxes that end
# and start one ULP apart at a knot a positive probability.
ULP_CDF = PiecewiseCdf(ULP_KNOTS, ULP_VALUES)
ULP_BELOW_KNOT = float(np.nextafter(ULP_KNOTS[2], 0.0))


@given(box_lists(), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
@example([Box("A", (0.0,), (ULP_BELOW_KNOT,)), Box("B", (ULP_KNOTS[2],), (11.0,))], 2, 4)
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
