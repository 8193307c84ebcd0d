"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The random-instance criteria share one 200-instance corpus (n <= 3 dims,
N <= 10 events, uniform measure) generated from a fixed seed.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from boxbounds.bounding import (
    atleast_r_bounds,
    boolean_lp_bounds,
    boolean_system_from_boxes,
    exactly_r_bounds,
    hunter_worsley_upper,
    pairwise_probabilities,
    q_atleast_bounds,
    q_exactly_bounds,
    union_bounds,
)
from boxbounds.geometry import Box, EmptinessMode, meet_vertices, vertex_pair_nonempty
from boxbounds.measure import ProductMeasure
from boxbounds.oracle import (
    CountDistribution,
    exact_count_distribution,
    full_inclusion_exclusion_union,
    monte_carlo_union,
)
from boxbounds.screening import (
    MomentVector,
    binomial_moments,
    build_graph,
    clique_number,
    count_cliques,
    enumerate_tuples,
    pair_verdicts,
    screened_union,
)

from helpers import (
    dawson_sankoff_lower,
    moments_from_distribution,
    random_count_distribution,
    random_instance,
    two_moment_upper,
)

STRICT = EmptinessMode.POSITIVE_MEASURE
LP_TOL = 1e-9
EXACT_TOL = 1e-12

EX1_EXPECTED_PAIRS = {
    "A1A2": ((5.0, 6.0), (6.0, 7.0), True),
    "A1A3": ((5.0, 6.0), (4.0, 8.0), False),
    "A1A4": ((5.0, 6.0), (7.0, 9.0), True),
    "A1A5": ((5.0, 6.0), (9.0, 5.0), False),
    "A2A3": ((2.0, 4.0), (4.0, 7.0), True),
    "A2A4": ((3.0, 4.0), (6.0, 7.0), True),
    "A2A5": ((2.0, 4.0), (6.0, 5.0), True),
    "A3A4": ((3.0, 3.0), (4.0, 8.0), True),
    "A3A5": ((1.0, 3.0), (4.0, 5.0), True),
    "A4A5": ((3.0, 2.0), (7.0, 5.0), True),
}

EX2_NONEMPTY_PAIRS = {"A2A7"}


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


@dataclass
class Instance:
    boxes: list
    measure: ProductMeasure
    dist: CountDistribution
    moments: MomentVector


@pytest.fixture(scope="module")
def suite():
    """200 random instances with their exact count distributions and moments."""
    rng = np.random.default_rng(20260810)
    instances = []
    for _ in range(200):
        boxes, measure = random_instance(rng, max_events=10, max_dim=3)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure)
        instances.append(Instance(boxes, measure, dist, moments))
    return instances


def test_criterion_01_pair_table_reproduction(ex1):
    with criterion(1, "pair verdict table for the five-rectangle fixture, under 1 ms"):
        boxes, _ = ex1
        pair_verdicts(boxes, STRICT)  # warmup
        start = time.perf_counter()
        rows = pair_verdicts(boxes, STRICT)
        elapsed = time.perf_counter() - start
        assert len(rows) == 10
        for row in rows:
            lower, upper, verdict = EX1_EXPECTED_PAIRS[row.label]
            assert row.lower == lower
            assert row.upper == upper
            assert row.nonempty is verdict
        assert elapsed < 1e-3


def test_criterion_02_triples_and_quadruple(ex1):
    with criterion(2, "surviving triples, the single 4-tuple, and 19 of 31 terms"):
        boxes, measure = ex1
        ledger = enumerate_tuples(boxes, STRICT, 5, measure=measure)
        triples = {entry.box.id for entry in ledger.entries(3)}
        assert triples == {"A1A2A4", "A2A3A4", "A2A3A5", "A2A4A5", "A3A4A5"}
        quads = ledger.entries(4)
        assert len(quads) == 1
        assert (quads[0].box.lower, quads[0].box.upper) == ((3.0, 4.0), (4.0, 5.0))
        assert ledger.entries(5) == []
        assert ledger.term_count() == 19
        assert 2 ** len(boxes) - 1 == 31


def test_criterion_03_graph_facts(ex1, ex2):
    with criterion(3, "intersection-graph edge, triangle and clique-number facts"):
        g1 = build_graph(ex1[0], STRICT)
        assert g1.n_edges == 8
        assert count_cliques(g1, 3) == 5
        assert count_cliques(g1, 4) == 1
        assert clique_number(g1) == 4
        g2 = build_graph(ex2[0], STRICT)
        assert g2.edges == frozenset({(1, 6)})
        assert clique_number(g2) == 2


def test_criterion_04_seven_box_pairs_and_union(ex2):
    with criterion(4, "all 21 pair verdicts, 8 of 127 terms, union 28/125 vs oracles"):
        boxes, measure = ex2
        rows = pair_verdicts(boxes, STRICT)
        assert len(rows) == 21
        for row in rows:
            assert row.nonempty is (row.label in EX2_NONEMPTY_PAIRS)
        result = screened_union(boxes, measure)
        assert result.terms_used == 8
        assert result.terms_full == 127
        assert abs(result.q - 28 / 125) <= EXACT_TOL
        assert abs(result.q - full_inclusion_exclusion_union(boxes, measure)) <= EXACT_TOL
        assert abs(result.q - exact_count_distribution(boxes, measure).union()) <= EXACT_TOL


def test_criterion_05_moment_identity(suite):
    with criterion(5, "S_k from screening equals the count-moment sum on 200 instances"):
        for inst in suite:
            for k in range(1, min(4, len(inst.boxes)) + 1):
                assert abs(inst.moments.s_k(k) - inst.dist.binomial_moment(k)) <= EXACT_TOL


def test_criterion_06_lp_sandwich_suite(suite):
    with criterion(6, "every bounding method brackets the oracle and tightens with m"):
        for inst in suite:
            n = len(inst.boxes)
            r = min(2, n)
            exact_union = inst.dist.union()
            exact_atleast = inst.dist.at_least(r)
            exact_exactly = inst.dist.exactly(r)
            previous = {}
            for m in range(1, min(4, n) + 1):
                pairs = {
                    "union": (union_bounds(inst.moments, m), exact_union),
                    "union-p0": (
                        union_bounds(inst.moments, m, include_p0=True),
                        exact_union,
                    ),
                    "atleast": (atleast_r_bounds(inst.moments, r, m), exact_atleast),
                    "exactly": (exactly_r_bounds(inst.moments, r, m), exact_exactly),
                    "q-atleast": (q_atleast_bounds(inst.moments, r, m), exact_atleast),
                    "q-exactly": (q_exactly_bounds(inst.moments, r, m), exact_exactly),
                }
                if n <= 8 and m <= 2:
                    system = boolean_system_from_boxes(inst.boxes, inst.measure, m)
                    pairs["boolean-union"] = (
                        boolean_lp_bounds(system, "union"),
                        exact_union,
                    )
                    pairs["boolean-atleast"] = (
                        boolean_lp_bounds(system, "atleast", r),
                        exact_atleast,
                    )
                    pairs["boolean-exactly"] = (
                        boolean_lp_bounds(system, "exactly", r),
                        exact_exactly,
                    )
                for name, (pair, exact) in pairs.items():
                    assert pair.lower - LP_TOL <= exact <= pair.upper + LP_TOL, name
                    if name in previous:
                        assert pair.lower >= previous[name].lower - LP_TOL, name
                        assert pair.upper <= previous[name].upper + LP_TOL, name
                    previous[name] = pair
            hw = hunter_worsley_upper(
                inst.moments.s_k(1),
                pairwise_probabilities(inst.boxes, inst.measure),
                n,
            )
            assert hw >= exact_union - LP_TOL


def test_criterion_07_sharpness_at_full_order(suite):
    with criterion(7, "m = N moment LPs and Boolean LPs collapse to the exact value"):
        for inst in suite:
            n = len(inst.boxes)
            r = min(2, n)
            for pair, exact in (
                (union_bounds(inst.moments, n), inst.dist.union()),
                (union_bounds(inst.moments, n, include_p0=True), inst.dist.union()),
                (atleast_r_bounds(inst.moments, r, n), inst.dist.at_least(r)),
                (exactly_r_bounds(inst.moments, r, n), inst.dist.exactly(r)),
            ):
                assert abs(pair.lower - exact) <= LP_TOL
                assert abs(pair.upper - exact) <= LP_TOL
        checked = 0
        for inst in suite:
            n = len(inst.boxes)
            if n > 7 or checked >= 40:
                continue
            checked += 1
            system = boolean_system_from_boxes(inst.boxes, inst.measure, n)
            pair = boolean_lp_bounds(system, "union")
            assert abs(pair.lower - inst.dist.union()) <= LP_TOL
            assert abs(pair.upper - inst.dist.union()) <= LP_TOL
        assert checked >= 20


def test_criterion_08_two_moment_closed_forms():
    with criterion(8, "m = 2 LP optima match the closed-form lower/upper bounds"):
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 11))
            p = random_count_distribution(rng, n)
            moments = moments_from_distribution(p, 2)
            s1, s2 = moments.s
            if s1 <= 0.0:
                continue
            checked += 1
            pair = union_bounds(moments, 2)
            assert abs(pair.lower - dawson_sankoff_lower(s1, s2)) <= LP_TOL
            assert abs(pair.upper - two_moment_upper(s1, s2, n)) <= LP_TOL


def test_criterion_09_q_augmentation_dominance(suite):
    with criterion(9, "union-augmented bounds never looser than the plain ones"):
        for inst in suite:
            n = len(inst.boxes)
            r = min(2, n)
            for m in range(1, min(3, n) + 1):
                plain = atleast_r_bounds(inst.moments, r, m)
                augmented = q_atleast_bounds(inst.moments, r, m)
                assert augmented.lower >= plain.lower - LP_TOL
                assert augmented.upper <= plain.upper + LP_TOL
                plain = exactly_r_bounds(inst.moments, r, m)
                augmented = q_exactly_bounds(inst.moments, r, m)
                assert augmented.lower >= plain.lower - LP_TOL
                assert augmented.upper <= plain.upper + LP_TOL


def test_criterion_10_monte_carlo_concordance(ex2):
    with criterion(10, "10^6-sample Monte Carlo within 4 SE of 0.224, deterministic, < 5 s"):
        boxes, measure = ex2
        start = time.perf_counter()
        result = monte_carlo_union(boxes, measure, 1_000_000, seed=0)
        elapsed = time.perf_counter() - start
        assert abs(result.estimate - 0.224) <= 4 * result.standard_error
        again = monte_carlo_union(boxes, measure, 1_000_000, seed=0)
        assert again == result
        assert elapsed < 5.0
