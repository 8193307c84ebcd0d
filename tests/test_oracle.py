import tracemalloc
from math import inf, sqrt
from pathlib import Path

import numpy as np
import pytest

from boxbounds import oracle
from boxbounds.bounding import atleast_r_bounds, union_bounds
from boxbounds.cli import load_document, parse_geometry
from boxbounds.errors import InputError
from boxbounds.geometry import Box, EmptinessMode
from boxbounds.measure import PiecewiseCdf, ProductMeasure
from boxbounds.oracle import (
    _MC_CHUNK,
    CountDistribution,
    exact_count_distribution,
    full_inclusion_exclusion_union,
    monte_carlo_union,
)
from boxbounds.screening import binomial_moments, enumerate_tuples, screened_union

from helpers import cell_loop_count_distribution, random_instance

DENSE = Path(__file__).parent / "golden" / "dense-n44-d2.json"


def test_full_ie_example2(ex2):
    assert full_inclusion_exclusion_union(*ex2) == pytest.approx(28 / 125, abs=1e-12)


def test_full_ie_single_box():
    measure = ProductMeasure.uniform((0, 0), (10, 10))
    box = Box("B", (2, 3), (4, 6))
    assert full_inclusion_exclusion_union([box], measure) == pytest.approx(
        measure.box_probability(box), abs=1e-15
    )


def test_full_ie_two_disjoint_boxes():
    measure = ProductMeasure.uniform((0,), (10,))
    a = Box("A", (0,), (2,))
    b = Box("B", (5,), (6,))
    assert full_inclusion_exclusion_union([a, b], measure) == pytest.approx(0.3, abs=1e-12)


def test_full_ie_no_boxes():
    measure = ProductMeasure.uniform((0,), (1,))
    assert full_inclusion_exclusion_union([], measure) == 0.0


def test_full_ie_event_cap():
    measure = ProductMeasure.uniform((0,), (1,))
    boxes = [Box(f"A{i}", (0,), (1,)) for i in range(21)]
    with pytest.raises(InputError):
        full_inclusion_exclusion_union(boxes, measure)


def test_cells_example2(ex2):
    dist = exact_count_distribution(*ex2)
    assert dist.p[0] == pytest.approx(97 / 125, abs=1e-12)
    assert dist.p[1] == pytest.approx(27 / 125, abs=1e-12)
    assert dist.p[2] == pytest.approx(1 / 125, abs=1e-12)
    assert all(v == 0.0 for v in dist.p[3:])
    assert dist.union() == pytest.approx(28 / 125, abs=1e-12)


def test_cells_no_boxes():
    measure = ProductMeasure.uniform((0, 0), (1, 1))
    dist = exact_count_distribution([], measure)
    assert dist.p == (1.0,)


def test_cells_single_box():
    measure = ProductMeasure.uniform((0, 0), (2, 2))
    dist = exact_count_distribution([Box("B", (0, 0), (1, 1))], measure)
    assert dist.p[0] == pytest.approx(0.75, abs=1e-15)
    assert dist.p[1] == pytest.approx(0.25, abs=1e-15)


def test_cells_caps():
    measure1 = ProductMeasure.uniform((0,), (1,))
    boxes = [Box(f"A{i}", (0,), (1,)) for i in range(13)]
    assert exact_count_distribution(boxes, measure1).p == (0.0,) * 13 + (1.0,)
    measure4 = ProductMeasure.uniform((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(InputError):
        exact_count_distribution([Box("A", (0, 0, 0, 0), (1, 1, 1, 1))], measure4)


# Coordinates at the edges of float arithmetic: infinities, both zeros, the
# smallest subnormal, and values far below and above the measure's scale.
EDGE_COORDINATES = (-inf, -1e300, -1e-7, -0.0, 0.0, 5e-324, 1e-7, 0.5, 1.0, 1e300, inf)


def edge_instance(rng, max_events=12, max_dim=3):
    """Random boxes with corners drawn from EDGE_COORDINATES on [0, 1]^dim.

    The small pool makes touching faces and zero widths common; the
    measure is uniform or piecewise with a knot between 0 and 1e-7.
    """
    dim = int(rng.integers(1, max_dim + 1))
    boxes = []
    for i in range(int(rng.integers(1, max_events + 1))):
        corners = rng.choice(len(EDGE_COORDINATES), size=(2, dim))
        lower = [EDGE_COORDINATES[j] for j in corners.min(axis=0)]
        upper = [EDGE_COORDINATES[j] for j in corners.max(axis=0)]
        boxes.append(Box(f"A{i + 1}", lower, upper))
    if rng.integers(0, 2):
        return boxes, ProductMeasure.uniform((0.0,) * dim, (1.0,) * dim)
    piecewise = PiecewiseCdf((0.0, 5e-8, 0.75, 1.0), (0.0, 0.125, 0.5, 1.0))
    return boxes, ProductMeasure((piecewise,) * dim)


def sweep_corpus():
    """(boxes, measure) instances with N <= 12 and d <= 3: random grid and
    continuous corners on uniform and piecewise marginals, and edge cases."""
    rng = np.random.default_rng(1013)
    piecewise = PiecewiseCdf((0.0, 2.0, 3.0, 6.0), (0.0, 0.2, 0.7, 1.0))
    for i in range(600):
        boxes, measure = random_instance(rng, max_events=12)
        if i % 3 == 0:
            measure = ProductMeasure((piecewise,) * measure.dimension)
        yield boxes, measure
    for _ in range(200):
        yield edge_instance(rng)


def test_sweep_matches_the_cell_loop():
    for boxes, measure in sweep_corpus():
        assert exact_count_distribution(boxes, measure).p == cell_loop_count_distribution(
            boxes, measure
        )


def test_cells_on_44_dense_boxes_agree_with_screening_and_bounds():
    problem = parse_geometry(load_document(str(DENSE)))
    boxes, measure = problem.boxes, problem.measure
    dist = exact_count_distribution(boxes, measure)
    assert dist.n_events == 44
    assert dist.union() == pytest.approx(screened_union(boxes, measure).q, abs=1e-12)
    moments = binomial_moments(boxes, measure, m=3)
    for k in range(1, 4):
        assert dist.binomial_moment(k) == pytest.approx(moments.s_k(k), abs=1e-12)
    for m in (2, 3):
        for pair, truth in (
            (union_bounds(moments, m, include_p0=True), dist.union()),
            (atleast_r_bounds(moments, 2, m), dist.at_least(2)),
        ):
            assert pair.lower - 1e-9 <= truth <= pair.upper + 1e-9


def grid_boxes(n_boxes, dim):
    """n_boxes unit-offset boxes whose bounds are all distinct on every axis,
    so the grid has (2 n_boxes + 1)^dim cells."""
    return [Box(f"A{i}", (i,) * dim, (i + 0.5,) * dim) for i in range(n_boxes)]


def test_cells_budget_edge(monkeypatch):
    boxes = grid_boxes(4, 2)
    measure = ProductMeasure.uniform((0, 0), (4, 4))
    tests = 9**2 * 4
    monkeypatch.setattr(oracle, "CELL_TEST_BUDGET", tests)
    assert exact_count_distribution(boxes, measure).union() == pytest.approx(4 / 64)
    monkeypatch.setattr(oracle, "CELL_TEST_BUDGET", tests - 1)
    message = f"81 grid cells times 4 boxes exceed the budget of {tests - 1} cell-in-box"
    with pytest.raises(InputError, match=message):
        exact_count_distribution(boxes, measure)


def test_cells_far_over_budget_raises_before_allocating():
    boxes = grid_boxes(3000, 3)
    measure = ProductMeasure.uniform((0, 0, 0), (1, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="budget"):
            exact_count_distribution(boxes, measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cells_dimension_mismatch_comes_first(monkeypatch):
    monkeypatch.setattr(oracle, "CELL_TEST_BUDGET", 0)
    measure = ProductMeasure.uniform((0,), (1,))
    with pytest.raises(InputError, match="dimension 2, measure has 1"):
        exact_count_distribution([Box("A", (0, 0), (1, 1))], measure)


@pytest.mark.parametrize(
    "call",
    [
        lambda boxes, measure: enumerate_tuples(boxes, EmptinessMode.CLOSED, 2, measure),
        full_inclusion_exclusion_union,
        exact_count_distribution,
        lambda boxes, measure: monte_carlo_union(boxes, measure, 100, 1),
    ],
    ids=["enumerate_tuples", "full_ie", "cells", "monte_carlo"],
)
def test_dimension_mismatch_message(call):
    boxes = [Box("A", (0, 0), (1, 1)), Box("B", (0.5, 0.5), (2, 2))]
    with pytest.raises(InputError) as exc:
        call(boxes, ProductMeasure.uniform((0,), (1,)))
    assert str(exc.value) == "boxes have dimension 2, measure has 1"
    with pytest.raises(InputError) as exc:
        call([*boxes, Box("C", (0,), (1,))], ProductMeasure.uniform((0,), (1,)))
    assert str(exc.value) == "boxes have mixed dimensions [1, 2]"
    call([], ProductMeasure.uniform((0,), (1,)))  # no boxes fit any measure


def test_count_distribution_validation():
    with pytest.raises(InputError):
        CountDistribution(())
    with pytest.raises(InputError):
        CountDistribution((0.5, 0.4))
    with pytest.raises(InputError):
        CountDistribution((1.5, -0.5))
    dist = CountDistribution((0.25, 0.5, 0.25))
    assert dist.n_events == 2
    assert dist.at_least(1) == pytest.approx(0.75)
    assert dist.exactly(2) == 0.25
    assert dist.binomial_moment(0) == pytest.approx(1.0)
    assert dist.binomial_moment(1) == pytest.approx(1.0)


def test_consistency_triangle():
    rng = np.random.default_rng(101)
    for _ in range(30):
        boxes, measure = random_instance(rng, max_events=10)
        screened = screened_union(boxes, measure).q
        full = full_inclusion_exclusion_union(boxes, measure)
        cells = exact_count_distribution(boxes, measure).union()
        assert screened == pytest.approx(full, abs=1e-12)
        assert screened == pytest.approx(cells, abs=1e-12)


def test_moment_identity_against_cells():
    rng = np.random.default_rng(103)
    for _ in range(30):
        boxes, measure = random_instance(rng, max_events=10)
        dist = exact_count_distribution(boxes, measure)
        moments = binomial_moments(boxes, measure)
        for k in range(1, min(4, len(boxes)) + 1):
            assert moments.s_k(k) == pytest.approx(dist.binomial_moment(k), abs=1e-12)


def test_monte_carlo_example2(ex2):
    result = monte_carlo_union(*ex2, samples=200_000, seed=7)
    assert abs(result.estimate - 28 / 125) <= 4 * result.standard_error
    again = monte_carlo_union(*ex2, samples=200_000, seed=7)
    assert again == result


def test_monte_carlo_zero_boxes():
    measure = ProductMeasure.uniform((0,), (1,))
    result = monte_carlo_union([], measure, 1000, 0)
    assert result.estimate == 0.0


def test_monte_carlo_full_cover():
    measure = ProductMeasure.uniform((0, 0), (1, 1))
    box = Box("B", (0, 0), (1, 1))
    result = monte_carlo_union([box], measure, 1000, 0)
    assert result.estimate == 1.0
    assert result.standard_error == 0.0


def test_monte_carlo_validation():
    measure = ProductMeasure.uniform((0,), (1,))
    with pytest.raises(InputError):
        monte_carlo_union([], measure, 0, 0)


def test_monte_carlo_negative_seed_raises_before_sampling(ex2, monkeypatch):
    def unreachable(*args):
        pytest.fail("sampling started with a negative seed")

    monkeypatch.setattr(ProductMeasure, "sample", unreachable)
    with pytest.raises(InputError, match="seed must be nonnegative"):
        monte_carlo_union(*ex2, samples=10, seed=-1)


def test_monte_carlo_budget(ex2, monkeypatch):
    boxes, measure = ex2
    monkeypatch.setattr(oracle, "MC_TEST_BUDGET", 10 * len(boxes))
    assert monte_carlo_union(boxes, measure, 10, 0) == monte_carlo_union(boxes, measure, 10, 0)
    with pytest.raises(InputError, match="budget"):
        monte_carlo_union(boxes, measure, 11, 0)


def test_monte_carlo_seed_changes_stream(ex2):
    a = monte_carlo_union(*ex2, samples=50_000, seed=1)
    b = monte_carlo_union(*ex2, samples=50_000, seed=2)
    assert a.estimate != b.estimate


def broadcast_monte_carlo(boxes, measure, samples, seed):
    """Reference estimator testing each chunk against all boxes at once
    through (chunk, N, d) broadcast temporaries."""
    rng = np.random.default_rng(seed)
    lowers = np.array([box.lower for box in boxes])
    uppers = np.array([box.upper for box in boxes])
    hits = 0
    remaining = samples
    while remaining:
        size = min(remaining, _MC_CHUNK)
        points = measure.sample(rng, size)
        inside = np.logical_and(
            points[:, None, :] >= lowers[None, :, :],
            points[:, None, :] <= uppers[None, :, :],
        ).all(axis=2)
        hits += int(inside.any(axis=1).sum())
        remaining -= size
    estimate = hits / samples
    return estimate, sqrt(estimate * (1.0 - estimate) / samples)


@pytest.mark.parametrize("samples", [_MC_CHUNK - 1, _MC_CHUNK, _MC_CHUNK + 1, 2 * _MC_CHUNK + 7])
def test_monte_carlo_matches_broadcast_reference(ex2, samples, monkeypatch):
    rng = np.random.default_rng(211)
    piecewise = PiecewiseCdf((0.0, 2.0, 3.0, 6.0), (0.0, 0.2, 0.7, 1.0))
    grid_boxes, _ = random_instance(rng, max_events=8, min_events=6, max_dim=2)
    cases = [
        ex2,
        (grid_boxes, ProductMeasure((piecewise,) * grid_boxes[0].dimension)),
    ]
    for seed, (boxes, measure) in enumerate(cases):
        estimate, standard_error = broadcast_monte_carlo(boxes, measure, samples, seed)
        # Every box sorts the chunk, then none does.
        for sweep_boxes in (1, len(boxes) + 1):
            monkeypatch.setattr(oracle, "_MC_SWEEP_BOXES", sweep_boxes)
            result = monte_carlo_union(boxes, measure, samples, seed)
            assert result.estimate == estimate
            assert result.standard_error == standard_error


FLAT_PIECEWISE = PiecewiseCdf((-2.0, -0.5, 0.0, 1.0, 3.0), (0.0, 0.25, 0.25, 0.6, 1.0))


def sweep_measures(dim):
    """Uniform marginals on [-1, 1] and a piecewise one with a flat segment."""
    return (
        ProductMeasure.uniform((-1.0,) * dim, (1.0,) * dim),
        ProductMeasure((FLAT_PIECEWISE,) * dim),
    )


def assert_matches_reference_on_both_sides(boxes, measure, samples, seed, monkeypatch):
    """The default, a sort for every box and no sort at all give the
    broadcast reference's estimate and standard error."""
    expected = broadcast_monte_carlo(boxes, measure, samples, seed)
    assert monte_carlo_union(boxes, measure, samples, seed) == expected
    for sweep_boxes in (1, len(boxes) + 1):
        monkeypatch.setattr(oracle, "_MC_SWEEP_BOXES", sweep_boxes)
        assert monte_carlo_union(boxes, measure, samples, seed) == expected
    monkeypatch.undo()


@pytest.mark.parametrize("dim", (2, 3))
def test_monte_carlo_on_many_small_boxes_matches_broadcast_reference(dim, monkeypatch):
    rng = np.random.default_rng(300 + dim)
    lower = rng.uniform(-1.5, 1.2, size=(120, dim))
    upper = lower + rng.uniform(0.02, 0.3, size=(120, dim))
    boxes = [Box(f"A{i + 1}", lo, hi) for i, (lo, hi) in enumerate(zip(lower, upper))]
    assert len(boxes) >= oracle._MC_SWEEP_BOXES
    for measure in sweep_measures(dim):
        for samples in (1, 999, 20_000):
            assert_matches_reference_on_both_sides(boxes, measure, samples, 5, monkeypatch)


def face_boxes(points, rng, n_boxes):
    """Small boxes around sampled points with every face on a coordinate of
    the same points, a few of them zero-width on a point, with a face at
    -inf or +inf, or with a face at -0.0 or 0.0."""
    size, dim = points.shape
    axes = np.arange(dim)
    coordinates = np.sort(points, axis=0)
    ranks = np.argsort(np.argsort(points, axis=0), axis=0)
    boxes = []
    for i in range(n_boxes):
        point = int(rng.integers(size))
        below = np.maximum(ranks[point] - rng.integers(0, 20, dim), 0)
        above = np.minimum(ranks[point] + rng.integers(0, 20, dim), size - 1)
        lower, upper = coordinates[below, axes], coordinates[above, axes]
        k = int(rng.integers(dim))
        if i % 5 == 0:
            lower = upper = points[point]
        elif i % 5 == 1:
            lower[k] = -inf
        elif i % 5 == 2:
            upper[k] = inf
        elif i % 5 == 3:
            zero = (-0.0, 0.0)[int(rng.integers(2))]
            if upper[k] >= 0.0:
                lower[k] = zero
            else:
                upper[k] = zero
        boxes.append(Box(f"A{i + 1}", lower, upper))
    return boxes


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_monte_carlo_with_faces_on_sampled_points_matches_broadcast_reference(
    dim, monkeypatch
):
    # The oracle draws its first chunk from the same stream, so these faces
    # sit exactly on the coordinates of points it tests.
    rng = np.random.default_rng(700 + dim)
    samples = 2_000
    for seed, measure in enumerate(sweep_measures(dim)):
        points = measure.sample(np.random.default_rng(seed), samples)
        boxes = face_boxes(points, rng, 100)
        assert_matches_reference_on_both_sides(boxes, measure, samples, seed, monkeypatch)


def test_monte_carlo_sweep_memory():
    # At _MC_CHUNK samples in 3-d the uniform draw and the points take
    # 12 MiB each.  sample copies the draw into the points, which it then
    # holds alone, and each marginal works in its row, so sampling peaks at
    # 24.0 MiB under uniform and piecewise marginals alike (28.0 and 36.5
    # MiB when each marginal's quantiles came back in a new array).  The
    # sweep sorts the points row by row, holding the 4 MiB argsort of the
    # first axis and one 4 MiB gathered row next to them, so sampling sets
    # the run's peak too (28.0 MiB when the sort gathered a 12 MiB copy).
    rng = np.random.default_rng(5)
    lower = rng.uniform(0.0, 0.9, size=(100, 3))
    boxes = [Box(f"A{i + 1}", lo, lo + 0.05) for i, lo in enumerate(lower)]
    assert len(boxes) >= oracle._MC_SWEEP_BOXES
    piecewise = (
        PiecewiseCdf((0.0, 0.2, 0.5, 1.0), (0.0, 0.3, 0.3, 1.0)),
        PiecewiseCdf((-0.0, 0.1, 1.0), (0.0, 0.0, 1.0)),
        PiecewiseCdf((0.0, 0.4, 0.9, 1.0), (0.0, 0.6, 1.0, 1.0)),
    )
    for measure in (ProductMeasure.uniform((0.0,) * 3, (1.0,) * 3), ProductMeasure(piecewise)):
        for run, peak_mib in (
            (lambda: measure.sample(np.random.default_rng(3), _MC_CHUNK), 24.0),
            (lambda: monte_carlo_union(boxes, measure, _MC_CHUNK, 3), 24.0),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * peak_mib * 2**20, (measure, peak_mib)
