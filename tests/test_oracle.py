from math import sqrt

import numpy as np
import pytest

from boxbounds import oracle
from boxbounds.errors import InputError
from boxbounds.geometry import Box
from boxbounds.measure import PiecewiseCdf, ProductMeasure
from boxbounds.oracle import (
    _MC_CHUNK,
    CountDistribution,
    exact_count_distribution,
    full_inclusion_exclusion_union,
    monte_carlo_union,
)
from boxbounds.screening import binomial_moments, screened_union

from helpers import random_instance


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
    with pytest.raises(InputError):
        exact_count_distribution(boxes, measure1)
    measure4 = ProductMeasure.uniform((0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(InputError):
        exact_count_distribution([Box("A", (0, 0, 0, 0), (1, 1, 1, 1))], measure4)


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
def test_monte_carlo_matches_broadcast_reference(ex2, samples):
    rng = np.random.default_rng(211)
    piecewise = PiecewiseCdf((0.0, 2.0, 3.0, 6.0), (0.0, 0.2, 0.7, 1.0))
    grid_boxes, _ = random_instance(rng, max_events=8, min_events=6, max_dim=2)
    cases = [
        ex2,
        (grid_boxes, ProductMeasure((piecewise,) * grid_boxes[0].dimension)),
    ]
    for seed, (boxes, measure) in enumerate(cases):
        result = monte_carlo_union(boxes, measure, samples, seed)
        estimate, standard_error = broadcast_monte_carlo(boxes, measure, samples, seed)
        assert result.estimate == estimate
        assert result.standard_error == standard_error
