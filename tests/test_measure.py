from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxbounds.bounding import boolean_system_from_boxes, pairwise_probabilities
from boxbounds.errors import InputError
from boxbounds.geometry import Box
from boxbounds.measure import PiecewiseCdf, ProductMeasure, UniformInterval
from boxbounds.oracle import monte_carlo_union

from helpers import ULP_KNOTS, ULP_VALUES, random_instance, reference_piecewise_ppf


def test_uniform_cdf():
    u = UniformInterval(0, 10)
    assert u.cdf(4) == 0.4
    assert u.cdf(-1) == 0.0
    assert u.cdf(11) == 1.0
    assert u.cdf(-inf) == 0.0
    assert u.cdf(inf) == 1.0


def test_uniform_validation():
    with pytest.raises(InputError):
        UniformInterval(1, 1)
    with pytest.raises(InputError):
        UniformInterval(2, 1)
    with pytest.raises(InputError):
        UniformInterval(0, inf)


def test_piecewise_cdf_identity_on_unit_interval():
    m = PiecewiseCdf((0, 1), (0, 1))
    assert m.cdf(0.25) == 0.25
    assert m.cdf(-3) == 0.0
    assert m.cdf(3) == 1.0


def test_piecewise_cdf_interpolation_and_flats():
    m = PiecewiseCdf((0, 1, 2, 3), (0, 0.5, 0.5, 1))
    assert m.cdf(0.5) == 0.25
    assert m.cdf(1.5) == 0.5
    assert m.cdf(2.5) == 0.75
    assert m.cdf(inf) == 1.0
    # generalized inverse maps into the support, flat segment to its left edge
    assert m.ppf(0.5) == 1.0
    assert m.ppf(0.25) == 0.5
    assert m.ppf(0.75) == 2.5


def test_piecewise_validation():
    with pytest.raises(InputError):
        PiecewiseCdf((0,), (0,))
    with pytest.raises(InputError):
        PiecewiseCdf((0, 0), (0, 1))
    with pytest.raises(InputError):
        PiecewiseCdf((0, 1), (0.1, 1))
    with pytest.raises(InputError):
        PiecewiseCdf((0, 1), (0, 0.9))
    with pytest.raises(InputError):
        PiecewiseCdf((0, 1, 2), (0, 0.8, 0.5))


@pytest.mark.parametrize("value", [nan, inf, -inf])
def test_piecewise_values_must_be_finite(value):
    # NaN fails every comparison, so the order checks alone let it through
    with pytest.raises(InputError, match="values must be finite"):
        PiecewiseCdf((0, 1, 2), (0, value, 1))


def test_piecewise_ppf_round_trip():
    m = PiecewiseCdf((0, 2, 5), (0, 0.4, 1))
    u = np.linspace(0.01, 0.99, 33)
    x = m.ppf(u)
    back = np.array([m.cdf(v) for v in x])
    assert np.allclose(back, u, atol=1e-12)


def piecewise_corpus(rng, count):
    """count seeded CDFs with L = 2..8 knots, each kind of segment among them.

    Of every four, one has a zero-mass first segment, one a flat tail and
    one knots[0] = -0.0; about a fifth of all rises are zero, so flat inner
    segments appear too.  The ULP case of the cdf tests joins them.
    """
    cdfs = [PiecewiseCdf(ULP_KNOTS, ULP_VALUES)]
    for i in range(count - 1):
        n_knots = int(rng.integers(2, 9))
        rises = rng.exponential(size=n_knots - 1) * (rng.random(n_knots - 1) > 0.2)
        if i % 4 == 0:
            rises[0] = 0.0
        if i % 4 == 1 and n_knots > 2:
            rises[-1] = 0.0
        if not rises.any():
            rises[-1 if i % 4 == 0 else 0] = 1.0
        values = np.minimum(np.cumsum(rises) / rises.sum(), 1.0)
        values[-1] = 1.0
        start = -0.0 if i % 4 == 2 else rng.uniform(-5.0, 5.0)
        knots = start + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 3.0, n_knots - 1))))
        knots[0] = start
        cdfs.append(PiecewiseCdf(tuple(knots), (0.0, *values)))
    return cdfs


def test_piecewise_ppf_matches_reference_bitwise():
    rng = np.random.default_rng(26)
    cdfs = piecewise_corpus(rng, 2000)
    assert any(cdf.values[1] == 0.0 for cdf in cdfs)
    assert any(cdf.values[-2] == 1.0 for cdf in cdfs)
    assert any(np.signbit(cdf.knots[0]) for cdf in cdfs)
    assert any(0.0 < v == w < 1.0 for cdf in cdfs for v, w in zip(cdf.values, cdf.values[1:]))
    edges = [0.0, -0.0, float(np.nextafter(1.0, 0.0)), 1.0, -1e-300, -0.5, -inf, 1.5, inf, nan]
    for cdf in cdfs:
        u = np.array([*edges, *cdf.values, *rng.random(6)])
        # a strided column of a (len(u), 3) array, like the uniform draw's
        column = np.repeat(u[:, None], 3, axis=1)[:, 1]
        got = cdf.ppf(column)
        expected = reference_piecewise_ppf(cdf, column)
        assert got.shape == column.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), cdf
        for value in u.tolist():
            scalar = cdf.ppf(value)
            assert type(scalar) is float
            expected = np.float64(reference_piecewise_ppf(cdf, value)).view(np.int64)
            assert np.float64(scalar).view(np.int64) == expected, (cdf, value)
            zero_d = cdf.ppf(np.array(value))
            assert zero_d.shape == ()
            assert zero_d.view(np.int64) == expected, (cdf, value)


def test_box_probability_examples():
    measure = ProductMeasure.uniform((0, 0), (10, 10))
    assert measure.box_probability(Box("B", (5, 6), (9, 9))) == pytest.approx(0.12, abs=1e-15)

    cube = ProductMeasure.uniform((0, 0, 0), (5, 5, 5))
    assert cube.box_probability(Box("B", (4, 1, 4), (5, 2, 5))) == pytest.approx(1 / 125, abs=1e-15)
    assert cube.box_probability(Box("P", (2, 2, 2), (2, 2, 2))) == 0.0


def test_box_probability_dimension_mismatch():
    measure = ProductMeasure.uniform((0, 0), (1, 1))
    with pytest.raises(InputError):
        measure.box_probability(Box("B", (0,), (1,)))


def test_rect_probability_clamps_empty():
    measure = ProductMeasure.uniform((0, 0), (10, 10))
    assert measure.rect_probability((5, 6), (4, 8)) == 0.0


def test_factorization():
    measure = ProductMeasure(
        (UniformInterval(0, 10), PiecewiseCdf((0, 1, 2), (0, 0.25, 1)))
    )
    box = Box("B", (1, 0.5), (7, 1.5))
    per_axis = [
        measure.interval_probability(k, box.lower[k], box.upper[k]) for k in range(2)
    ]
    assert measure.box_probability(box) == pytest.approx(per_axis[0] * per_axis[1], abs=1e-15)


def test_shrinking_never_increases_probability():
    rng = np.random.default_rng(7)
    for _ in range(50):
        boxes, measure = random_instance(rng, max_events=1)
        box = boxes[0]
        p_full = measure.box_probability(box)
        k = int(rng.integers(0, box.dimension))
        width = box.upper[k] - box.lower[k]
        shrunk_upper = list(box.upper)
        shrunk_upper[k] = box.lower[k] + 0.5 * width
        p_shrunk = measure.box_probability(Box("S", box.lower, tuple(shrunk_upper)))
        assert p_shrunk <= p_full + 1e-15


def test_monte_carlo_agreement_on_random_boxes():
    rng = np.random.default_rng(11)
    for seed in range(3):
        boxes, measure = random_instance(rng, max_events=1, min_events=1)
        exact = measure.box_probability(boxes[0])
        result = monte_carlo_union(boxes, measure, 200_000, seed)
        slack = 4.0 * max(result.standard_error, 1e-4)
        assert abs(result.estimate - exact) <= slack


def test_sample_shape_and_support():
    measure = ProductMeasure(
        (UniformInterval(2, 3), PiecewiseCdf((0, 1), (0, 1)))
    )
    pts = measure.sample(np.random.default_rng(0), 1000)
    assert pts.shape == (1000, 2)
    assert pts[:, 0].min() >= 2.0 and pts[:, 0].max() <= 3.0
    assert pts[:, 1].min() >= 0.0 and pts[:, 1].max() <= 1.0


MARGINALS = (
    UniformInterval(-1.0, 1.5),
    UniformInterval(0.0, 10.0),
    # 0.1 + 1.0 * (0.45 - 0.1) rounds below 0.45: a knot looked up in the
    # wrong segment shows
    PiecewiseCdf((-1.0, 0.0, 0.5, 2.0), (0.0, 0.1, 0.45, 1.0)),
    PiecewiseCdf((0.0, 0.3, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0)),
)
# Knots, support ends, points between them, signed zeros and infinities.
VERTEX_COORDS = st.sampled_from(
    [-inf, -2.0, -1.0, -0.5, -0.0, 0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 7.25, 10.0, 11.0, inf]
) | st.floats(-3.0, 12.0)


@pytest.mark.parametrize("size", (1, 7, 1000))
def test_sample_matches_each_marginals_ppf_bitwise(size):
    # sample writes each marginal's quantiles over its row of the points:
    # the bits of ppf on the same column of the draw.
    measure = ProductMeasure((*MARGINALS, PiecewiseCdf((-0.0, 0.1, 1.0), (0.0, 0.0, 1.0))))
    u = np.random.default_rng(size).random((size, measure.dimension))
    expected = np.column_stack([m.ppf(u[:, k]) for k, m in enumerate(measure.marginals)])
    got = measure.sample(np.random.default_rng(size), size)
    assert got.shape == expected.shape
    assert (got.view(np.int64) == expected.view(np.int64)).all()


@st.composite
def vertex_arrays(draw):
    marginals = tuple(draw(st.lists(st.sampled_from(MARGINALS), min_size=1, max_size=3)))
    rows = draw(st.integers(0, 8))
    coords = st.lists(VERTEX_COORDS, min_size=len(marginals), max_size=len(marginals))
    lower = [draw(coords) for _ in range(rows)]
    upper = [draw(coords) for _ in range(rows)]  # inverted rows included
    return ProductMeasure(marginals), lower, upper


@given(vertex_arrays())
@settings(max_examples=300, deadline=None)
@example((ProductMeasure((MARGINALS[2], MARGINALS[0])), [[-0.0, -inf], [0.25, 2.0]], [[0.0, inf], [0.5, 1.5]]))
@example((ProductMeasure((MARGINALS[2], MARGINALS[3])), [[-inf, 0.0], [-1.0, 0.3]], [[0.5, 0.3], [0.5, 0.5]]))
def test_rect_probabilities_match_rect_probability_bitwise(case):
    measure, lower, upper = case
    got = measure.rect_probabilities(
        np.array(lower, dtype=float).reshape(-1, measure.dimension),
        np.array(upper, dtype=float).reshape(-1, measure.dimension),
    )
    expected = [measure.rect_probability(lo, hi) for lo, hi in zip(lower, upper)]
    # repr tells 0.0 from -0.0 and shows every bit of the mantissa
    assert [repr(p) for p in got.tolist()] == [repr(p) for p in expected]


def test_rect_probabilities_shape_validation():
    measure = ProductMeasure.uniform((0, 0), (1, 1))
    with pytest.raises(InputError):
        measure.rect_probabilities(np.zeros((3, 1)), np.ones((3, 1)))
    with pytest.raises(InputError):
        measure.rect_probabilities(np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(InputError):
        measure.rect_probabilities(np.zeros(2), np.ones(2))


def test_piecewise_cdf_is_monotone_just_below_a_knot():
    cdf = PiecewiseCdf(ULP_KNOTS, ULP_VALUES)
    knot = ULP_KNOTS[2]
    below = float(np.nextafter(knot, 0.0))
    assert cdf.cdf(below) == cdf.cdf(knot) == 0.317
    assert cdf.cdfs(np.array([below, knot])).tolist() == [0.317, 0.317]
    # A ends one ULP below the knot where B starts: a measure-zero meet.
    measure = ProductMeasure((cdf,))
    boxes = [Box("A", (0.0,), (below,)), Box("B", (knot,), (11.0,))]
    assert repr(pairwise_probabilities(boxes, measure)[(0, 1)]) == "0.0"
    system = boolean_system_from_boxes(boxes, measure, 2)
    assert repr(system.p[frozenset({0, 1})]) == "0.0"
