from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxbounds.errors import InputError
from boxbounds.geometry import (
    Box,
    EmptinessMode,
    box_vertices,
    boxes_from_vertices,
    intersect,
    is_nonempty,
    meet_vertices,
    require_same_dimension,
    vertex_pair_nonempty,
)

STRICT = EmptinessMode.POSITIVE_MEASURE
CLOSED = EmptinessMode.CLOSED

# Candidate intersection and verdict for every pair of the five-rectangle
# fixture, in lexicographic pair order.
EX1_PAIR_TABLE = [
    ("A1", "A2", (5, 6), (6, 7), True),
    ("A1", "A3", (5, 6), (4, 8), False),
    ("A1", "A4", (5, 6), (7, 9), True),
    ("A1", "A5", (5, 6), (9, 5), False),
    ("A2", "A3", (2, 4), (4, 7), True),
    ("A2", "A4", (3, 4), (6, 7), True),
    ("A2", "A5", (2, 4), (6, 5), True),
    ("A3", "A4", (3, 3), (4, 8), True),
    ("A3", "A5", (1, 3), (4, 5), True),
    ("A4", "A5", (3, 2), (7, 5), True),
]

# Same for all 21 pairs of the seven-box fixture.
EX2_PAIR_TABLE = [
    ("A1", "A2", (3, 1, 3), (2, 2, 2), False),
    ("A1", "A3", (1, 3, 3), (2, 2, 2), False),
    ("A1", "A4", (4, 4, 4), (2, 2, 2), False),
    ("A1", "A5", (2, 2, 2), (2, 2, 2), False),
    ("A1", "A6", (1, 4, 1), (2, 2, 2), False),
    ("A1", "A7", (4, 1, 4), (2, 2, 2), False),
    ("A2", "A3", (3, 3, 3), (3, 3, 5), False),
    ("A2", "A4", (4, 4, 4), (5, 3, 5), False),
    ("A2", "A5", (3, 2, 3), (3, 3, 4), False),
    ("A2", "A6", (3, 4, 3), (2, 3, 2), False),
    ("A2", "A7", (4, 1, 4), (5, 2, 5), True),
    ("A3", "A4", (4, 4, 4), (3, 5, 5), False),
    ("A3", "A5", (2, 3, 3), (3, 3, 4), False),
    ("A3", "A6", (1, 4, 3), (2, 5, 2), False),
    ("A3", "A7", (4, 3, 4), (3, 2, 5), False),
    ("A4", "A5", (4, 4, 4), (3, 3, 4), False),
    ("A4", "A6", (4, 4, 4), (2, 5, 2), False),
    ("A4", "A7", (4, 4, 4), (5, 2, 5), False),
    ("A5", "A6", (2, 4, 2), (2, 3, 2), False),
    ("A5", "A7", (4, 2, 4), (3, 2, 4), False),
    ("A6", "A7", (4, 4, 4), (2, 2, 2), False),
]


def _by_id(boxes):
    return {box.id: box for box in boxes}


@pytest.mark.parametrize("ida,idb,lower,upper,verdict", EX1_PAIR_TABLE)
def test_example1_pair_table(ex1, ida, idb, lower, upper, verdict):
    boxes = _by_id(ex1[0])
    got_lower, got_upper = meet_vertices([boxes[ida], boxes[idb]])
    assert got_lower == tuple(float(v) for v in lower)
    assert got_upper == tuple(float(v) for v in upper)
    assert vertex_pair_nonempty(got_lower, got_upper, STRICT) is verdict


@pytest.mark.parametrize("ida,idb,lower,upper,verdict", EX2_PAIR_TABLE)
def test_example2_pair_table(ex2, ida, idb, lower, upper, verdict):
    boxes = _by_id(ex2[0])
    got_lower, got_upper = meet_vertices([boxes[ida], boxes[idb]])
    assert got_lower == tuple(float(v) for v in lower)
    assert got_upper == tuple(float(v) for v in upper)
    assert vertex_pair_nonempty(got_lower, got_upper, STRICT) is verdict


def test_pair_intersection_box(ex1):
    boxes = _by_id(ex1[0])
    result = intersect([boxes["A1"], boxes["A2"]])
    assert result == Box("A1A2", (5, 6), (6, 7))


def test_nested_pair_intersection(ex2):
    boxes = _by_id(ex2[0])
    result = intersect([boxes["A2"], boxes["A7"]])
    assert result is not None
    assert (result.lower, result.upper) == ((4, 1, 4), (5, 2, 5))


def test_intersect_single_box_is_identity():
    box = Box("B", (1, 2), (3, 4))
    assert intersect([box]) == box


def test_intersect_empty_returns_none(ex1):
    boxes = _by_id(ex1[0])
    assert intersect([boxes["A1"], boxes["A3"]]) is None
    assert is_nonempty(intersect([boxes["A1"], boxes["A3"]]), STRICT) is False
    assert is_nonempty(intersect([boxes["A1"], boxes["A3"]]), CLOSED) is False


def test_degenerate_point_modes():
    point = Box("P", (2, 2, 2), (2, 2, 2))
    assert is_nonempty(point, CLOSED) is True
    assert is_nonempty(point, STRICT) is False


def test_is_nonempty_none_is_false():
    assert is_nonempty(None, CLOSED) is False
    assert is_nonempty(None, STRICT) is False


BOX_FAULTS = [
    (("bad", (1, 2), (3,)), "box 'bad': lower has 2 coordinates, upper has 1"),
    (("bad", (), ()), "box 'bad': needs at least one coordinate"),
    (("bad", (5,), (4,)), "box 'bad': lower 5.0 exceeds upper 4.0 in coordinate 0"),
    (("bad", (float("nan"),), (1.0,)), "box 'bad': lower nan exceeds upper 1.0 in coordinate 0"),
    (("bad", (0, 2, -0.0), (1, 3, -1)), "box 'bad': lower -0.0 exceeds upper -1.0 in coordinate 2"),
    (("bad", (0, 0), (1, float("nan"))), "box 'bad': lower 0.0 exceeds upper nan in coordinate 1"),
]


def test_box_validation():
    for args, message in BOX_FAULTS:
        with pytest.raises(InputError) as exc:
            Box(*args)
        assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [f for f in BOX_FAULTS if len(f[0][1]) == len(f[0][2])])
def test_boxes_from_vertices_validation(args, message):
    box_id, lower, upper = args
    dim = len(lower)
    vertices = np.array([[(0.0,) * dim] * 2, [lower, upper]], dtype=float).reshape(2, 2, dim)
    ids = ["good", box_id] if dim else [box_id, "good"]
    with pytest.raises(InputError) as exc:
        boxes_from_vertices(ids, vertices)
    assert str(exc.value) == message


def test_boxes_from_vertices_matches_box():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3):
        corners = np.sort(rng.uniform(-5.0, 5.0, size=(20, 2, dim)), axis=1)
        corners[::4, :, 0] = (-0.0, 0.0)
        corners[1::4, 1, -1] = np.inf
        ids = [f"A{i}" for i in range(20)]
        boxes = boxes_from_vertices(ids, corners)
        assert boxes == [Box(i, tuple(lo), tuple(hi)) for i, (lo, hi) in zip(ids, corners)]
        for box in boxes:
            assert {type(v) for v in box.lower + box.upper} == {float}
            assert np.array(box.lower).view(np.int64).tolist() == (
                np.array(corners[int(box.id[1:]), 0]).view(np.int64).tolist()
            )
    assert boxes_from_vertices([], np.empty((0, 2, 3))) == []
    with pytest.raises(InputError, match=r"vertex array of shape \(2, 2, 1\) does not hold 1"):
        boxes_from_vertices(["A"], np.zeros((2, 2, 1)))


def test_box_vertices_round_trip():
    # Coordinates compare as int64 views, so -0.0 and 0.0 and every
    # subnormal must come back bit for bit.
    rng = np.random.default_rng(7)
    special = [-0.0, 0.0, -inf, inf, 5e-324, -5e-324, 2.2250738585072014e-308 / 3]
    assert box_vertices([]).shape == (0, 2, 0)
    assert boxes_from_vertices([], box_vertices([])) == []
    for dim in (1, 2, 3):
        for n in (1, 2, 9):
            corners = rng.choice(special + [-1.5, 0.25, 3.0], size=(n, 2, dim))
            corners[rng.random((n, 2, dim)) < 0.3] = -0.0
            corners = np.sort(corners, axis=1)
            ids = [f"B{i}" for i in range(n)]
            boxes = [Box(i, tuple(lo), tuple(hi)) for i, (lo, hi) in zip(ids, corners)]
            vertices = box_vertices(boxes)
            assert vertices.shape == (n, 2, dim) and vertices.dtype == np.float64
            assert vertices.view(np.int64).tolist() == corners.view(np.int64).tolist()
            back = boxes_from_vertices(ids, vertices)
            assert [b.id for b in back] == ids
            for old, new in zip(boxes, back):
                for side in ("lower", "upper"):
                    assert (np.array(getattr(new, side)).view(np.int64).tolist()
                            == np.array(getattr(old, side)).view(np.int64).tolist())
    mixed = [Box("A", (0,), (1,)), Box("B", (0, 0), (1, 1)), Box("C", (0,), (1,))]
    with pytest.raises(InputError) as exc:
        box_vertices(mixed)
    with pytest.raises(InputError) as expected:
        require_same_dimension(mixed)
    assert str(exc.value) == str(expected.value) == "boxes have mixed dimensions [1, 2]"


def test_meet_vertices_validation():
    with pytest.raises(InputError):
        meet_vertices([])
    with pytest.raises(InputError):
        meet_vertices([Box("a", (0,), (1,)), Box("b", (0, 0), (1, 1))])


def test_id_concatenation_in_input_order():
    a = Box("X", (0, 0), (2, 2))
    b = Box("Y", (1, 1), (3, 3))
    assert intersect([a, b]).id == "XY"
    assert intersect([b, a]).id == "YX"


coords = st.integers(min_value=0, max_value=6)


@st.composite
def grid_boxes(draw, dim=2):
    corners = [
        sorted((draw(coords), draw(coords)))
        for _ in range(dim)
    ]
    return Box(
        "B",
        tuple(float(c[0]) for c in corners),
        tuple(float(c[1]) for c in corners),
    )


@given(grid_boxes(), grid_boxes())
@settings(max_examples=200)
def test_strict_verdict_matches_positive_volume(a, b):
    lower, upper = meet_vertices([a, b])
    volume = 1.0
    for lo, hi in zip(lower, upper):
        volume *= max(0.0, hi - lo)
    assert vertex_pair_nonempty(lower, upper, STRICT) == (volume > 0.0)


@given(grid_boxes(3), grid_boxes(3), grid_boxes(3))
@settings(max_examples=200)
def test_intersection_is_order_independent(a, b, c):
    direct = meet_vertices([a, b, c])
    ab = intersect([a, b])
    if ab is None:
        # one coordinate already inverted; the triple meet must stay inverted
        assert not vertex_pair_nonempty(*direct, CLOSED)
        return
    staged = meet_vertices([ab, c])
    assert staged == direct
