"""Axis-aligned boxes and the coordinate-wise vertex comparison test."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import le
from typing import Sequence

import numpy as np

from .errors import InputError


class EmptinessMode(Enum):
    """Which notion of "empty" a candidate intersection is tested against.

    CLOSED treats boxes as closed point sets, so touching faces still
    intersect.  POSITIVE_MEASURE requires strictly positive width in every
    coordinate; under continuous marginals a shared face carries zero
    probability, so it is screened out.
    """

    CLOSED = "closed"
    POSITIVE_MEASURE = "positive-measure"


@dataclass(frozen=True)
class Box:
    """A hyperrectangle stored as its lower and upper vertex.

    A valid box has lower[k] <= upper[k] in every coordinate; zero-width
    coordinates are allowed and describe degenerate boxes.
    """

    id: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(map(float, self.lower))
        upper = tuple(map(float, self.upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise InputError(
                f"box {self.id!r}: lower has {len(lower)} coordinates, "
                f"upper has {len(upper)}"
            )
        if not lower:
            raise _no_coordinates_error(self.id)
        if not all(map(le, lower, upper)):  # also rejects NaN
            raise _order_error(self.id, lower, upper)

    @property
    def dimension(self) -> int:
        return len(self.lower)


def _no_coordinates_error(box_id: str) -> InputError:
    return InputError(f"box {box_id!r}: needs at least one coordinate")


def _order_error(box_id: str, lower: Sequence[float], upper: Sequence[float]) -> InputError:
    """The error for a box whose lower vertex is not <= its upper one."""
    k = next(k for k, (lo, hi) in enumerate(zip(lower, upper)) if not lo <= hi)
    return InputError(
        f"box {box_id!r}: lower {lower[k]!r} exceeds upper {upper[k]!r} in coordinate {k}"
    )


def boxes_from_vertices(ids: Sequence[str], vertices: np.ndarray) -> list[Box]:
    """Boxes from their ids and an ``(N, 2, d)`` float array of vertices.

    Row i holds box i's lower vertex and then its upper one.  One array
    comparison checks every box's order, with Box's message for the first
    box that fails it, so the boxes are made without running __post_init__
    one by one.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 3 or vertices.shape[:2] != (len(ids), 2):
        raise InputError(
            f"vertex array of shape {vertices.shape} does not hold {len(ids)} vertex pairs"
        )
    if len(ids) and not vertices.shape[2]:
        raise _no_coordinates_error(ids[0])
    lowers, uppers = vertices[:, 0].tolist(), vertices[:, 1].tolist()
    ordered = (vertices[:, 0] <= vertices[:, 1]).all(axis=1)  # NaN fails
    if not ordered.all():
        i = int(ordered.argmin())
        raise _order_error(ids[i], lowers[i], uppers[i])
    boxes = []
    for box_id, lower, upper in zip(ids, map(tuple, lowers), map(tuple, uppers)):
        box = object.__new__(Box)
        # as in __post_init__; writing to box.__dict__ instead would make
        # every later attribute read about twice as slow
        object.__setattr__(box, "id", box_id)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        boxes.append(box)
    return boxes


def box_vertices(boxes: Sequence[Box]) -> np.ndarray:
    """The boxes' vertices as the ``(N, 2, d)`` float array boxes_from_vertices
    reads: box i's lower vertex, then its upper one.  The boxes must share
    one dimension (require_same_dimension); no boxes give ``(0, 2, 0)``.
    """
    n, d = len(boxes), require_same_dimension(boxes)
    coordinates = chain.from_iterable(chain.from_iterable((box.lower, box.upper) for box in boxes))
    return np.fromiter(coordinates, float, 2 * n * d).reshape(n, 2, d)


def require_measure_dimension(vertices: np.ndarray, dimension: int) -> None:
    """Raise unless a vertex array's boxes (if any) fit a measure of this dimension."""
    if len(vertices) and vertices.shape[2] != dimension:
        raise InputError(f"boxes have dimension {vertices.shape[2]}, measure has {dimension}")


def require_same_dimension(boxes: Sequence[Box]) -> int:
    """Common dimension of the boxes (0 for an empty list)."""
    dims = {box.dimension for box in boxes}
    if len(dims) > 1:
        raise InputError(f"boxes have mixed dimensions {sorted(dims)}")
    return dims.pop() if dims else 0


def meet_vertices(
    boxes: Sequence[Box],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Candidate intersection vertices: max of lowers, min of uppers.

    No emptiness filtering happens here, so the result may have
    lower > upper in some coordinate.  Useful for rendering verdict tables
    that show the candidate even when it is empty.
    """
    if not boxes:
        raise InputError("meet_vertices: need at least one box")
    n = require_same_dimension(boxes)
    lower = tuple(max(box.lower[k] for box in boxes) for k in range(n))
    upper = tuple(min(box.upper[k] for box in boxes) for k in range(n))
    return lower, upper


def vertex_pair_nonempty(
    lower: Sequence[float], upper: Sequence[float], mode: EmptinessMode
) -> bool:
    """Decide nonemptiness of the box with the given vertices.

    CLOSED asks for lower[k] <= upper[k] everywhere, POSITIVE_MEASURE for
    strict inequality everywhere.
    """
    if mode is EmptinessMode.CLOSED:
        return all(lo <= hi for lo, hi in zip(lower, upper))
    return all(lo < hi for lo, hi in zip(lower, upper))


def intersect(boxes: Sequence[Box]) -> Box | None:
    """Intersection of the boxes, or None when it is empty as a point set.

    The result's id concatenates the input ids in input order.  The result
    may be degenerate (zero width in some coordinate); callers that care
    about positive measure should test it with is_nonempty.
    """
    lower, upper = meet_vertices(boxes)
    if not vertex_pair_nonempty(lower, upper, EmptinessMode.CLOSED):
        return None
    return Box("".join(box.id for box in boxes), lower, upper)


def is_nonempty(box: Box | None, mode: EmptinessMode) -> bool:
    """True when the box is nonempty under the given mode; None counts as empty."""
    if box is None:
        return False
    return vertex_pair_nonempty(box.lower, box.upper, mode)
