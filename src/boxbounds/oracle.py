"""Independent ground-truth engines used to validate screening and bounding.

Three routes that share no code with the screened pipeline: the unpruned
2^N - 1 term inclusion-exclusion sum, an exact cell decomposition of space
along all box boundaries, and seeded Monte Carlo sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb, fsum, inf, prod, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .geometry import Box, box_vertices, require_measure_dimension
from .measure import ProductMeasure

IE_MAX_EVENTS = 20
# The grid has up to (2N + 1)^d cells, 3^d already for one box, so past
# three dimensions a cells-times-boxes budget alone would not bound its
# memory; larger d needs an algorithm that does not grid all of space.
CELL_MAX_DIM = 3
# Cell-in-box tests (grid cells times boxes) a cell decomposition may make.
# On a 2-core Xeon a run at the budget takes about 0.23 s and peaks near
# 50 MiB at N = 59, d = 3; at d = 1 (N = 7000) it takes 0.14 s but peaks
# near 190 MiB, as the membership matrix then holds a byte per test and
# its second comparison another.
CELL_TEST_BUDGET = 10**8
_MC_CHUNK = 1 << 19
# Boxes from which Monte Carlo sorts each chunk on its first axis and tests
# each box only on its slab there.  Sorted over plain time, on 2-d and 3-d
# boxes of which 1 % to most pairs overlap, on a 2-core Xeon: at 20,000
# samples 1.30-1.40 at N = 8, 0.97-1.03 at 28, 0.91-1.01 at 32 and
# 0.73-0.82 at 64; on one full chunk 0.80-1.02 at 32 and 0.54-0.64 at 64;
# at 60,000 samples, the slowest case, 0.93-1.15 at 32 and 0.87-1.07 at 40.
_MC_SWEEP_BOXES = 32
# Point-in-box tests (samples times boxes) a Monte Carlo run may make.
# In two dimensions a test takes about 0.6 ns with 150 boxes (2.1 ns with
# no sort) and 7 ns with 5, where sampling dominates, so a run at the
# budget takes at most seconds.
MC_TEST_BUDGET = 10**9


@dataclass(frozen=True)
class CountDistribution:
    """Distribution of the number of events that occur: p[i] = P(count = i)."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.p)
        object.__setattr__(self, "p", p)
        if not p:
            raise InputError("count distribution needs at least p_0")
        if any(v < -1e-12 for v in p):
            raise InputError("count distribution has a negative entry")
        total = fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"count distribution sums to {total!r}, not 1")

    @property
    def n_events(self) -> int:
        return len(self.p) - 1

    def union(self) -> float:
        return fsum(self.p[1:])

    def at_least(self, r: int) -> float:
        if not 0 <= r <= self.n_events + 1:
            raise InputError(f"r={r} out of range")
        return fsum(self.p[r:])

    def exactly(self, r: int) -> float:
        if not 0 <= r <= self.n_events:
            raise InputError(f"r={r} out of range")
        return self.p[r]

    def binomial_moment(self, k: int) -> float:
        """E of (count choose k); equals 1 for k = 0."""
        return fsum(comb(i, k) * v for i, v in enumerate(self.p))


class MonteCarloResult(NamedTuple):
    estimate: float
    standard_error: float


def full_inclusion_exclusion_union(
    boxes: Sequence[Box], measure: ProductMeasure
) -> float:
    """Union probability from the unpruned inclusion-exclusion formula.

    Visits every one of the 2^N - 1 index subsets; empty intersections
    contribute zero through their clamped probability, with no screening
    anywhere.  Capped at 20 events.
    """
    n_boxes = len(boxes)
    if n_boxes > IE_MAX_EVENTS:
        raise InputError(f"event count {n_boxes} above the 2^N cap ({IE_MAX_EVENTS})")
    require_measure_dimension(box_vertices(boxes), measure.dimension)
    if n_boxes == 0:
        return 0.0
    dim = measure.dimension
    terms: list[float] = []

    def visit(start: int, lower, upper, positive: bool) -> None:
        for j in range(start, n_boxes):
            box = boxes[j]
            new_lower = tuple(map(max, lower, box.lower))
            new_upper = tuple(map(min, upper, box.upper))
            p = measure.rect_probability(new_lower, new_upper)
            terms.append(p if positive else -p)
            visit(j + 1, new_lower, new_upper, not positive)

    visit(0, (-inf,) * dim, (inf,) * dim, True)
    return fsum(terms)


def exact_count_distribution(
    boxes: Sequence[Box], measure: ProductMeasure
) -> CountDistribution:
    """Exact occurrence-count distribution by cell decomposition.

    Space is cut along every box boundary per axis; each resulting cell is
    either inside or outside each box, so its whole mass goes to one
    coverage count.  Exact for product measures.  One array sweep covers
    the grid: each axis gives its interval masses and a bool (intervals, N)
    membership matrix, a cell's count is the contraction of the matrices
    over the boxes, and its mass the outer product of the axis masses in
    axis order.  p_c is the exactly rounded fsum of the masses with count c.
    Capped at 3 dimensions; raises InputError before the grid is allocated
    when its cells times the boxes exceed CELL_TEST_BUDGET.
    """
    vertices = box_vertices(boxes)
    require_measure_dimension(vertices, measure.dimension)
    n_boxes = len(boxes)
    if n_boxes == 0:
        return CountDistribution((1.0,))
    dim = measure.dimension
    if dim > CELL_MAX_DIM:
        raise InputError(f"dimension {dim} above the cell cap ({CELL_MAX_DIM})")
    cuts = [
        sorted({box.lower[k] for box in boxes} | {box.upper[k] for box in boxes})
        for k in range(dim)
    ]
    cells = prod(len(axis) + 1 for axis in cuts)
    if cells * n_boxes > CELL_TEST_BUDGET:
        raise InputError(
            f"{cells} grid cells times {n_boxes} boxes exceed the budget of "
            f"{CELL_TEST_BUDGET} cell-in-box tests"
        )

    masses, members = [], []
    for k, axis in enumerate(cuts):
        points = [-inf, *axis, inf]
        intervals = zip(points, points[1:])
        masses.append(np.array([measure.interval_probability(k, *span) for span in intervals]))
        lo, hi = np.array(points[:-1])[:, None], np.array(points[1:])[:, None]
        members.append((vertices[:, 0, k] <= lo) & (hi <= vertices[:, 1, k]))
    subscripts = ",".join(f"{cell}z" for cell in "abc"[:dim]) + "->" + "abc"[:dim]
    counts = np.einsum(subscripts, *members, dtype=np.intp).ravel()
    mass = reduce(np.multiply.outer, masses).ravel()
    p = [fsum(mass[counts == c].tolist()) for c in range(n_boxes + 1)]
    return CountDistribution(tuple(p))


def monte_carlo_union(
    boxes: Sequence[Box], measure: ProductMeasure, samples: int, seed: int
) -> MonteCarloResult:
    """Hit-or-miss estimate of the union probability.

    Points come from per-coordinate inverse transform over a PCG64 stream
    (numpy default_rng), so a fixed seed reproduces the estimate exactly
    across platforms.  standard_error is sqrt(est (1 - est) / samples).
    Points are tested box by box into one hit mask per chunk.  From
    _MC_SWEEP_BOXES boxes on, each chunk is sorted once on axis 0 (one
    argsort, one gather into contiguous columns), and each box tests axes
    1..d-1 only on its window of the chunk, the points with
    lower[0] <= x[0] <= upper[0], cut by two searchsorted calls; below
    it every window is the whole chunk and every axis is tested.  The hit
    count does not depend on the order of the points, so both give the
    same hits.  Working memory is O(chunk * d) whatever the number of
    boxes.  Raises InputError before any sampling for a negative seed or
    when samples times boxes exceed MC_TEST_BUDGET.
    """
    if samples < 1:
        raise InputError("samples must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    vertices = box_vertices(boxes)
    require_measure_dimension(vertices, measure.dimension)
    if samples * len(boxes) > MC_TEST_BUDGET:
        raise InputError(
            f"{samples} samples times {len(boxes)} boxes exceed the budget of "
            f"{MC_TEST_BUDGET} point-in-box tests"
        )
    if not boxes:
        return MonteCarloResult(0.0, 0.0)
    sweep = len(boxes) >= _MC_SWEEP_BOXES
    skip = 1 if sweep else 0  # sorted windows already bound axis 0
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining:
        size = min(remaining, _MC_CHUNK)
        columns = np.ascontiguousarray(measure.sample(rng, size).T)
        if sweep:
            columns = columns.take(np.argsort(columns[0]), axis=1)
            first = columns[0]
            starts = first.searchsorted(vertices[:, 0, 0], "left").tolist()
            stops = first.searchsorted(vertices[:, 1, 0], "right").tolist()
        else:
            starts, stops = [0] * len(boxes), [size] * len(boxes)
        hit = np.zeros(size, dtype=bool)
        inside = np.empty(size, dtype=bool)
        scratch = np.empty(size, dtype=bool)
        for box, start, stop in zip(boxes, starts, stops):
            window = inside[start:stop]
            out = scratch[start:stop]
            window.fill(True)
            for column, lo, hi in zip(columns[skip:], box.lower[skip:], box.upper[skip:]):
                window &= np.greater_equal(column[start:stop], lo, out=out)
                window &= np.less_equal(column[start:stop], hi, out=out)
            hit[start:stop] |= window
        hits += int(hit.sum())
        remaining -= size
    estimate = hits / samples
    return MonteCarloResult(estimate, sqrt(estimate * (1.0 - estimate) / samples))
