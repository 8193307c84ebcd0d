"""Product probability measures with exactly evaluable box probabilities.

Every marginal here is continuous (uniform or piecewise-linear CDF), so the
probability of a box is the product of per-coordinate CDF differences and
can be computed in closed form.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isfinite
from typing import Sequence, Union

import numpy as np

from .errors import InputError
from .geometry import Box


@dataclass(frozen=True)
class UniformInterval:
    """Uniform marginal on [a, b], a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (isfinite(self.a) and isfinite(self.b)) or not self.a < self.b:
            raise InputError(f"uniform marginal needs a < b, got [{self.a}, {self.b}]")

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def cdfs(self, x: np.ndarray) -> np.ndarray:
        """cdf of every entry of a float array, with cdf's float operations."""
        inner = (x - self.a) / (self.b - self.a)
        return np.where(x <= self.a, 0.0, np.where(x >= self.b, 1.0, inner))

    def ppf(self, u):
        """Quantile function; accepts scalars or numpy arrays."""
        return self.a + u * (self.b - self.a)

    def _quantiles_into(self, x: np.ndarray) -> None:
        """ppf of every entry of a float array, written over it.

        The product then the sum ppf makes; IEEE addition commutes, so
        adding a second gives the same bits.
        """
        x *= self.b - self.a
        x += self.a


@dataclass(frozen=True)
class PiecewiseCdf:
    """Continuous marginal given by a piecewise-linear CDF.

    ``knots`` must be strictly increasing and ``values`` nondecreasing from
    0 to 1.  Below the first knot the CDF is 0, above the last it is 1.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        knots = tuple(float(v) for v in self.knots)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if len(knots) != len(values) or len(knots) < 2:
            raise InputError("piecewise CDF needs two or more (knot, value) pairs")
        if not all(isfinite(k) for k in knots):
            raise InputError("piecewise CDF knots must be finite")
        if not all(isfinite(v) for v in values):  # NaN passes every order test
            raise InputError("piecewise CDF values must be finite")
        if any(k1 >= k2 for k1, k2 in zip(knots, knots[1:])):
            raise InputError("piecewise CDF knots must be strictly increasing")
        if any(v1 > v2 for v1, v2 in zip(values, values[1:])):
            raise InputError("piecewise CDF values must be nondecreasing")
        if values[0] != 0.0 or values[-1] != 1.0:
            raise InputError("piecewise CDF values must start at 0 and end at 1")

    def cdf(self, x: float) -> float:
        knots, values = self.knots, self.values
        if x <= knots[0]:
            return 0.0
        if x >= knots[-1]:
            return 1.0
        i = bisect_right(knots, x) - 1
        t = (x - knots[i]) / (knots[i + 1] - knots[i])
        # Rounding can overshoot the next knot's value just below that
        # knot; the clamp keeps the CDF nondecreasing across knots.
        return min(values[i] + t * (values[i + 1] - values[i]), values[i + 1])

    def cdfs(self, x: np.ndarray) -> np.ndarray:
        """cdf of every entry of a float array, with cdf's float operations.

        Entries outside the knot range are clipped before the interpolation
        so no infinity reaches it; cdf's first two branches overwrite them.
        """
        knots = np.asarray(self.knots)
        values = np.asarray(self.values)
        inside = np.clip(x, knots[0], knots[-1])
        i = np.clip(np.searchsorted(knots, inside, side="right") - 1, 0, len(knots) - 2)
        t = (inside - knots[i]) / (knots[i + 1] - knots[i])
        inner = np.minimum(values[i] + t * (values[i + 1] - values[i]), values[i + 1])
        return np.where(x <= knots[0], 0.0, np.where(x >= knots[-1], 1.0, inner))

    def ppf(self, u):
        """Generalized inverse; flat CDF segments map to their left edge.

        u's segment s is the number of values[:-1] that u is not at most
        (NaN, which compares false, passes them all): the clipped left
        searchsorted of u in values.  A binary search in which every u takes
        the same halving steps finds it in log2(L) passes of one gather and
        one comparison; searchsorted branches per element, and on uniform u
        those branches mispredict.  Per-segment tables hold s's left value,
        its CDF rise, its left knot and its knot width, and four gathers
        from them give ``k_left + ((u - v_left) / rise) * width``.  A segment
        without rise, segment 0 or a flat one, has a fixed answer instead:
        knots[0] for segment 0, ``k_left + 1.0 * width`` for the others; its
        table rise and width are 1 so no float operation warns, and its
        entries, reached only by u <= 0, u > 1 or NaN, are overwritten
        afterwards.
        """
        x = np.array(u, dtype=float).reshape(-1)  # a contiguous copy, worked in place
        self._quantiles_into(x)
        x = x.reshape(np.shape(u))
        return x if isinstance(u, np.ndarray) else float(x)

    def _quantiles_into(self, x: np.ndarray) -> None:
        """ppf of every entry of a contiguous 1-D float array, written over it."""
        knots = np.array(self.knots)
        values = np.array(self.values)
        left = np.maximum(np.arange(len(knots)) - 1, 0)
        v_left, k_left = values[left], knots[left]
        rise, width = values - v_left, knots - k_left
        fixed = rise == 0.0
        answer = k_left + width
        answer[0] = knots[0]
        segment = np.zeros(x.shape, dtype=np.intp)
        at_most = np.empty(x.shape, dtype=bool)
        span = len(values) - 1  # s lies in [segment, segment + span]
        while span > 1:
            half = span // 2
            np.less_equal(x, values[half:].take(segment), out=at_most)
            segment += half
            segment -= at_most * half
            span -= half
        np.less_equal(x, values.take(segment), out=at_most)
        segment += 1
        segment -= at_most
        x -= v_left.take(segment)
        x /= np.where(fixed, 1.0, rise).take(segment)
        x *= np.where(fixed, 1.0, width).take(segment)
        x += k_left.take(segment)
        patch = np.flatnonzero(fixed.take(segment))
        x[patch] = answer.take(segment[patch])


Marginal = Union[UniformInterval, PiecewiseCdf]


def clamped_product(lower_cdfs: np.ndarray, upper_cdfs: np.ndarray) -> np.ndarray:
    """Box probabilities from the CDF values of their ``(F, d)`` vertex arrays.

    Row f is the product over coordinates k, left to right, of
    ``upper_cdfs[f, k] - lower_cdfs[f, k]`` clamped at zero: the float
    operations of rect_probability, whose early return on a zero product
    changes nothing, as every factor is finite and nonnegative.
    """
    d = upper_cdfs - lower_cdfs
    factors = np.where(d > 0.0, d, 0.0)
    p = factors[:, 0].copy()
    for k in range(1, factors.shape[1]):
        p *= factors[:, k]
    return p


@dataclass(frozen=True)
class ProductMeasure:
    """Independent per-coordinate marginals defining a measure on R^n."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if not self.marginals:
            raise InputError("product measure needs at least one marginal")

    @property
    def dimension(self) -> int:
        return len(self.marginals)

    @classmethod
    def uniform(
        cls, lower: Sequence[float], upper: Sequence[float]
    ) -> "ProductMeasure":
        """Uniform measure on the box spanned by lower and upper."""
        if len(lower) != len(upper):
            raise InputError("uniform support vectors disagree in length")
        return cls(tuple(UniformInterval(a, b) for a, b in zip(lower, upper)))

    def interval_probability(self, k: int, lo: float, hi: float) -> float:
        """Probability mass of [lo, hi] on coordinate k, clamped at zero."""
        marginal = self.marginals[k]
        return max(0.0, marginal.cdf(hi) - marginal.cdf(lo))

    def rect_probability(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> float:
        """Probability of the box with the given vertices.

        Inverted or zero-width coordinates contribute zero, so empty
        candidate intersections come out as probability 0 without any
        special casing.
        """
        if len(lower) != self.dimension or len(upper) != self.dimension:
            raise InputError(
                f"vertex length does not match measure dimension {self.dimension}"
            )
        p = 1.0
        for k in range(self.dimension):
            p *= self.interval_probability(k, lower[k], upper[k])
            if p == 0.0:
                return 0.0
        return p

    def rect_probabilities(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """rect_probability of every row of two ``(F, dimension)`` vertex arrays.

        The CDFs of both vertex arrays go through clamped_product, whose
        float operations and their order are rect_probability's, so each
        entry equals the scalar result bit for bit.
        """
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 2 or lower.shape[1] != self.dimension:
            raise InputError(
                f"vertex arrays of shapes {lower.shape} and {upper.shape} do not "
                f"match measure dimension {self.dimension}"
            )
        return clamped_product(self.cdf_table(lower), self.cdf_table(upper))

    def cdf_table(self, x: np.ndarray) -> np.ndarray:
        """Marginal k's cdf of every coordinate k of a ``(..., dimension)`` array."""
        out = np.empty_like(x, dtype=float)
        for k, marginal in enumerate(self.marginals):
            out[..., k] = marginal.cdfs(x[..., k])
        return out

    def box_probability(self, box: Box) -> float:
        """Probability of the box under this measure."""
        return self.rect_probability(box.lower, box.upper)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size-by-n array of points drawn by per-coordinate inverse transform.

        Column k of the uniform draw is copied into row k of one ``(n,
        size)`` array, the draw dies, and marginal k overwrites the row with
        its quantiles.  The transpose is returned: a view whose columns are
        contiguous, so ``.T`` gives rows without a copy.
        """
        points = rng.random((size, self.dimension)).T.copy()
        for row, marginal in zip(points, self.marginals):
            marginal._quantiles_into(row)
        return points.T
