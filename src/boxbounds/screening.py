"""Intersection-graph screening for inclusion-exclusion.

Pairs of events whose boxes fail the vertex comparison test cannot carry
probability, and neither can any tuple containing them.  Building the graph
of surviving pairs and extending its cliques therefore enumerates exactly
the tuples that matter, which prunes the 2^N - 1 term inclusion-exclusion
formula down to the surviving terms (axis-aligned boxes have the Helly
property, so graph cliques and nonempty tuples coincide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .geometry import Box, EmptinessMode, box_vertices, require_measure_dimension
from .measure import ProductMeasure, clamped_product


@dataclass(frozen=True)
class IntersectionGraph:
    """Vertices are event indices; an edge means the pair survives the test."""

    n_events: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", frozenset((int(i), int(j)) for i, j in self.edges)
        )
        for i, j in self.edges:
            if not (0 <= i < j < self.n_events):
                raise InputError(f"edge ({i}, {j}) out of range for {self.n_events} vertices")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


@dataclass(frozen=True)
class TupleEntry:
    """A surviving index tuple with its intersection box and probability."""

    indices: tuple[int, ...]
    box: Box
    probability: float | None = None


class LedgerOrder(NamedTuple):
    """The surviving tuples of one order k as columns, row f being one tuple.

    ``indices`` is ``(F, k)``, ``lower``/``upper`` are ``(F, d)`` and hold
    the intersection vertices (enumerate_tuples gives the two halves of one
    ``(F, 2, d)`` array), ``probability`` is ``(F,)`` or None when the
    ledger was built without a measure.  Rows are in lexicographic order.
    """

    indices: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    probability: np.ndarray | None


@dataclass(frozen=True)
class TupleLedger:
    """Surviving tuples per order k, stored as columns, rows lexicographic.

    Only orders with at least one surviving tuple are stored.  ``entries``
    builds row objects on demand; the counts and sums read the columns.
    """

    n_events: int
    ids: tuple[str, ...]
    levels: dict[int, LedgerOrder] = field(default_factory=dict)

    def entries(self, order: int) -> list[TupleEntry]:
        """Row objects of one order, built on each call; [] for an absent order."""
        level = self.levels.get(order)
        if level is None:
            return []
        probabilities = (
            [None] * len(level.indices)
            if level.probability is None
            else level.probability.tolist()
        )
        return [
            TupleEntry(
                tuple(indices), Box("".join(self.ids[i] for i in indices), lower, upper), p
            )
            for indices, lower, upper, p in zip(
                level.indices.tolist(), level.lower.tolist(), level.upper.tolist(), probabilities
            )
        ]

    @property
    def max_order(self) -> int:
        return max(self.levels, default=0)

    def term_count(self) -> int:
        return sum(len(level.indices) for level in self.levels.values())

    def _probability_column(self, order: int) -> np.ndarray:
        level = self.levels.get(order)
        if level is None:
            return np.empty(0)
        if level.probability is None:
            raise InputError("ledger was built without a measure; probabilities missing")
        return level.probability

    def probabilities(self, order: int) -> dict[tuple[int, ...], float]:
        """{index tuple: probability} over the surviving tuples of one order."""
        level = self.levels.get(order)
        indices = [] if level is None else map(tuple, level.indices.tolist())
        return dict(zip(indices, self._probability_column(order).tolist()))

    def order_sum(self, order: int) -> float:
        """Probability total over the surviving tuples of one order."""
        return fsum(self._probability_column(order).tolist())


@dataclass(frozen=True)
class MomentVector:
    """Binomial moments S_1..S_m of the occurrence count.

    ``s[k-1]`` holds S_k; S_0 = 1 by convention.  ``q`` carries the exact
    union probability when it is known.
    """

    n_events: int
    s: tuple[float, ...]
    q: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", tuple(float(v) for v in self.s))
        if self.n_events < 0:
            raise InputError("event count must be nonnegative")
        if len(self.s) > self.n_events:
            raise InputError(
                f"got {len(self.s)} moments for {self.n_events} events; "
                f"S_k vanishes identically beyond k = N"
            )

    @property
    def m(self) -> int:
        return len(self.s)

    def s_k(self, k: int) -> float:
        if k == 0:
            return 1.0
        if not 1 <= k <= self.m:
            raise InputError(f"moment S_{k} not available (have 1..{self.m})")
        return self.s[k - 1]


class UnionResult(NamedTuple):
    q: float
    terms_used: int
    terms_full: int


class TupleVerdict(NamedTuple):
    """One verdict-table row: candidate intersection vertices plus yes/no."""

    indices: tuple[int, ...]
    label: str
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nonempty: bool


def _pair_mask(vertices: np.ndarray, mode: EmptinessMode):
    """Boxes that pass the vertex test, and ``later[i, j]``, i < j, when i and j do.

    Without NaN, max(a, b) < min(c, d) exactly when a < c, a < d, b < c and
    b < d (so too for <=).  So per axis the outer test of the (contiguous)
    lower against upper vertices fills one reused ``(N, N)`` buffer, whose
    diagonal holds each box's verdict, and then its transpose, written in
    memory order (reading it strided was 25 times slower); the mask ANDs
    both.  Mask and buffer take 2N² bytes, build_graph's peak; the walk's
    peak is unchanged, as it holds an ``(R, N)`` candidate gather next to it.
    """
    n = len(vertices)
    test = np.less_equal if mode is EmptinessMode.CLOSED else np.less
    later, meets = np.less.outer(np.arange(n), np.arange(n)), np.empty((n, n), dtype=bool)
    passes = np.ones(n, dtype=bool)
    for lower, upper in vertices.transpose(2, 1, 0).copy():
        later &= test.outer(lower, upper, out=meets)
        passes &= meets.diagonal()
        later &= test.outer(lower, upper, out=meets.T).T
    later[~passes] = later[:, ~passes] = False
    return passes, later


def build_graph(boxes: Sequence[Box], mode: EmptinessMode) -> IntersectionGraph:
    """Graph whose edges are the index pairs with nonempty intersection."""
    later = _pair_mask(box_vertices(boxes), mode)[1]
    first, second = np.divmod(np.flatnonzero(later), len(boxes))
    return IntersectionGraph(len(boxes), frozenset(zip(first.tolist(), second.tolist())))


def pair_verdicts(boxes: Sequence[Box], mode: EmptinessMode) -> list[TupleVerdict]:
    """One row per index pair, in lexicographic order, including failures.

    The meet takes the later box's coordinate only when it is strictly
    larger (lower) or smaller (upper), the comparison Python's max/min
    make, so ties between 0.0 and -0.0 keep the sign meet_vertices keeps.
    """
    vertices = box_vertices(boxes)
    lowers, uppers = vertices[:, 0], vertices[:, 1]
    first, second = np.triu_indices(len(boxes), 1)
    nonempty = _pair_mask(vertices, mode)[1][first, second]
    lower = np.where(lowers[second] > lowers[first], lowers[second], lowers[first])
    upper = np.where(uppers[second] < uppers[first], uppers[second], uppers[first])
    ids = [box.id for box in boxes]
    return [
        TupleVerdict((i, j), ids[i] + ids[j], tuple(lo), tuple(hi), verdict)
        for i, j, lo, hi, verdict in zip(
            first.tolist(), second.tolist(), lower.tolist(), upper.tolist(), nonempty.tolist()
        )
    ]


# Terms a ledger or clique walk may hold before it stops with an InputError.
# A kept term of order k in d dimensions takes (k + 2d + 1) * 8 bytes.
TERM_BUDGET = 1_000_000
# Bytes the gather of one order's candidate masks may allocate: one byte
# per event and term, counted three times over.  The walk holds two such
# arrays (the gathered rows, ANDed in place), so the bound is conservative.
MASK_BYTE_BUDGET = 128 * 2**20


def _clique_levels(later: np.ndarray, roots: np.ndarray, cap: int):
    """Cliques of orders 1..cap whose smallest vertex is one of the roots.

    Yields ``(indices, f, w)`` per nonempty order k: ``indices`` is the
    ``(F, k)`` index array, rows in lexicographic order, and row r of it
    extends row ``f[r]`` of order k-1 by vertex ``w[r]`` (``f`` and ``w``
    are None at order 1).  Each row keeps a mask of the later vertices
    adjacent to all of its members; order k+1 extends row f by every such
    vertex w in row-major order, which keeps the rows lexicographic.  The
    last order of a capped walk gathers no mask.  Stops with an InputError
    before an order whose candidates would take the walk past TERM_BUDGET
    terms, or before a mask gather past MASK_BYTE_BUDGET.
    """
    indices = roots[:, None]
    f = w = None
    cand = later[roots]
    kept = 0
    for k in range(1, cap + 1):
        if not len(indices):
            return
        yield indices, f, w
        kept += len(indices)
        if k == cap:
            return
        pending = int(np.count_nonzero(cand))
        if kept + pending > TERM_BUDGET:
            raise InputError(
                f"{kept + pending} inclusion-exclusion terms up to order {k + 1} "
                f"exceed the budget of {TERM_BUDGET}"
            )
        # the flat split gives np.nonzero's row-major pairs, four times faster
        f, w = np.divmod(np.flatnonzero(cand), len(later))
        indices = np.column_stack((indices[f], w))
        if k + 1 == cap:
            continue
        gather = 3 * len(f) * len(later)
        if gather > MASK_BYTE_BUDGET:
            raise InputError(
                f"{gather} candidate-mask bytes for order {k + 2} "
                f"exceed the budget of {MASK_BYTE_BUDGET}"
            )
        cand = cand[f]
        cand &= later[w]


def cliques_by_order(
    graph: IntersectionGraph, max_order: int | None = None
) -> dict[int, list[tuple[int, ...]]]:
    """Cliques of the graph grouped by size, lexicographic within each size.

    Level k is produced by extending level k-1 tuples with a common
    neighbor of larger index, so level k is exactly the k-vertex cliques.
    Raises InputError when the walk would exceed TERM_BUDGET cliques or
    MASK_BYTE_BUDGET mask bytes.
    """
    n = graph.n_events
    cap = n if max_order is None else min(max_order, n)
    first, second = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2).T
    later = np.zeros((n, n), dtype=bool)
    later[first, second] = True
    levels = _clique_levels(later, np.arange(n), cap)
    return {
        k: [tuple(t) for t in indices.tolist()] for k, (indices, _, _) in enumerate(levels, 1)
    }


def count_cliques(graph: IntersectionGraph, order: int) -> int:
    return len(cliques_by_order(graph, order).get(order, []))


def clique_number(graph: IntersectionGraph) -> int:
    return max(cliques_by_order(graph), default=0)


def enumerate_tuples(
    boxes: Sequence[Box],
    mode: EmptinessMode,
    max_order: int,
    measure: ProductMeasure | None = None,
) -> TupleLedger:
    """All index tuples of order <= max_order with nonempty intersection.

    One screened walk from the pair test's pass: its per-box verdicts give
    the roots, its mask the later neighbours, and order k extends the
    surviving (k-1)-tuples by neighbours common to every member.  The
    extensions need no k-wise re-test: max and min do not round, so a meet
    passes the vertex test exactly when every member's lower vertex passes
    it against every member's upper one, which the pass has checked.
    max_order above the event count is clamped.  With a measure given, each
    order carries its intersection probabilities; every tuple the walk
    leaves out has probability exactly 0.0 under POSITIVE_MEASURE.  Whole
    orders are built at once.  The boxes are ranked once per walk, per side
    and axis, by the coordinate the meet keeps: the larger lower and the
    smaller upper, and on a tie (-0.0 against 0.0 too) the smaller index,
    the member the comparison of Python's max/min keeps, as in
    pair_verdicts.  So a meet coordinate is its top-ranked member's own
    coordinate: each order takes the highest rank of a row's members, and
    gathers the vertices and, with a measure, the CDF values from tables
    sorted by rank, each marginal's CDF evaluated once on the boxes'
    vertices.  An order's probabilities are clamped_product of those
    values, bit for bit rect_probabilities of its vertices.  The ranks and
    CDF values of an order live only until the next order is built; the
    ledger keeps indices, vertices and probabilities.  Raises InputError
    when the walk would exceed TERM_BUDGET terms or MASK_BYTE_BUDGET bytes.
    """
    vertices = box_vertices(boxes)  # (N, 2, d)
    if measure is not None:
        require_measure_dimension(vertices, measure.dimension)
    n = len(boxes)
    cap = min(max_order, n)
    ids = tuple(box.id for box in boxes)
    levels: dict[int, LedgerOrder] = {}
    if cap < 1:
        return TupleLedger(n, ids, levels)
    passes, later = _pair_mask(vertices, mode)
    roots = np.flatnonzero(passes)
    # by_rank[r, s, j] is the place in vertices.ravel() of the box of rank r
    # on side s, axis j.  The sort key is -lower and upper, so once reversed
    # the box the meet keeps ranks highest, and of tied boxes the smaller
    # index, which the stable sort put first.  slots is the inverse: a box's
    # place in table, which orders as its rank does.
    d = vertices.shape[2]
    by_rank = np.argsort(vertices * [[-1.0], [1.0]], axis=0, kind="stable")[::-1]
    by_rank = by_rank * (2 * d) + np.arange(2 * d).reshape(2, d)
    slots = np.empty_like(by_rank)
    slots.put(by_rank, np.arange(by_rank.size))
    table = vertices.take(by_rank)
    if measure is not None:
        cdfs = measure.cdf_table(table)  # the CDF value of every coordinate, by rank
    current = slots[roots]
    for k, (indices, f, w) in enumerate(_clique_levels(later, roots, cap), 1):
        if f is not None:
            current = current[f]
            np.maximum(current, slots[w], out=current)
        meets = table.take(current)
        probability = None
        if measure is not None:
            # the two (F, d) halves of the gather, which dies with this line
            probability = clamped_product(*cdfs.take(current).transpose(1, 0, 2))
        levels[k] = LedgerOrder(indices, meets[:, 0], meets[:, 1], probability)
    return TupleLedger(n, ids, levels)


def _signed_total(ledger: TupleLedger) -> float:
    """Alternating inclusion-exclusion total over the ledger, fully summed
    with fsum in deterministic (order, lexicographic) order."""
    signed = []
    for k in sorted(ledger.levels):
        probability = ledger._probability_column(k)
        signed.extend((probability if k % 2 == 1 else -probability).tolist())
    return fsum(signed)


def screened_union(
    boxes: Sequence[Box],
    measure: ProductMeasure,
    mode: EmptinessMode = EmptinessMode.POSITIVE_MEASURE,
) -> UnionResult:
    """Exact union probability via inclusion-exclusion over surviving tuples.

    terms_used counts every retained summand across all orders, singletons
    included; terms_full is the 2^N - 1 of the unpruned formula (an exact
    Python integer, so large N cannot overflow the count).
    """
    if not boxes:
        return UnionResult(0.0, 0, 0)
    ledger = enumerate_tuples(boxes, mode, len(boxes), measure=measure)
    return UnionResult(_signed_total(ledger), ledger.term_count(), 2 ** len(boxes) - 1)


def binomial_moments(
    boxes: Sequence[Box],
    measure: ProductMeasure,
    mode: EmptinessMode = EmptinessMode.POSITIVE_MEASURE,
    m: int | None = None,
) -> MomentVector:
    """Binomial moments S_1..S_m from the surviving tuples, plus exact Q.

    S_k sums the intersection probabilities of the surviving k-tuples;
    pruned tuples contribute zero, so the sums are exact.  m defaults to
    the event count and is clamped to it.
    """
    n = len(boxes)
    m = n if m is None else min(m, n)
    if m < 0:
        raise InputError("moment order must be nonnegative")
    if n == 0:
        return MomentVector(0, (), 0.0)
    ledger = enumerate_tuples(boxes, mode, n, measure=measure)
    s = tuple(ledger.order_sum(k) for k in range(1, m + 1))
    return MomentVector(n, s, _signed_total(ledger))


def _dot_id(name: str) -> str:
    """name as a DOT quoted string, where \\" is the one escape.

    A backslash before a quote or a newline, or at the end, would join
    with what follows it; DOT has no way to write such a name.
    """
    if name.endswith("\\") or '\\"' in name or "\\\n" in name:
        raise InputError(f"id {name!r} cannot be written as a DOT quoted string")
    return '"' + name.replace('"', '\\"') + '"'


def to_dot(graph: IntersectionGraph, labels: Sequence[str] | None = None) -> str:
    """DOT rendering of the graph with vertices labeled by event ids.

    Raises InputError for an id that no DOT quoted string can hold.
    """
    if labels is None:
        labels = [str(v) for v in range(graph.n_events)]
    if len(labels) != graph.n_events:
        raise InputError(
            f"got {len(labels)} labels for {graph.n_events} vertices"
        )
    names = [_dot_id(name) for name in labels]
    lines = ["graph intersections {"]
    for name in names:
        lines.append(f"  {name};")
    for i, j in sorted(graph.edges):
        lines.append(f"  {names[i]} -- {names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
