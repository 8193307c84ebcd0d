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
from functools import cached_property
from itertools import chain
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


class MeetRanks(NamedTuple):
    """The boxes' coordinates ranked by which one a meet keeps.

    ``table`` holds the ``(N, 2, d)`` vertices sorted, per side and axis,
    so that rank r's box supplies place ``(r, side, axis)``: the larger
    lower and the smaller upper rank higher, and of tied boxes (-0.0
    against 0.0 too) the smaller index, the member the comparison of
    Python's max/min keeps.  ``slots[i, side, axis]`` is the flat place in
    table of box i's coordinate, so a meet coordinate sits at its members'
    highest slot.
    """

    slots: np.ndarray
    table: np.ndarray

    def places(self, members) -> np.ndarray:
        """Per row, the place in table of each meet coordinate, ``(B, 2, d)``.

        members holds k index arrays of length B, array c holding the c-th
        member of each row.
        """
        top = self.slots[members[0]]
        for member in members[1:]:
            np.maximum(top, self.slots[member], out=top)
        return top

    def meets(self, members) -> np.ndarray:
        """The ``(B, 2, d)`` intersection vertices of the rows of members."""
        return self.table.take(self.places(members))


def _meet_ranks(vertices: np.ndarray) -> MeetRanks:
    """Ranks of the ``(N, 2, d)`` vertices; see MeetRanks for the order."""
    # by_rank[r, s, j] is the place in vertices.ravel() of the box of rank r
    # on side s, axis j.  The sort key is -lower and upper, so once reversed
    # the box the meet keeps ranks highest, and of tied boxes the smaller
    # index, which the stable sort put first.  slots is the inverse.
    d = vertices.shape[2]
    by_rank = np.argsort(vertices * [[-1.0], [1.0]], axis=0, kind="stable")[::-1]
    by_rank = by_rank * (2 * d) + np.arange(2 * d).reshape(2, d)
    slots = np.empty_like(by_rank)
    slots.put(by_rank, np.arange(by_rank.size))
    return MeetRanks(slots, vertices.take(by_rank))


class LedgerOrder:
    """The surviving tuples of one order k, row r being one tuple.

    The walk keeps three columns: ``f``, the row of order k-1 that row r
    extends, ``w``, the box it adds (at order 1 ``f`` is None and ``w`` is
    the box itself), and ``probability``, ``(F,)`` or None when the ledger
    was built without a measure; 24 bytes a row with a measure.
    ``indices``, ``(F, k)``, and the intersection vertices ``lower`` and
    ``upper``, ``(F, d)``, are built on first read and kept: indices from
    the parent order's, the vertices by one take from the ranks' table at
    the members' highest slot.  Rows are in lexicographic order.
    """

    def __init__(self, parent, f, w, probability, ranks) -> None:
        self.parent = parent
        self.f = f
        self.w = w
        self.probability = probability
        self.ranks = ranks

    def __len__(self) -> int:
        return len(self.w)

    @cached_property
    def indices(self) -> np.ndarray:
        if self.parent is None:
            return self.w[:, None]
        return np.column_stack((self.parent.indices[self.f], self.w))

    @cached_property
    def _meets(self) -> np.ndarray:
        return self.ranks.meets(self.indices.T)

    @property
    def lower(self) -> np.ndarray:
        return self._meets[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self._meets[:, 1]


# Bits of the two low chunks of a 53-bit integer mantissa in exact_bins.
# At most 26, so the signed rest is split off by exact float steps.
_CHUNK_BITS = 18


def exact_bins(values: np.ndarray, groups: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Per group, floats whose exact sum is that of the group's values.

    The small superaccumulator of Neal (arXiv:1505.05571): each value is a
    53-bit integer mantissa times a power of two, split by exact float
    operations into bits 0-17, bits 18-35 and the signed rest, and one
    bincount per chunk sums them per group and power of two.  A chunk is
    below 2**18 in size, so a bin of fewer than 2**33 values stays an
    exact integer below 2**53, and its float (the power applied, exact too:
    every chunk is a multiple of the smallest subnormal) needs no
    rounding.  So fsum of a group's bins is fsum of its values, provided no
    bin overflows, as none can when every |value| is at most 1.  Zero bins
    are left out.
    """
    if not len(values):
        return [np.empty(0)] * n_groups
    bits = _CHUNK_BITS
    chunk, exponent = np.frexp(values)  # value = chunk * 2**exponent, |chunk| < 1
    lowest = int(exponent.min())
    # A group's keys leave room for the middle and high chunks' shifts.
    span = int(exponent.max()) - lowest + 2 * bits + 1
    key = groups * span
    key += exponent
    key -= lowest
    # The chunks, integers once scaled, peeled off from the top by floors
    # and subtractions, all exact: high holds the signed rest, middle bits
    # 18-35 and chunk bits 0-17, in units of 2**(exponent - 53) shifted
    # up by 2 * bits, bits and none.
    chunk *= 2.0 ** (53 - 2 * bits)
    high = np.floor(chunk)
    chunk -= high
    chunk *= 2.0**bits
    middle = np.floor(chunk)
    chunk -= middle
    chunk *= 2.0**bits
    size = n_groups * span
    totals = np.bincount(key, weights=chunk, minlength=size)
    totals[bits:] += np.bincount(key, weights=middle, minlength=size)[:-bits]
    totals[2 * bits :] += np.bincount(key, weights=high, minlength=size)[: -2 * bits]
    nonzero = np.flatnonzero(totals)
    floats = np.ldexp(totals[nonzero], nonzero % span + (lowest - 53))
    return np.split(floats, np.searchsorted(nonzero, np.arange(1, n_groups) * span))


@dataclass(frozen=True)
class TupleLedger:
    """Surviving tuples per order k, rows lexicographic, with their ranks.

    Only orders with at least one surviving tuple are stored.  ``entries``
    builds row objects on demand; the counts read row counts.  The order
    sums S_k and the alternating total come from one exact pass over every
    probability (exact_bins), made on first use and kept: each equals
    fsum of its terms.  ``ranks`` is None only when no order was walked.
    """

    n_events: int
    ids: tuple[str, ...]
    levels: dict[int, LedgerOrder] = field(default_factory=dict)
    ranks: MeetRanks | None = None

    def entries(self, order: int) -> list[TupleEntry]:
        """Row objects of one order, built on each call; [] for an absent order."""
        level = self.levels.get(order)
        if level is None:
            return []
        probabilities = (
            [None] * len(level) if level.probability is None else level.probability.tolist()
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
        return sum(map(len, self.levels.values()))

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

    @cached_property
    def _sums(self) -> tuple[dict[int, float], float]:
        """({k: S_k}, the alternating total), each fsum of its terms."""
        orders = sorted(self.levels)
        columns = [self._probability_column(k) for k in orders]
        groups = np.repeat(np.arange(len(orders)), list(map(len, columns)))
        bins = exact_bins(np.concatenate([np.empty(0), *columns]), groups, len(orders))
        signed = [(b if k % 2 else -b).tolist() for k, b in zip(orders, bins)]
        return dict(zip(orders, (fsum(b.tolist()) for b in bins))), fsum(chain(*signed))

    def order_sum(self, order: int) -> float:
        """Probability total over the surviving tuples of one order."""
        if order not in self.levels:
            return 0.0
        return self._sums[0][order]

    def signed_total(self) -> float:
        """The alternating inclusion-exclusion total, S_1 - S_2 + S_3 - ...,
        summed exactly over every term."""
        return self._sums[1]


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

    The meets are read from the boxes' MeetRanks, so ties between 0.0 and
    -0.0 keep the sign meet_vertices keeps.
    """
    vertices = box_vertices(boxes)
    first, second = np.triu_indices(len(boxes), 1)
    nonempty = _pair_mask(vertices, mode)[1][first, second]
    meets = _meet_ranks(vertices).meets((first, second))
    lower, upper = meets[:, 0], meets[:, 1]
    ids = [box.id for box in boxes]
    return [
        TupleVerdict((i, j), ids[i] + ids[j], tuple(lo), tuple(hi), verdict)
        for i, j, lo, hi, verdict in zip(
            first.tolist(), second.tolist(), lower.tolist(), upper.tolist(), nonempty.tolist()
        )
    ]


# Terms a ledger or clique walk may hold before it stops with an InputError.
# A kept term takes 3 * 8 bytes (its parent row, its added box and its
# probability) until its indices or vertices are read.
TERM_BUDGET = 1_000_000
# Bytes the gather of one order's candidate masks may allocate: one byte
# per event and term, counted three times over.  The walk holds two such
# arrays (the gathered rows, ANDed in place), so the bound is conservative.
MASK_BYTE_BUDGET = 128 * 2**20


def _clique_levels(later: np.ndarray, roots: np.ndarray, cap: int):
    """Cliques of orders 1..cap whose smallest vertex is one of the roots.

    Yields ``(f, w)`` per nonempty order k, rows in lexicographic order:
    row r extends row ``f[r]`` of order k-1 by vertex ``w[r]`` (at order 1
    ``f`` is None and ``w`` the roots).  Each row keeps a mask of the
    later vertices adjacent to all of its members; order k+1 extends row f
    by every such vertex w in row-major order, which keeps the rows
    lexicographic.  The last order of a capped walk gathers no mask.  Stops with an InputError
    before an order whose candidates would take the walk past TERM_BUDGET
    terms, or before a mask gather past MASK_BYTE_BUDGET.
    """
    f, w = None, roots
    cand = later[roots]
    kept = 0
    for k in range(1, cap + 1):
        if not len(w):
            return
        yield f, w
        kept += len(w)
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
    levels: dict[int, LedgerOrder] = {}
    for k, (f, w) in enumerate(_clique_levels(later, np.arange(n), cap), 1):
        levels[k] = LedgerOrder(levels.get(k - 1), f, w, None, None)
    return {k: [tuple(t) for t in level.indices.tolist()] for k, level in levels.items()}


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
    orders are built at once.  The boxes are ranked once per walk
    (MeetRanks), so a meet coordinate is its top-ranked member's own
    coordinate.  With a measure, each order takes the highest slot of a
    row's members from its parent row's and gathers the CDF values from a
    table sorted by rank, each marginal's CDF evaluated once on the boxes'
    vertices; an order's probabilities are clamped_product of those
    values, bit for bit rect_probabilities of its vertices.  The slots and
    CDF values of an order live only until the next order is built; the
    ledger keeps each order's parent rows, added boxes and probabilities,
    and the ranks, from which it builds indices and vertices when they are
    read.  Raises InputError when the walk would exceed TERM_BUDGET terms
    or MASK_BYTE_BUDGET bytes.
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
    ranks = _meet_ranks(vertices)
    if measure is not None:
        cdfs = measure.cdf_table(ranks.table)  # the CDF value of every coordinate, by rank
        current = ranks.slots[roots]
    for k, (f, w) in enumerate(_clique_levels(later, roots, cap), 1):
        probability = None
        if measure is not None:
            if f is not None:
                current = current[f]
                np.maximum(current, ranks.slots[w], out=current)
            # the two (F, d) halves of the gather, which dies with this line
            probability = clamped_product(*cdfs.take(current).transpose(1, 0, 2))
        levels[k] = LedgerOrder(levels.get(k - 1), f, w, probability, ranks)
    return TupleLedger(n, ids, levels, ranks)


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
    return UnionResult(ledger.signed_total(), ledger.term_count(), 2 ** len(boxes) - 1)


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
    return MomentVector(n, s, ledger.signed_total())


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
