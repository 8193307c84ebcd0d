"""Sharp probability bounds for Boolean functions of events.

Four families live here, all driven by one small dense LP solver:

* binomial-moment problems: best possible bounds on P(union),
  P(at least r occur) and P(exactly r occur) given aggregated moments
  S_1..S_m of the occurrence count;
* their union-augmented variants, which add the exact union probability
  as one more equality row and can only tighten the optima;
* the Hunter-Worsley upper bound (Boole's bound minus a maximum spanning
  tree over pairwise intersection probabilities);
* the Boolean atom LP over individual intersection probabilities p_I,
  which refines what the aggregated moments discard.

The solver is a two-phase dense tableau simplex: fast most-negative
entering with Bland's anti-cycling rule as the fallback under degeneracy,
plus periodic tableau rebuilds from the original data so rounding error
cannot accumulate over long degenerate crawls.  Phase 1 never reads the
objective, so a bound pair runs it once and starts both phase 2 solves
from its basis.  Every problem here has at most a few hundred rows, so a
dense tableau is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleBoundsError, InputError
from .geometry import Box, EmptinessMode
from .measure import ProductMeasure
from .screening import MomentVector, enumerate_tuples

PIVOT_TOL = 1e-9
ORDER_TOL = 1e-9  # how far a BoundPair's lower bound may exceed its upper
_MAX_PIVOTS = 200_000
_STALL_LIMIT = 64  # degenerate pivots tolerated before Bland's rule takes over
_REFRESH_INTERVAL = 40  # pivots between tableau rebuilds from original data
# Cells (rows times columns) of the Boolean atom LP's constraint matrix:
# 1 + sum_{k<=m} C(N, k) rows over 2^N atoms, counted before zero p_I drop
# any.  It admits N = 8 at every m, (10, 2) and (12, 1), and rejects
# (9, 3), where one of nine calls on overlapping boxes runs its simplex
# to the pivot cap and the others take 1-5 s.  Overlapping 2-d boxes have
# no zero p_I, so every atom stays: at N = 8 a bound pair takes up to
# 1.4 s for m = 4, 0.25 s for m = 3 and 5, under 0.1 s from m = 6 on, and
# 37 ms at m = 8, where the inclusion-exclusion start is optimal.  Random
# 2-d boxes keep few atoms and take 5 ms at N = 8.
_ATOM_CELL_BUDGET = 1 << 16
# Cells (rows times columns) of the dense moment matrix a moment LP may
# hold; a bounds call at the budget with m = 3 takes about 1 s and 100 MB.
MOMENT_CELL_BUDGET = 1_000_000


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min or max of objective . x subject to a_eq x = b_eq, x >= 0.

    Any nested sequence of numbers is accepted; the data are stored as
    read-only float64 copies of shapes (n,), (rows, n) and (rows,).
    Problems compare by identity, as arrays have no single truth value.
    """

    objective: np.ndarray
    sense: str
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        objective = np.array(self.objective, dtype=float)
        b_eq = np.array(self.b_eq, dtype=float)
        try:
            a_eq = np.array(self.a_eq, dtype=float)
        except ValueError:  # ragged rows
            a_eq = None
        if self.sense not in ("min", "max"):
            raise InputError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if not objective.size:
            raise InputError("objective must have at least one variable")
        if len(self.a_eq) != len(b_eq):
            raise InputError("constraint matrix and right-hand side disagree")
        shape = (len(b_eq), len(objective))
        if a_eq is not None and not shape[0]:  # no rows: () has shape (0,)
            a_eq = a_eq.reshape(shape)
        if a_eq is None or a_eq.shape != shape:
            raise InputError("constraint row length does not match objective")
        if not all(np.isfinite(data).all() for data in (objective, a_eq, b_eq)):
            raise InputError("LP data must be finite")
        for name, data in (("objective", objective), ("a_eq", a_eq), ("b_eq", b_eq)):
            data.flags.writeable = False
            object.__setattr__(self, name, data)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.b_eq)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    solution: tuple[float, ...] | None = None
    # The phase-1 start an optimal solve began from, for solve_lp's start.
    _start: _Start | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper bound pair produced by one bounding method."""

    lower: float
    upper: float
    method: str

    def __post_init__(self) -> None:
        if self.lower > self.upper + ORDER_TOL:
            raise ArithmeticError(
                f"bounds out of order: {self.lower} > {self.upper} ({self.method})"
            )


@dataclass
class BooleanSystem:
    """Individual intersection probabilities p_I for all nonempty I, |I| <= m.

    Keys are frozensets of 0-based event indices.  Every subset of size
    1..m must be present; values must be probabilities that do not grow
    when the subset grows.
    """

    n_events: int
    m: int
    p: dict[frozenset[int], float]

    def __post_init__(self) -> None:
        if self.n_events < 1:
            raise InputError("Boolean system needs at least one event")
        if not 1 <= self.m <= self.n_events:
            raise InputError(f"constraint order m={self.m} out of range 1..{self.n_events}")
        normalized: dict[frozenset[int], float] = {}
        for key, value in self.p.items():
            subset = frozenset(int(i) for i in key)
            if not subset:
                raise InputError("p keys must be nonempty index subsets")
            if not all(0 <= i < self.n_events for i in subset):
                raise InputError(f"subset {sorted(subset)} out of range")
            if len(subset) > self.m:
                raise InputError(f"subset {sorted(subset)} exceeds order m={self.m}")
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise InputError(f"p[{sorted(subset)}] = {value} is not a probability")
            normalized[subset] = float(value)
        for k in range(1, self.m + 1):
            for combo in combinations(range(self.n_events), k):
                if frozenset(combo) not in normalized:
                    raise InputError(f"missing p entry for subset {list(combo)}")
        for subset, value in normalized.items():
            if len(subset) < 2:
                continue
            for i in subset:
                if value > normalized[subset - {i}] + 1e-12:
                    raise InputError(
                        f"p[{sorted(subset)}] exceeds p[{sorted(subset - {i})}]"
                    )
        self.p = normalized


# ---------------------------------------------------------------------------
# Simplex


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _rebuild(
    tableau: np.ndarray,
    basis: list[int],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> None:
    """Recompute the whole tableau for the current basis from original data.

    A plain tableau accumulates rounding error with every pivot; long
    degenerate crawls can amplify it until noise entries get picked as
    pivots.  Rebuilding resets the error to one linear solve's worth.
    """
    base = a[:, basis]
    stacked = np.column_stack([a, b])
    try:
        body = np.linalg.solve(base, stacked)
    except np.linalg.LinAlgError:
        body, *_ = np.linalg.lstsq(base, stacked, rcond=None)
    rhs = body[:, -1]
    body[:, -1] = np.where((rhs < 0.0) & (rhs > -1e-7), 0.0, rhs)
    tableau[:-1, :] = body
    objective = np.concatenate([c, [0.0]])
    objective -= c[basis] @ body
    tableau[-1, :] = objective


def _pivot_until_optimal(
    tableau: np.ndarray,
    basis: list[int],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> str:
    """Pivot a feasible tableau to optimality.

    Most-negative-reduced-cost entering for speed, with ratio ties broken
    toward the numerically largest pivot; after a stretch of degenerate
    pivots Bland's rule (smallest eligible column, smallest basic index on
    ties) takes over until the objective moves again, which keeps the
    method free of cycles.  The tableau is rebuilt from original data at a
    fixed cadence so rounding error cannot accumulate.
    """
    rows = tableau.shape[0] - 1
    stalled = 0
    for iteration in range(_MAX_PIVOTS):
        if iteration and iteration % _REFRESH_INTERVAL == 0:
            _rebuild(tableau, basis, a, b, c)
        reduced = tableau[rows, :-1]
        bland = stalled >= _STALL_LIMIT
        if bland:
            eligible = np.nonzero(reduced < -PIVOT_TOL)[0]
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_TOL:
                return "optimal"
        column = tableau[:rows, col]
        positive = np.nonzero(column > PIVOT_TOL)[0]
        if positive.size == 0:
            return "unbounded"
        ratios = tableau[:rows, -1][positive] / column[positive]
        ties = positive[ratios == ratios.min()]
        if bland:
            row = int(min(ties, key=lambda i: basis[i]))
        else:
            row = int(ties[np.argmax(column[ties])])
        before = tableau[rows, -1]
        _pivot(tableau, basis, row, col)
        if tableau[rows, -1] - before > 1e-15 * (1.0 + abs(before)):
            stalled = 0
        else:
            stalled += 1
    raise ArithmeticError("simplex did not terminate within the pivot cap")


@dataclass(frozen=True, eq=False)
class _Start:
    """A feasible basis from phase 1, over the rows it kept.

    a and b are those rows as given.  Phase 1 never reads the objective,
    so one start serves the min and the max of any objective over the
    same rows.
    """

    basis: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray


def _phase1(
    a: np.ndarray, b: np.ndarray, crash: np.ndarray | None = None
) -> _Start | None:
    """A feasible basis of a x = b, x >= 0, or None when there is none.

    Without a crash basis every row starts on an artificial variable.  A
    crash basis names one column per row, or -1 for none; with a unit
    column for each row that names none it must form a nonsingular matrix
    B.  Phase 1 then works on the rows of B^-1 a, where a row whose basic
    value is >= 0 starts on its column and only the others get an
    artificial.  A basic value is B^-1 b, a sum of up to m terms, and only
    a negative value within its rounding bound m eps |B^-1| |b| counts as 0.
    Rows are flipped to b >= 0 only after that, so on rows with b < 0 a
    crash solve may end in another optimal basis than on the same rows
    negated (Boolean rows have b >= 0; the moment LPs pass no crash).
    The start it returns holds the rows as given, not B^-1 a.
    """
    m, n = a.shape
    rows, rhs = a.copy(), b.copy()
    on_crash = np.zeros(m, dtype=bool)
    if crash is not None:
        named = crash >= 0
        base = np.eye(m)
        base[:, named] = a[:, crash[named]]
        body = np.linalg.solve(base, np.column_stack([a, b, np.eye(m)]))
        rows, rhs, inverse = body[:, :n], body[:, n], body[:, n + 1 :]
        rounding = m * np.finfo(float).eps * (np.abs(inverse) @ np.abs(b))
        rhs[(rhs < 0.0) & (rhs >= -rounding)] = 0.0
        on_crash = named & (rhs >= 0.0)
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0

    # Artificials on the rows off the crash basis, drive their total to zero.
    art = np.flatnonzero(~on_crash)
    a1 = np.hstack([rows, np.eye(m)[:, art]])
    c1 = np.concatenate([np.zeros(n), np.ones(len(art))])
    tableau = np.zeros((m + 1, n + len(art) + 1))
    tableau[:m, :-1] = a1
    tableau[:m, -1] = rhs
    tableau[m, :n] = -rows[art].sum(axis=0)
    tableau[m, -1] = -rhs[art].sum()
    basis = [0] * m if crash is None else [int(j) for j in crash]
    for k, i in enumerate(art):
        basis[i] = n + k
    _pivot_until_optimal(tableau, basis, a1, rhs, c1)
    if -tableau[m, -1] > PIVOT_TOL:
        return None

    # Pivot leftover artificials out; an all-zero row is redundant and dropped.
    free = np.ones(n, dtype=bool)
    free[[j for j in basis if j < n]] = False
    for i in range(m):
        if basis[i] >= n:
            cols = np.flatnonzero(free & (np.abs(tableau[i, :n]) > PIVOT_TOL))
            if cols.size:
                _pivot(tableau, basis, i, int(cols[0]))
                free[basis[i]] = False
    keep = [i for i in range(m) if basis[i] < n]
    return _Start(tuple(basis[i] for i in keep), a[keep], b[keep])


def _phase2(c: np.ndarray, start: _Start) -> LpResult:
    """min c . x from a phase-1 start, over the original columns only."""
    basis = list(start.basis)
    a2, b2 = start.a, start.b
    rows, n = a2.shape
    phase2 = np.zeros((rows + 1, n + 1))
    _rebuild(phase2, basis, a2, b2, c)
    status = _pivot_until_optimal(phase2, basis, a2, b2, c)
    if status == "unbounded":
        return LpResult(status="unbounded")

    _rebuild(phase2, basis, a2, b2, c)
    x = np.zeros(n)
    x[basis] = phase2[:rows, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(
        status="optimal",
        value=float(c @ x) + 0.0,  # + 0.0 turns a -0.0 optimum into 0.0
        solution=tuple(float(v) for v in x),
        _start=start,
    )


def solve_lp(
    problem: LpProblem,
    start: _Start | None = None,
    *,
    crash: np.ndarray | None = None,
) -> LpResult:
    """Solve the LP; statuses 'infeasible' and 'unbounded' are returned, never
    silently swallowed.

    start is the _start of an optimal result on the same a_eq and b_eq; it
    skips phase 1, which gives the same basis whatever the objective.
    Without it, phase 1 runs from the crash basis crash (see _phase1).
    """
    c, a, b = problem.objective, problem.a_eq, problem.b_eq
    if start is None:
        start = _phase1(a, b, crash)
        if start is None:
            return LpResult(status="infeasible")
    if problem.sense == "min":
        return _phase2(c, start)
    result = _phase2(-c, start)
    if result.status != "optimal":
        return result
    # 0.0 - v, unlike -v, never gives -0.0
    return replace(result, value=0.0 - result.value)


# ---------------------------------------------------------------------------
# Moment problem formulations


def _solve_pair(
    counts: np.ndarray,
    lo: int,
    hi: int,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    method: str,
    capped: bool = True,
    crash: np.ndarray | None = None,
) -> BoundPair:
    """Min and max of the mass on variables whose count lies in lo..hi.

    capped says the rows hold the total mass at most 1, so each optimum is
    a probability; it is clamped to [0, 1], which rounding in the simplex
    can leave by an ULP.  crash is a crash basis for phase 1.  Where the
    target is pinned, the min and the max can end in different bases and
    cross by ULPs; both ends of a crossing within ORDER_TOL get their mean.
    """
    objective = ((counts >= lo) & (counts <= hi)).astype(float)
    values = []
    start = None  # phase 1 runs once, in the min solve
    for sense in ("min", "max"):
        problem = LpProblem(objective, sense, a_eq, b_eq)
        result = solve_lp(problem, start, crash=crash)
        if result.status != "optimal":
            raise InfeasibleBoundsError(
                f"{method}: no distribution matches the supplied data ({result.status})",
                result,
            )
        values.append(min(max(result.value, 0.0), 1.0) if capped else result.value)
        start = result._start
    lower, upper = values
    if upper < lower <= upper + ORDER_TOL:
        lower = upper = (lower + upper) / 2
    return BoundPair(lower, upper, method)


def _moment_rows(moments: MomentVector, m: int, start: int, q: float | None = None):
    """Equality rows sum_i C(i, k) p_i = S_k over p_start..p_N, k = start..m.

    start 0 brings p_0 and the S_0 = 1 row.  A given q puts the union row
    sum_i p_i = q, which is the k = 0 row with q for S_0, first.  Raises
    InputError, before any row is built, above MOMENT_CELL_BUDGET cells.
    """
    orders = range(start if q is None else 0, m + 1)
    counts = range(start, moments.n_events + 1)
    cells = len(orders) * len(counts)
    if cells > MOMENT_CELL_BUDGET:
        raise InputError(
            f"moment LP of {len(orders)} rows and {len(counts)} columns has {cells} "
            f"cells, above the budget of {MOMENT_CELL_BUDGET}"
        )
    a_eq = np.array([[comb(i, k) for i in counts] for k in orders], dtype=float)
    b_eq = np.array([moments.s_k(k) for k in orders])
    if q is not None:
        b_eq[0] = q
    return a_eq, b_eq


def _moment_pair(
    moments: MomentVector,
    m: int,
    start: int,
    lo: int,
    hi: int,
    method: str,
    q: float | None = None,
) -> BoundPair:
    """Bounds on P(lo <= count <= hi) from the moment rows over p_start..p_N.

    The S_0 = 1 row (start 0) or the union row caps the total mass; the
    reduced rows over p_1..p_N alone do not.
    """
    a_eq, b_eq = _moment_rows(moments, m, start, q)
    counts = np.arange(start, moments.n_events + 1)
    capped = start == 0 or q is not None
    return _solve_pair(counts, lo, hi, a_eq, b_eq, method, capped)


def _resolve_order(moments: MomentVector, m: int | None, default: int | None = None) -> int:
    if m is None:
        m = moments.m if default is None else min(default, moments.m)
    if not 1 <= m <= moments.m:
        raise InputError(
            f"moment order m={m} not available (have S_1..S_{moments.m})"
        )
    return m


def union_bounds(
    moments: MomentVector, m: int | None = None, include_p0: bool = False
) -> BoundPair:
    """Sharp bounds on P(at least one event occurs) from S_1..S_m.

    include_p0 switches between the full formulation (variables p_0..p_N
    with the S_0 = 1 row) and the reduced one without p_0.
    """
    if moments.n_events < 1:
        raise InputError("need at least one event")
    m = _resolve_order(moments, m)
    label = f"moment-p0(m={m})" if include_p0 else f"moment(m={m})"
    return _moment_pair(moments, m, 0 if include_p0 else 1, 1, moments.n_events, label)


def atleast_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(at least r events occur) from S_1..S_m."""
    n = moments.n_events
    if not 1 <= r <= n:
        raise InputError(f"r={r} out of range 1..{n}")
    m = _resolve_order(moments, m)
    return _moment_pair(moments, m, 0, r, n, f"moment-p0(m={m})")


def exactly_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(exactly r events occur) from S_1..S_m."""
    n = moments.n_events
    if not 0 <= r <= n:
        raise InputError(f"r={r} out of range 0..{n}")
    m = _resolve_order(moments, m)
    return _moment_pair(moments, m, 0, r, r, f"moment-p0(m={m})")


def _resolve_q(moments: MomentVector, q: float | None) -> float:
    if q is None:
        q = moments.q
    if q is None:
        raise InputError("union probability required: pass q or carry it on the moments")
    if not -1e-12 <= q <= 1.0 + 1e-12:
        raise InputError(f"union probability {q} is not in [0, 1]")
    return float(q)


def q_atleast_bounds(
    moments: MomentVector, r: int, m: int | None = None, q: float | None = None
) -> BoundPair:
    """Bounds on P(at least r occur) given the exact union probability too.

    Adds the equality sum p_i = Q to the moment rows over p_1..p_N, which
    never loosens the plain bounds.  m defaults to min(3, available).
    """
    n = moments.n_events
    if not 1 <= r <= n:
        raise InputError(f"r={r} out of range 1..{n}")
    q = _resolve_q(moments, q)
    m = _resolve_order(moments, m, default=3)
    return _moment_pair(moments, m, 1, r, n, f"q-moment(m={m})", q)


def q_exactly_bounds(
    moments: MomentVector, r: int, m: int | None = None, q: float | None = None
) -> BoundPair:
    """Bounds on P(exactly r occur) given the exact union probability too.

    The layout has no p_0 variable, so r = 0 is rejected; use
    exactly_r_bounds for the count-zero target.
    """
    n = moments.n_events
    if not 1 <= r <= n:
        raise InputError(f"r={r} out of range 1..{n} (no p_0 in this layout)")
    q = _resolve_q(moments, q)
    m = _resolve_order(moments, m, default=3)
    return _moment_pair(moments, m, 1, r, r, f"q-moment(m={m})", q)


# ---------------------------------------------------------------------------
# Hunter-Worsley


def hunter_worsley_upper(
    s1: float, pairwise: Mapping[tuple[int, int], float], n_events: int
) -> float:
    """Upper bound on the union: S_1 minus a maximum spanning tree weight.

    The tree is taken over the complete graph on the events with edge
    weights P(A_i A_j); absent pairs weigh zero, so a disconnected support
    degrades gracefully to the maximum spanning forest.
    """
    if n_events < 0:
        raise InputError("event count must be nonnegative")
    weights: dict[tuple[int, int], float] = {}
    for key, value in pairwise.items():
        i, j = (int(key[0]), int(key[1]))
        if i == j or not (0 <= i < n_events and 0 <= j < n_events):
            raise InputError(f"bad pair key {key!r}")
        if not -1e-12 <= value <= 1.0 + 1e-12:
            raise InputError(f"pairwise probability {value} is not in [0, 1]")
        pair = (i, j) if i < j else (j, i)
        if pair in weights and abs(weights[pair] - value) > 1e-12:
            raise InputError(f"conflicting values for pair {pair}")
        weights[pair] = float(value)
    if n_events <= 1:
        return float(s1)

    # Zero weights (signed or not) change neither a comparison nor the total.
    links = [(pair, w) for pair, w in weights.items() if w]
    weight = np.zeros((n_events, n_events))
    if links:
        pairs, values = zip(*links)
        rows, cols = np.array(pairs).T
        weight[rows, cols] = weight[cols, rows] = values

    # Prim's algorithm; tree vertices hold -inf in best, so argmax picks the
    # heaviest link to the tree, the lowest index among equal weights.
    in_tree = np.zeros(n_events, dtype=bool)
    in_tree[0] = True
    best = weight[0].copy()
    best[0] = -np.inf
    total = 0.0
    for _ in range(n_events - 1):
        v = int(np.argmax(best))
        total += float(best[v])
        in_tree[v] = True
        best[v] = -np.inf
        row = weight[v]
        np.copyto(best, row, where=(row > best) & ~in_tree)
    return float(s1) - total


def pairwise_probabilities(
    boxes: Sequence[Box], measure: ProductMeasure
) -> dict[tuple[int, int], float]:
    """P(A_i A_j) for every index pair i < j, in lexicographic order.

    The order-2 level of a positive-measure ledger; pairs it prunes carry
    probability exactly 0.0.
    """
    ledger = enumerate_tuples(boxes, EmptinessMode.POSITIVE_MEASURE, 2, measure)
    out = dict.fromkeys(combinations(range(len(boxes)), 2), 0.0)
    out.update(ledger.probabilities(2))
    return out


# ---------------------------------------------------------------------------
# Boolean atom LP


def boolean_system_from_boxes(
    boxes: Sequence[Box], measure: ProductMeasure, m: int
) -> BooleanSystem:
    """Intersection probabilities of all subsets up to order m.

    Read from a positive-measure ledger built to order m; every subset it
    prunes carries probability exactly 0.0.
    """
    n = len(boxes)
    if not 1 <= m <= n:
        raise InputError(f"order m={m} out of range 1..{n}")
    ledger = enumerate_tuples(boxes, EmptinessMode.POSITIVE_MEASURE, m, measure)
    p = {}
    for k in range(1, m + 1):
        present = ledger.probabilities(k)
        for combo in combinations(range(n), k):
            p[frozenset(combo)] = present.get(combo, 0.0)
    return BooleanSystem(n, m, p)


def check_atom_cap(n_events: int, m: int) -> None:
    """Reject an atom LP whose matrix holds more than _ATOM_CELL_BUDGET cells.

    The row count stops growing once the budget is passed, so a large N
    costs one binomial coefficient.
    """
    rows = 1
    for k in range(1, m + 1):
        rows += comb(n_events, k)
        if rows << n_events > _ATOM_CELL_BUDGET:
            raise InputError(
                f"Boolean atom LP over 2^{n_events} atoms with subsets up to order {m} "
                f"exceeds the budget of {_ATOM_CELL_BUDGET} matrix cells"
            )


def boolean_lp_bounds(
    system: BooleanSystem, target: str, r: int | None = None
) -> BoundPair:
    """Bounds from the atom LP over occurrence patterns.

    One variable x_J per subset J of events (the probability that exactly
    the events in J occur), one equality per supplied p_I plus total mass
    one.  Targets: 'union' (J nonempty), 'atleast' (|J| >= r), 'exactly'
    (|J| = r).  A supplied p_I <= 0 drops its row and every x_J with J
    containing I, which that row holds at 0.

    Phase 1 starts from the atom of each row's own subset (the empty atom
    for total mass).  That basis is unit triangular, and its basic solution
    is the inclusion-exclusion sum of the supplied p_I: a Bonferroni bound,
    >= 0 on every row where m - |I| is even, and at m = N the exact answer.
    """
    n = system.n_events
    check_atom_cap(n, system.m)
    if target == "union":
        if r is not None:
            raise InputError("r is meaningless for the union target")
        lo, hi = 1, n
    elif target == "atleast":
        if r is None or not 1 <= r <= n:
            raise InputError(f"atleast target needs r in 1..{n}")
        lo, hi = r, n
    elif target == "exactly":
        if r is None or not 0 <= r <= n:
            raise InputError(f"exactly target needs r in 0..{n}")
        lo, hi = r, r
    else:
        raise InputError(f"unknown target {target!r}")

    # Row order is the simplex's pivot order: total mass, then the subsets
    # by size and lexicographically within a size.  Atom J lies in the row
    # of I when J contains I; the singleton rows add up to |J|.
    subsets = [c for k in range(1, system.m + 1) for c in combinations(range(n), k)]
    masks = np.array([sum(1 << i for i in subset) for subset in subsets])[:, None]
    incidence = (np.arange(1 << n) & masks) == masks
    p = np.array([system.p[frozenset(subset)] for subset in subsets])
    sizes = incidence[:n].sum(axis=0)
    # p_I <= 0 forces x_J = 0 for every atom J in the row of I: drop those
    # atoms and the rows, which leaves an equivalent LP over the survivors.
    zero = p <= 0.0
    atoms = ~incidence[zero].any(axis=0)
    a_eq = np.vstack([np.ones(np.count_nonzero(atoms)), incidence[~zero][:, atoms]])
    b_eq = np.concatenate([[1.0], p[~zero]])
    # The 1e-12 slack of BooleanSystem lets a kept row's own atom contain a
    # zero row's subset; such a row names no column and gets an artificial.
    own = np.concatenate([[0], masks[~zero, 0]])
    crash = np.where(atoms[own], np.cumsum(atoms)[own] - 1, -1)
    return _solve_pair(
        sizes[atoms],
        lo,
        hi,
        a_eq,
        b_eq,
        f"boolean(m={system.m})",
        crash=crash,
    )
