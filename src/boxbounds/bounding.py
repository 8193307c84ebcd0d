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
cannot accumulate over long degenerate crawls.  Every problem here has at
most a few hundred rows, so a dense tableau is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleBoundsError, InputError
from .geometry import Box, EmptinessMode
from .measure import ProductMeasure
from .screening import MomentVector, enumerate_tuples

PIVOT_TOL = 1e-9
_MAX_PIVOTS = 200_000
_STALL_LIMIT = 64  # degenerate pivots tolerated before Bland's rule takes over
_REFRESH_INTERVAL = 40  # pivots between tableau rebuilds from original data
_ATOM_CAP = 12  # Boolean LP has 2^N variables


@dataclass(frozen=True)
class LpProblem:
    """min or max of objective . x subject to a_eq x = b_eq, x >= 0."""

    objective: tuple[float, ...]
    sense: str
    a_eq: tuple[tuple[float, ...], ...]
    b_eq: tuple[float, ...]

    def __post_init__(self) -> None:
        objective = tuple(float(v) for v in self.objective)
        a_eq = tuple(tuple(float(v) for v in row) for row in self.a_eq)
        b_eq = tuple(float(v) for v in self.b_eq)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        if self.sense not in ("min", "max"):
            raise InputError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if not objective:
            raise InputError("objective must have at least one variable")
        if len(a_eq) != len(b_eq):
            raise InputError("constraint matrix and right-hand side disagree")
        for row in a_eq:
            if len(row) != len(objective):
                raise InputError("constraint row length does not match objective")
        entries = [*objective, *b_eq, *(v for row in a_eq for v in row)]
        if not all(isfinite(v) for v in entries):
            raise InputError("LP data must be finite")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.a_eq)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    solution: tuple[float, ...] | None = None


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper bound pair produced by one bounding method."""

    lower: float
    upper: float
    method: str

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-9:
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


def _simplex_min(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LpResult:
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis, drive the artificial total to zero.
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, : n + m] = a1
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    _pivot_until_optimal(tableau, basis, a1, b, c1)
    if -tableau[m, -1] > PIVOT_TOL:
        return LpResult(status="infeasible")

    # Pivot leftover artificials out; an all-zero row is redundant and dropped.
    drop = []
    in_basis = set(basis)
    for i in range(m):
        if basis[i] < n:
            continue
        row = tableau[i, :n]
        col = next(
            (j for j in range(n) if j not in in_basis and abs(row[j]) > PIVOT_TOL),
            None,
        )
        if col is None:
            drop.append(i)
        else:
            in_basis.discard(basis[i])
            _pivot(tableau, basis, i, col)
            in_basis.add(col)
    keep = [i for i in range(m) if i not in drop]
    basis = [basis[i] for i in keep]
    rows = len(keep)

    # Phase 2: original columns only, fresh objective row.
    a2 = a[keep]
    b2 = b[keep]
    phase2 = np.zeros((rows + 1, n + 1))
    _rebuild(phase2, basis, a2, b2, c)
    status = _pivot_until_optimal(phase2, basis, a2, b2, c)
    if status == "unbounded":
        return LpResult(status="unbounded")

    _rebuild(phase2, basis, a2, b2, c)
    x = np.zeros(n)
    for i, bj in enumerate(basis):
        x[bj] = phase2[i, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(
        status="optimal",
        value=float(c @ x),
        solution=tuple(float(v) for v in x),
    )


def solve_lp(problem: LpProblem) -> LpResult:
    """Solve the LP; statuses 'infeasible' and 'unbounded' are returned, never
    silently swallowed."""
    c = np.array(problem.objective, dtype=float)
    a = np.array(problem.a_eq, dtype=float).reshape(problem.n_rows, problem.n_vars)
    b = np.array(problem.b_eq, dtype=float)
    if problem.sense == "min":
        return _simplex_min(c, a, b)
    result = _simplex_min(-c, a, b)
    if result.status != "optimal":
        return result
    return LpResult(status="optimal", value=-result.value, solution=result.solution)


# ---------------------------------------------------------------------------
# Moment problem formulations


def _solve_pair(
    objective: Sequence[float],
    rows: Sequence[Sequence[float]],
    rhs: Sequence[float],
    method: str,
) -> BoundPair:
    low = solve_lp(LpProblem(tuple(objective), "min", tuple(rows), tuple(rhs)))
    if low.status != "optimal":
        raise InfeasibleBoundsError(
            f"{method}: no distribution matches the supplied data ({low.status})", low
        )
    high = solve_lp(LpProblem(tuple(objective), "max", tuple(rows), tuple(rhs)))
    if high.status != "optimal":
        raise InfeasibleBoundsError(
            f"{method}: no distribution matches the supplied data ({high.status})", high
        )
    return BoundPair(low.value, high.value, method)


def _moment_rows(moments: MomentVector, m: int, include_p0: bool):
    """Equality rows sum_i C(i, k) p_i = S_k for k up to m.

    Variables are p_0..p_N with the S_0 = 1 row when include_p0 is set,
    otherwise p_1..p_N with rows starting at k = 1.
    """
    n = moments.n_events
    start = 0 if include_p0 else 1
    rows = []
    rhs = []
    for k in range(start, m + 1):
        rows.append(tuple(float(comb(i, k)) for i in range(start, n + 1)))
        rhs.append(moments.s_k(k))
    return rows, rhs, start


def _indicator(start: int, n: int, lo: int, hi: int) -> tuple[float, ...]:
    return tuple(1.0 if lo <= i <= hi else 0.0 for i in range(start, n + 1))


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
    rows, rhs, start = _moment_rows(moments, m, include_p0)
    objective = _indicator(start, moments.n_events, 1, moments.n_events)
    label = f"moment-p0(m={m})" if include_p0 else f"moment(m={m})"
    return _solve_pair(objective, rows, rhs, label)


def atleast_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(at least r events occur) from S_1..S_m."""
    n = moments.n_events
    if not 1 <= r <= n:
        raise InputError(f"r={r} out of range 1..{n}")
    m = _resolve_order(moments, m)
    rows, rhs, start = _moment_rows(moments, m, include_p0=True)
    objective = _indicator(start, n, r, n)
    return _solve_pair(objective, rows, rhs, f"moment-p0(m={m})")


def exactly_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(exactly r events occur) from S_1..S_m."""
    n = moments.n_events
    if not 0 <= r <= n:
        raise InputError(f"r={r} out of range 0..{n}")
    m = _resolve_order(moments, m)
    rows, rhs, start = _moment_rows(moments, m, include_p0=True)
    objective = _indicator(start, n, r, r)
    return _solve_pair(objective, rows, rhs, f"moment-p0(m={m})")


def _q_rows(moments: MomentVector, m: int, q: float):
    """Moment rows over p_1..p_N with the union total as an extra equality."""
    n = moments.n_events
    rows = [tuple(1.0 for _ in range(1, n + 1))]
    rhs = [q]
    for k in range(1, m + 1):
        rows.append(tuple(float(comb(i, k)) for i in range(1, n + 1)))
        rhs.append(moments.s_k(k))
    return rows, rhs


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
    rows, rhs = _q_rows(moments, m, q)
    objective = _indicator(1, n, r, n)
    return _solve_pair(objective, rows, rhs, f"q-moment(m={m})")


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
    rows, rhs = _q_rows(moments, m, q)
    objective = _indicator(1, n, r, r)
    return _solve_pair(objective, rows, rhs, f"q-moment(m={m})")


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


def boolean_lp_bounds(
    system: BooleanSystem, target: str, r: int | None = None
) -> BoundPair:
    """Bounds from the atom LP over occurrence patterns.

    One variable x_J per subset J of events (the probability that exactly
    the events in J occur), one equality per supplied p_I plus total mass
    one.  Targets: 'union' (J nonempty), 'atleast' (|J| >= r), 'exactly'
    (|J| = r).
    """
    n = system.n_events
    if n > _ATOM_CAP:
        raise InputError(f"event count {n} above the 2^N atom cap ({_ATOM_CAP})")
    n_atoms = 1 << n

    if target == "union":
        if r is not None:
            raise InputError("r is meaningless for the union target")
        selected = [mask != 0 for mask in range(n_atoms)]
    elif target == "atleast":
        if r is None or not 1 <= r <= n:
            raise InputError(f"atleast target needs r in 1..{n}")
        selected = [mask.bit_count() >= r for mask in range(n_atoms)]
    elif target == "exactly":
        if r is None or not 0 <= r <= n:
            raise InputError(f"exactly target needs r in 0..{n}")
        selected = [mask.bit_count() == r for mask in range(n_atoms)]
    else:
        raise InputError(f"unknown target {target!r}")

    rows = [tuple(1.0 for _ in range(n_atoms))]
    rhs = [1.0]
    for k in range(1, system.m + 1):
        for combo in combinations(range(n), k):
            i_mask = 0
            for i in combo:
                i_mask |= 1 << i
            rows.append(
                tuple(1.0 if mask & i_mask == i_mask else 0.0 for mask in range(n_atoms))
            )
            rhs.append(system.p[frozenset(combo)])
    objective = tuple(1.0 if sel else 0.0 for sel in selected)
    return _solve_pair(objective, rows, rhs, f"boolean(m={system.m})")
