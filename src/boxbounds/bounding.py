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

The solver is a two-phase dense tableau simplex: most-negative entering,
or steepest edge in a solve that starts from a crash basis, with Bland's
anti-cycling rule as the fallback under degeneracy, plus periodic tableau
rebuilds from the original data so rounding error cannot accumulate over
long degenerate crawls.  Phase 1 never reads the objective, so a bound
pair runs it once and starts both phase 2 solves from its basis and the
one tableau body B^-1 [A | b] computed for it.  Every problem here has at
most a few hundred rows, so a dense tableau is plenty.
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
# any.  It admits N = 8 at every m, (10, 2) and (12, 1).  Overlapping 2-d
# boxes have no zero p_I, so every atom stays; there, worst of nine calls
# of system and bound pair, N = 8 takes 0.10 s at m = 4, 88 ms at m = 5,
# 65 and 59 ms at m = 6 and 7, 33 ms at m = 3, 18 ms at m = 8, where the
# inclusion-exclusion start is optimal, and less below; (10, 2) takes
# 62 ms and (12, 1) 8 ms.  Random 2-d boxes keep few atoms and take at
# most 10 ms.  Just past the budget, (9, 3) on overlapping boxes takes up
# to 0.57 s and 2,055 pivots a pair, five times the admitted worst, and
# the matrix doubles with each event.
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
    # Simplex pivots of the solve, phase 1's included where it ran one.
    pivots: int = field(default=0, compare=False)
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
        check_order(self.m, self.n_events)
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
    """Pivot on (row, col) by one in-place rank-1 update.

    The pivot column comes out as the unit column exactly: the pivot row
    holds x / x = 1 there, and every other row x - x * 1 = 0.
    """
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * pivot_row
    basis[row] = col


def _body(a: np.ndarray, b: np.ndarray, basis: Sequence[int]) -> np.ndarray:
    """B^-1 [a | b] for the basis B = a[:, basis], from original data.

    A right-hand side in (-1e-7, 0) is rounding noise and reads 0.
    """
    base = a[:, basis]
    stacked = np.column_stack([a, b])
    try:
        body = np.linalg.solve(base, stacked)
    except np.linalg.LinAlgError:
        body, *_ = np.linalg.lstsq(base, stacked, rcond=None)
    rhs = body[:, -1]
    body[:, -1] = np.where((rhs < 0.0) & (rhs > -1e-7), 0.0, rhs)
    return body


def _rebuild(
    tableau: np.ndarray,
    basis: list[int],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    body: np.ndarray | None = None,
) -> None:
    """Recompute the whole tableau for the current basis from original data.

    A plain tableau accumulates rounding error with every pivot; long
    degenerate crawls can amplify it until noise entries get picked as
    pivots.  Rebuilding resets the error to one linear solve's worth.
    body, when given, is _body's value for this basis.
    """
    if body is None:
        body = _body(a, b, basis)
    tableau[:-1] = body
    tableau[-1, :-1] = c
    tableau[-1, -1] = 0.0
    tableau[-1] -= c[basis] @ body


def _pivot_until_optimal(
    tableau: np.ndarray,
    basis: list[int],
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    steepest: bool = False,
) -> tuple[str, int]:
    """Pivot a feasible tableau to optimality; the status and the pivot count.

    The entering column has the most negative reduced cost, or with
    steepest the most negative reduced cost per unit length of its edge,
    reduced_j / sqrt(1 + ||T[:, j]||^2) over the column T[:, j] of the
    tableau's body.  Ratio ties are broken toward the numerically largest
    pivot.  After a stretch of degenerate pivots Bland's rule (smallest
    eligible column, smallest basic index on ties) takes over until the
    objective moves again, which keeps the method free of cycles.  The
    tableau is rebuilt from original data at a fixed cadence so rounding
    error cannot accumulate.
    """
    rows = tableau.shape[0] - 1
    body, rhs, reduced = tableau[:rows], tableau[:rows, -1], tableau[rows, :-1]
    stalled = 0
    for pivots in range(_MAX_PIVOTS):
        if pivots and pivots % _REFRESH_INTERVAL == 0:
            _rebuild(tableau, basis, a, b, c)
        bland = stalled >= _STALL_LIMIT
        if bland or steepest:
            eligible = (reduced < -PIVOT_TOL).nonzero()[0]
            if not eligible.size:
                return "optimal", pivots
            if bland:
                col = int(eligible[0])
            else:
                edges = body[:, eligible]
                lengths = np.sqrt(1.0 + np.einsum("ij,ij->j", edges, edges))
                col = int(eligible[(reduced[eligible] / lengths).argmin()])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return "optimal", pivots
        column = body[:, col]
        ties = (column > PIVOT_TOL).nonzero()[0]
        if not ties.size:
            return "unbounded", pivots
        if ties.size > 1:
            ratios = rhs[ties] / column[ties]
            ties = ties[ratios == ratios.min()]
        if ties.size == 1:
            row = int(ties[0])
        elif bland:
            row = min(ties.tolist(), key=basis.__getitem__)
        else:
            row = int(ties[column[ties].argmax()])
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

    a and b are those rows as given, and body is B^-1 [a | b] for the
    basis (read-only), the body of the first tableau of every phase 2
    from this start.  Phase 1 never reads the objective, so one start
    serves the min and the max of any objective over the same rows.
    steepest says which pricing phase 2 keeps: phase 1's.
    """

    basis: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    body: np.ndarray
    steepest: bool


def _phase1(
    a: np.ndarray, b: np.ndarray, crash: np.ndarray | None = None
) -> tuple[_Start | None, int]:
    """A feasible basis of a x = b, x >= 0, or None when there is none,
    and the pivots phase 1 made.

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

    A solve from a crash basis prices by steepest edge in both phases,
    one from artificials by the most negative reduced cost.  The Boolean
    atom LP, the one caller with a crash basis, takes 24 pivots a bound
    pair by steepest edge where it took 38 on the benchmark's shapes,
    and at (N, m) = (8, 4) on overlapping boxes 373-534 where it took
    2,078-6,074.  The moment LPs, whose columns of binomial coefficients
    span many orders of magnitude, went the other way: 52 pivots a pair
    instead of 25, with bounds moved by up to 8e-9.
    """
    m, n = a.shape
    rows, rhs = a.copy(), b.copy()
    on_crash = np.zeros(m, dtype=bool)
    steepest = crash is not None
    if steepest:
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
    _, pivots = _pivot_until_optimal(tableau, basis, a1, rhs, c1, steepest)
    if -tableau[m, -1] > PIVOT_TOL:
        return None, pivots

    # Pivot leftover artificials out; an all-zero row is redundant and dropped.
    free = np.ones(n, dtype=bool)
    free[[j for j in basis if j < n]] = False
    for i in range(m):
        if basis[i] >= n:
            cols = np.flatnonzero(free & (np.abs(tableau[i, :n]) > PIVOT_TOL))
            if cols.size:
                _pivot(tableau, basis, i, int(cols[0]))
                free[basis[i]] = False
                pivots += 1
    keep = [i for i in range(m) if basis[i] < n]
    kept = tuple(basis[i] for i in keep)
    a2, b2 = a[keep], b[keep]
    body = _body(a2, b2, kept)
    body.flags.writeable = False
    return _Start(kept, a2, b2, body, steepest), pivots


def _phase2(c: np.ndarray, start: _Start, pivots: int = 0) -> LpResult:
    """min c . x from a phase-1 start, over the original columns only.

    pivots is the count phase 1 made for this solve, if it ran one.
    """
    basis = list(start.basis)
    a2, b2 = start.a, start.b
    rows, n = a2.shape
    phase2 = np.empty((rows + 1, n + 1))
    _rebuild(phase2, basis, a2, b2, c, start.body)
    status, moved = _pivot_until_optimal(phase2, basis, a2, b2, c, start.steepest)
    pivots += moved
    if status == "unbounded":
        return LpResult(status="unbounded", pivots=pivots)

    # The solution is read from original data: the start's body, or a
    # fresh one if the basis moved.
    body = _body(a2, b2, basis) if moved else start.body
    x = np.zeros(n)
    x[basis] = body[:, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(
        status="optimal",
        value=float(c @ x) + 0.0,  # + 0.0 turns a -0.0 optimum into 0.0
        solution=tuple(x.tolist()),
        pivots=pivots,
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
    pivots = 0
    if start is None:
        start, pivots = _phase1(a, b, crash)
        if start is None:
            return LpResult(status="infeasible", pivots=pivots)
    if problem.sense == "min":
        return _phase2(c, start, pivots)
    result = _phase2(-c, start, pivots)
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


def check_order(m: int, available: int) -> None:
    """Raise the InputError of an order m outside 1..available events or moments."""
    if not 1 <= m <= available:
        raise InputError(f"m={m} out of range 1..{available}")


def _resolve_q(moments: MomentVector, q: float | None) -> float:
    if q is None:
        q = moments.q
    if q is None:
        raise InputError("union probability required: pass q or carry it on the moments")
    if not -1e-12 <= q <= 1.0 + 1e-12:
        raise InputError(f"union probability {q} is not in [0, 1]")
    return float(q)


def _count_target(target: str, n: int, r: int | None, with_q: bool = False) -> tuple[int, int]:
    """The counts lo..hi of occurring events, out of n, that make target true.

    Raises the InputError of no events, an unknown target, or an r missing,
    given or out of range; with_q is the layout over p_1..p_N, which has no
    count zero.  Allocates nothing.
    """
    if n < 1:
        raise InputError("need at least one event")
    if target == "union":
        if r is not None:
            raise InputError("r is meaningless for the union target")
        return 1, n
    if target not in ("atleast", "exactly"):
        raise InputError(f"unknown target {target!r}")
    if r is None:
        raise InputError(f"r is required for the {target} target")
    first = 0 if target == "exactly" and not with_q else 1
    if not first <= r <= n:
        no_p0 = " (no p_0 in this layout)" if target == "exactly" and with_q else ""
        raise InputError(f"r={r} out of range {first}..{n}{no_p0}")
    return r, n if target == "atleast" else r


def check_moment_request(
    target: str, n: int, r: int | None, m: int | None = None, with_q: bool = False
) -> None:
    """Raise the InputError of a request for target over n events, for n
    and r and then for m when given, before any walk.  Every bound method
    raises the same for r and m: the moment bounds, boolean_lp_bounds
    (without with_q), boolean_system_from_boxes and BooleanSystem."""
    _count_target(target, n, r, with_q)
    if m is not None:
        check_order(m, n)


def _moment_bounds(
    moments: MomentVector,
    target: str,
    r: int | None,
    m: int | None,
    layout: str = "moment-p0",
    q: float | None = None,
) -> BoundPair:
    """Bounds on P(target) from the moment rows of S_1..S_m; checks r, q, m.

    Layout 'moment-p0' spans p_0..p_N with the S_0 = 1 row; 'moment' spans
    p_1..p_N; 'q-moment' adds the union row sum p_i = q to 'moment' and
    defaults m to min(3, available).  The S_0 = 1 row or the union row caps
    the total mass; the reduced rows over p_1..p_N alone do not.
    """
    with_q = layout == "q-moment"
    lo, hi = _count_target(target, moments.n_events, r, with_q)
    if with_q:
        q = _resolve_q(moments, q)
    if m is None:
        m = min(3, moments.m) if with_q else moments.m
    check_order(m, moments.m)
    first = 0 if layout == "moment-p0" else 1
    a_eq, b_eq = _moment_rows(moments, m, first, q)
    counts = np.arange(first, moments.n_events + 1)
    method = f"{layout}(m={m})"
    return _solve_pair(counts, lo, hi, a_eq, b_eq, method, capped=first == 0 or with_q)


def union_bounds(
    moments: MomentVector, m: int | None = None, include_p0: bool = False
) -> BoundPair:
    """Sharp bounds on P(at least one event occurs) from S_1..S_m.

    include_p0 switches between the full formulation (variables p_0..p_N
    with the S_0 = 1 row) and the reduced one without p_0.
    """
    return _moment_bounds(moments, "union", None, m, "moment-p0" if include_p0 else "moment")


def atleast_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(at least r events occur) from S_1..S_m."""
    return _moment_bounds(moments, "atleast", r, m)


def exactly_r_bounds(moments: MomentVector, r: int, m: int | None = None) -> BoundPair:
    """Sharp bounds on P(exactly r events occur) from S_1..S_m."""
    return _moment_bounds(moments, "exactly", r, m)


def q_atleast_bounds(
    moments: MomentVector, r: int, m: int | None = None, q: float | None = None
) -> BoundPair:
    """Bounds on P(at least r occur) given the exact union probability too.

    Adds the equality sum p_i = Q to the moment rows over p_1..p_N, which
    never loosens the plain bounds.  m defaults to min(3, available).
    """
    return _moment_bounds(moments, "atleast", r, m, "q-moment", q)


def q_exactly_bounds(
    moments: MomentVector, r: int, m: int | None = None, q: float | None = None
) -> BoundPair:
    """Bounds on P(exactly r occur) given the exact union probability too.

    The layout has no p_0 variable, so r = 0 is rejected; use
    exactly_r_bounds for the count-zero target.
    """
    return _moment_bounds(moments, "exactly", r, m, "q-moment", q)


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
    check_order(m, n)
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
    lo, hi = _count_target(target, n, r)
    check_atom_cap(n, system.m)

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
    method = f"boolean(m={system.m})"
    return _solve_pair(sizes[atoms], lo, hi, a_eq, b_eq, method, crash=crash)
