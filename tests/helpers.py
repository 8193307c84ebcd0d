"""Shared fixtures and independent test-side oracles."""

from itertools import combinations, product
from math import comb, floor, fsum, inf

import numpy as np

from boxbounds import bounding
from boxbounds.bounding import PIVOT_TOL, LpResult
from boxbounds.cli import GeometryProblem, _parse_measure, _parse_mode
from boxbounds.errors import InputError
from boxbounds.geometry import Box, meet_vertices, vertex_pair_nonempty
from boxbounds.measure import ProductMeasure
from boxbounds.screening import MomentVector


def example1():
    """Five rectangles under the uniform measure on [0, 10]^2."""
    boxes = [
        Box("A1", (5, 6), (9, 9)),
        Box("A2", (2, 4), (6, 7)),
        Box("A3", (1, 3), (4, 8)),
        Box("A4", (3, 2), (7, 10)),
        Box("A5", (0, 1), (10, 5)),
    ]
    return boxes, ProductMeasure.uniform((0, 0), (10, 10))


def example2():
    """Seven boxes under the uniform measure on [0, 5]^3."""
    boxes = [
        Box("A1", (0, 0, 0), (2, 2, 2)),
        Box("A2", (3, 1, 3), (5, 3, 5)),
        Box("A3", (1, 3, 3), (3, 5, 5)),
        Box("A4", (4, 4, 4), (5, 5, 5)),
        Box("A5", (2, 2, 2), (3, 3, 4)),
        Box("A6", (1, 4, 1), (2, 5, 2)),
        Box("A7", (4, 1, 4), (5, 2, 5)),
    ]
    return boxes, ProductMeasure.uniform((0, 0, 0), (5, 5, 5))


# Interpolating from the left segment one ULP below the interior knot
# 3.175... gives 0.31700000000000006, above the knot's own value 0.317.
ULP_KNOTS = (0.0, 1.092783505154639, 3.1752577319587627, 7.65979381443299, 11.0)
ULP_VALUES = (0.0, 0.03, 0.317, 0.53, 1.0)


def random_instance(rng, max_events=10, max_dim=3, min_events=1):
    """Random boxes under a uniform measure on [0, 6]^dim.

    Half the instances use integer corners on the 0..6 grid, which
    produces shared boundaries, touching faces and degenerate boxes; the
    other half use continuous corners.
    """
    dim = int(rng.integers(1, max_dim + 1))
    n_events = int(rng.integers(min_events, max_events + 1))
    on_grid = bool(rng.integers(0, 2))
    boxes = []
    for i in range(n_events):
        if on_grid:
            corners = rng.integers(0, 7, size=(2, dim)).astype(float)
        else:
            corners = rng.uniform(0.0, 6.0, size=(2, dim))
        lower = np.minimum(corners[0], corners[1])
        upper = np.maximum(corners[0], corners[1])
        boxes.append(Box(f"A{i + 1}", tuple(lower), tuple(upper)))
    return boxes, ProductMeasure.uniform((0.0,) * dim, (6.0,) * dim)


def brute_force_tuples(boxes, mode, order):
    """All index tuples of the given order passing the vertex test,
    enumerated directly over combinations with no graph involved."""
    survivors = []
    for indices in combinations(range(len(boxes)), order):
        lower, upper = meet_vertices([boxes[i] for i in indices])
        if vertex_pair_nonempty(lower, upper, mode):
            survivors.append(indices)
    return survivors


def cell_loop_count_distribution(boxes, measure):
    """Occurrence-count distribution p_0..p_N by a per-cell Python loop.

    The reference the cell oracle's array sweep is held to bit for bit:
    per axis, the intervals between sorted unique box bounds that carry
    mass, each with a bitmask of the boxes spanning it; per grid cell, the
    product of its interval masses in axis order and the AND of their
    masks, whose popcount picks the bucket; per count, the fsum of its
    bucket.
    """
    n_boxes = len(boxes)
    if n_boxes == 0:
        return (1.0,)
    axes = []
    for k in range(boxes[0].dimension):
        cuts = sorted({box.lower[k] for box in boxes} | {box.upper[k] for box in boxes})
        points = [-inf, *cuts, inf]
        cells = []
        for lo, hi in zip(points, points[1:]):
            prob = measure.interval_probability(k, lo, hi)
            if prob == 0.0:
                continue
            mask = 0
            for i, box in enumerate(boxes):
                if box.lower[k] <= lo and hi <= box.upper[k]:
                    mask |= 1 << i
            cells.append((prob, mask))
        axes.append(cells)

    buckets = [[] for _ in range(n_boxes + 1)]
    all_covered = (1 << n_boxes) - 1
    for cell in product(*axes):
        mask = all_covered
        prob = 1.0
        for axis_prob, axis_mask in cell:
            prob *= axis_prob
            mask &= axis_mask
        buckets[mask.bit_count()].append(prob)
    return tuple(fsum(bucket) for bucket in buckets)


def random_count_distribution(rng, n_events):
    """A random occurrence-count distribution p_0..p_N, possibly sparse."""
    weights = rng.random(n_events + 1)
    weights[rng.random(n_events + 1) < 0.3] = 0.0
    if weights.sum() == 0.0:
        weights[int(rng.integers(0, n_events + 1))] = 1.0
    return tuple(float(w) for w in weights / weights.sum())


def moments_from_distribution(p, m):
    """MomentVector computed straight from a count distribution."""
    n_events = len(p) - 1
    s = tuple(fsum(comb(i, k) * p[i] for i in range(n_events + 1)) for k in range(1, m + 1))
    return MomentVector(n_events, s, q=fsum(p[1:]))


def dawson_sankoff_lower(s1, s2):
    """Closed-form m = 2 lower bound on the union probability."""
    if s1 <= 0.0:
        return 0.0
    k = 1 + floor(2.0 * s2 / s1)
    return 2.0 * s1 / (k + 1) - 2.0 * s2 / (k * (k + 1))


def two_moment_upper(s1, s2, n_events):
    """Closed-form m = 2 upper bound on the union probability."""
    return s1 - 2.0 * s2 / n_events


def lp_optimum_by_vertex_enumeration(objective, rows, rhs, sense):
    """LP optimum by checking every basic solution of the equality system.

    Only valid for bounded feasible problems; every vertex has at most
    rank-many nonzero coordinates, so enumerating column subsets finds
    the optimum.
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    c = np.asarray(objective, dtype=float)
    n_rows, n_cols = a.shape
    best = None
    for size in range(0, min(n_rows, n_cols) + 1):
        for cols in combinations(range(n_cols), size):
            if size == 0:
                x_sub = np.zeros(0)
                residual = np.linalg.norm(b)
            else:
                sub = a[:, cols]
                x_sub, *_ = np.linalg.lstsq(sub, b, rcond=None)
                residual = np.linalg.norm(sub @ x_sub - b)
            if residual > 1e-8 or (size and x_sub.min() < -1e-9):
                continue
            value = float(c[list(cols)] @ x_sub) if size else 0.0
            if best is None:
                best = value
            elif sense == "min":
                best = min(best, value)
            else:
                best = max(best, value)
    return best


def two_call_simplex_min(c, a, b, crash=None):
    """min c . x over a x = b, x >= 0 by a full two-phase simplex of its own.

    The solver as it was when each solve ran its own phase 1; the shared
    phase 1 is held to it bit for bit.  It drives the package's pivoting,
    rebuild and optimality loop.  A crash basis runs the package's phase 1
    from it instead, again in every call, and its phase 2 prices by
    steepest edge as the package's does after a crash start.
    """
    if crash is not None:
        start, _ = bounding._phase1(a, b, crash)
        if start is None:
            return LpResult(status="infeasible")
        return _phase2_of(c, list(start.basis), start.a, start.b, steepest=True)
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, : n + m] = a1
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    bounding._pivot_until_optimal(tableau, basis, a1, b, c1)
    if -tableau[m, -1] > PIVOT_TOL:
        return LpResult(status="infeasible")

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
            bounding._pivot(tableau, basis, i, col)
            in_basis.add(col)
    keep = [i for i in range(m) if i not in drop]
    return _phase2_of(c, [basis[i] for i in keep], a[keep], b[keep])


def _phase2_of(c, basis, a2, b2, steepest=False):
    rows, n = a2.shape
    phase2 = np.zeros((rows + 1, n + 1))
    bounding._rebuild(phase2, basis, a2, b2, c)
    status, _ = bounding._pivot_until_optimal(phase2, basis, a2, b2, c, steepest)
    if status == "unbounded":
        return LpResult(status="unbounded")

    bounding._rebuild(phase2, basis, a2, b2, c)
    x = np.zeros(n)
    for i, bj in enumerate(basis):
        x[bj] = phase2[i, -1]
    np.clip(x, 0.0, None, out=x)
    return LpResult(
        status="optimal",
        value=float(c @ x) + 0.0,
        solution=tuple(float(v) for v in x),
    )


def two_call_solve_lp(problem, crash=None):
    """solve_lp with a phase 1 in every call, the min and the max alike."""
    c, a, b = problem.objective, problem.a_eq, problem.b_eq
    if problem.sense == "min":
        return two_call_simplex_min(c, a, b, crash)
    result = two_call_simplex_min(-c, a, b, crash)
    if result.status != "optimal":
        return result
    return LpResult(status="optimal", value=0.0 - result.value, solution=result.solution)


def all_atom_lp_bounds(system, target, r=None):
    """Boolean atom LP bounds with one column for each of the 2^N atoms.

    The assembly as it was before zero rows and the atoms they cover were
    dropped: the total-mass row, then one row per supplied subset by size
    and lexicographically, over atoms in ascending bitmask order.  Phase 1
    starts from each row's own atom, as in boolean_lp_bounds.
    """
    n = system.n_events
    lo, hi = {"union": (1, n), "atleast": (r, n), "exactly": (r, r)}[target]
    subsets = [c for k in range(1, system.m + 1) for c in combinations(range(n), k)]
    masks = np.array([sum(1 << i for i in subset) for subset in subsets])[:, None]
    incidence = (np.arange(1 << n) & masks) == masks
    a_eq = np.vstack([np.ones(1 << n), incidence])
    b_eq = np.array([1.0, *(system.p[frozenset(subset)] for subset in subsets)])
    sizes = incidence[:n].sum(axis=0)
    own = np.concatenate([[0], masks[:, 0]])
    label = f"boolean(m={system.m})"
    return bounding._solve_pair(sizes, lo, hi, a_eq, b_eq, label, crash=own)


def _reference_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} is outside the float range") from exc


def _reference_vector(value, length, what):
    if not isinstance(value, list) or len(value) != length:
        raise InputError(f"{what} must be a list of {length} numbers")
    return tuple(_reference_number(v, what) for v in value)


def reference_parse_geometry(doc):
    """parse_geometry as a per-box loop: each box's checks run in file order.

    The test oracle for the bulk parser's results and messages.  Per box
    it checks the object, its id, the id's repeat, each vertex's list and
    length and then each coordinate, lower before upper, and last the
    order lower <= upper, which NaN fails; the first failing check raises.
    """
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")
    dimension = doc.get("dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise InputError("'dimension' must be a positive integer")
    measure = _parse_measure(doc.get("measure"), dimension)
    raw_boxes = doc.get("boxes")
    if not isinstance(raw_boxes, list):
        raise InputError("'boxes' must be a list")
    boxes = []
    seen_ids = set()
    for i, raw in enumerate(raw_boxes):
        if not isinstance(raw, dict):
            raise InputError(f"box {i}: expected an object")
        box_id = raw.get("id")
        if not isinstance(box_id, str) or not box_id:
            raise InputError(f"box {i}: 'id' must be a nonempty string")
        if box_id in seen_ids:
            raise InputError(f"duplicate box id {box_id!r}")
        seen_ids.add(box_id)
        lower = _reference_vector(raw.get("lower"), dimension, f"box {box_id!r} lower")
        upper = _reference_vector(raw.get("upper"), dimension, f"box {box_id!r} upper")
        for k, (lo, hi) in enumerate(zip(lower, upper)):
            if not lo <= hi:
                raise InputError(
                    f"box {box_id!r}: lower {lo!r} exceeds upper {hi!r} in coordinate {k}"
                )
        boxes.append(Box(box_id, lower, upper))
    mode = _parse_mode(doc["mode"]) if "mode" in doc else None
    return GeometryProblem(boxes, measure, mode)


def reference_piecewise_ppf(cdf, u):
    """PiecewiseCdf.ppf by a clipped left searchsorted over the CDF values.

    The test oracle for the table-driven kernel: u's index is the first
    value not below it, NaN past the end, clipped to [0, L - 1]; a rising
    segment interpolates k_left + ((u - v_left) / dv) * dk, a flat one
    gives k_left + 1.0 * dk, and index 0 gives knots[0].
    """
    u_arr = np.asarray(u, dtype=float)
    values = np.asarray(cdf.values)
    knots = np.asarray(cdf.knots)
    idx = np.clip(np.searchsorted(values, u_arr, side="left"), 0, len(values) - 1)
    left = np.maximum(idx - 1, 0)
    dv = values[idx] - values[left]
    safe = np.where(dv > 0.0, dv, 1.0)
    t = np.where(dv > 0.0, (u_arr - values[left]) / safe, 1.0)
    x = knots[left] + t * (knots[idx] - knots[left])
    x = np.where(idx == 0, knots[0], x)
    return x if isinstance(u, np.ndarray) else float(x)


def reference_order_sum(ledger, order):
    """TupleLedger.order_sum by one fsum over the order's probabilities.

    The test oracle for the ledger's exact pass.
    """
    return fsum(ledger._probability_column(order).tolist())


def reference_signed_total(ledger):
    """TupleLedger.signed_total by one fsum over every signed term, in
    (order, lexicographic) order."""
    signed = []
    for k in sorted(ledger.levels):
        probability = ledger._probability_column(k)
        signed.extend((probability if k % 2 == 1 else -probability).tolist())
    return fsum(signed)
