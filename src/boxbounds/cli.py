"""Command-line interface: JSON problem files in, tables or versioned JSON out.

Exit codes: 0 success, 1 input or validation error, 2 internal numerical
failure (for example an infeasible LP on user-supplied moments).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import inf

import numpy as np

from .bounding import (
    BoundPair,
    atleast_r_bounds,
    boolean_lp_bounds,
    boolean_system_from_boxes,
    check_atom_cap,
    check_moment_request,
    check_order,
    exactly_r_bounds,
    hunter_worsley_upper,
    q_atleast_bounds,
    q_exactly_bounds,
    union_bounds,
)
from .errors import InfeasibleBoundsError, InputError
from .geometry import Box, EmptinessMode, boxes_from_vertices
from .measure import PiecewiseCdf, ProductMeasure, UniformInterval
from .oracle import (
    exact_count_distribution,
    full_inclusion_exclusion_union,
    monte_carlo_union,
)
from .screening import (
    MomentVector,
    binomial_moments,
    build_graph,
    enumerate_tuples,
    screened_union,
    to_dot,
)

JSON_VERSION = 1
FORMAT_ENV_VAR = "BOXBOUNDS_FORMAT"


@dataclass
class GeometryProblem:
    boxes: list[Box]
    measure: ProductMeasure
    mode: EmptinessMode | None


# ---------------------------------------------------------------------------
# Input parsing


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise InputError(f"{what} is outside the float range") from exc


def _not_a_vector(length: int, what: str) -> InputError:
    return InputError(f"{what} must be a list of {length} numbers")


def _vector(value, length: int, what: str) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise _not_a_vector(length, what)
    return tuple(_number(v, what) for v in value)


def _parse_marginal(obj, index: int):
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError(f"marginal {index}: expected an object with a 'type' key")
    kind = obj["type"]
    if kind == "uniform":
        return UniformInterval(
            _number(obj.get("a"), f"marginal {index} 'a'"),
            _number(obj.get("b"), f"marginal {index} 'b'"),
        )
    if kind == "piecewise":
        knots = obj.get("knots")
        values = obj.get("values")
        if not isinstance(knots, list) or not isinstance(values, list):
            raise InputError(f"marginal {index}: 'knots' and 'values' must be lists")
        return PiecewiseCdf(
            tuple(_number(v, "knot") for v in knots),
            tuple(_number(v, "value") for v in values),
        )
    raise InputError(f"marginal {index}: unknown type {kind!r}")


def _parse_measure(obj, dimension: int) -> ProductMeasure:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("measure must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "uniform":
        lower = _vector(obj.get("lower"), dimension, "measure lower")
        upper = _vector(obj.get("upper"), dimension, "measure upper")
        return ProductMeasure.uniform(lower, upper)
    if kind == "marginals":
        marginals = obj.get("marginals")
        if not isinstance(marginals, list) or len(marginals) != dimension:
            raise InputError(f"measure needs exactly {dimension} marginals")
        return ProductMeasure(
            tuple(_parse_marginal(m, i) for i, m in enumerate(marginals))
        )
    raise InputError(f"unknown measure type {kind!r}")


def _parse_mode(value) -> EmptinessMode:
    for mode in EmptinessMode:
        if value == mode.value:
            return mode
    choices = ", ".join(mode.value for mode in EmptinessMode)
    raise InputError(f"unknown mode {value!r} (choices: {choices})")


def _box_structure(raw_boxes: list, dimension: int):
    """Ids and vertex lists of the boxes, up to the first structural fault.

    Checks each box's object, id, id repeat, and its lower and upper
    vertex as lists of ``dimension`` values, but not the values.  Returns
    the ids, the vertex lists (lower and upper of each box in turn) and
    the first fault's error, or None; the pass stops at that fault.
    """
    ids, sides, seen = [], [], set()
    for i, raw in enumerate(raw_boxes):
        if not isinstance(raw, dict):
            return ids, sides, InputError(f"box {i}: expected an object")
        box_id = raw.get("id")
        if not isinstance(box_id, str) or not box_id:
            return ids, sides, InputError(f"box {i}: 'id' must be a nonempty string")
        if box_id in seen:
            return ids, sides, InputError(f"duplicate box id {box_id!r}")
        seen.add(box_id)
        ids.append(box_id)
        lower = raw.get("lower")
        if not isinstance(lower, list) or len(lower) != dimension:
            return ids, sides, _not_a_vector(dimension, f"box {box_id!r} lower")
        sides.append(lower)
        upper = raw.get("upper")
        if not isinstance(upper, list) or len(upper) != dimension:
            return ids, sides, _not_a_vector(dimension, f"box {box_id!r} upper")
        sides.append(upper)
    return ids, sides, None


def _coordinates(ids: list, sides: list, dimension: int):
    """The vertex lists as one ``(sides, dimension)`` float array.

    When every value is a plain int or float, one conversion makes the
    array.  Otherwise, or past the float range, each value goes through
    _number; the array then stops before the first list with a bad value,
    whose error comes back with it (None when there is none).
    """
    if set(map(type, chain.from_iterable(sides))) <= {int, float}:
        try:
            values = np.fromiter(chain.from_iterable(sides), float, len(sides) * dimension)
        except OverflowError:  # an integer past the float range
            pass
        else:
            return values.reshape(-1, dimension), None
    checked, fault = [], None
    for s, side in enumerate(sides):
        what = f"box {ids[s // 2]!r} {'upper' if s % 2 else 'lower'}"
        try:
            checked.append([_number(v, what) for v in side])
        except InputError as exc:
            fault = exc
            break
    return np.array(checked, dtype=float).reshape(-1, dimension), fault


def parse_geometry(doc) -> GeometryProblem:
    if not isinstance(doc, dict):
        raise InputError("problem file must be a JSON object")
    dimension = doc.get("dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise InputError("'dimension' must be a positive integer")
    measure = _parse_measure(doc.get("measure"), dimension)
    raw_boxes = doc.get("boxes")
    if not isinstance(raw_boxes, list):
        raise InputError("'boxes' must be a list")
    # The first failing check in file order is reported.  A box is checked
    # as an object, for its id and the id's repeat, for each vertex's list
    # and then its values, lower before upper, and last for its order.
    # Values are read only up to the first structural fault, and order only
    # on the boxes before the first bad value; so an order fault comes
    # before any bad value, and a bad value before the structural fault.
    ids, sides, structure_fault = _box_structure(raw_boxes, dimension)
    coordinates, value_fault = _coordinates(ids, sides, dimension)
    complete = len(coordinates) // 2
    boxes = boxes_from_vertices(
        ids[:complete], coordinates[: 2 * complete].reshape(complete, 2, dimension)
    )
    fault = value_fault or structure_fault
    if fault is not None:
        raise fault
    mode = _parse_mode(doc["mode"]) if "mode" in doc else None
    return GeometryProblem(boxes, measure, mode)


def parse_moments(doc) -> MomentVector:
    if not isinstance(doc, dict):
        raise InputError("moments file must be a JSON object")
    n_events = doc.get("n_events")
    if isinstance(n_events, bool) or not isinstance(n_events, int) or n_events < 0:
        raise InputError("'n_events' must be a nonnegative integer")
    s = doc.get("s")
    if not isinstance(s, list) or not s:
        raise InputError("'s' must be a nonempty list of moments S_1..S_m")
    q = None
    if doc.get("q") is not None:
        q = _number(doc["q"], "'q'")
    return MomentVector(n_events, tuple(_number(v, "'s' entry") for v in s), q)


def load_document(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an integer literal past
        # Python's digit limit, or arrays nested past the recursion limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, re-enabling it only if it was on.

    Parsing allocates a Box, its tuples and lists per box while the
    document's dicts and lists are still alive, so the collector would
    traverse all of them again and again (on 100,000 2-d boxes half the
    parse time); nothing made while loading and parsing forms a cycle that
    must be freed before the command returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_geometry(path: str) -> GeometryProblem:
    with _collector_paused():
        return parse_geometry(load_document(path))


def _resolve_mode(args, problem: GeometryProblem) -> EmptinessMode:
    if getattr(args, "mode", None):
        return _parse_mode(args.mode)
    if problem.mode is not None:
        return problem.mode
    return EmptinessMode.POSITIVE_MEASURE


# ---------------------------------------------------------------------------
# Rendering


def _table_texts(values: np.ndarray) -> np.ndarray:
    """Each float of an array in the table's "g" format, as an object array."""
    texts = list(map(format, values.ravel().tolist(), repeat("g")))
    return np.array(texts, dtype=object).reshape(values.shape)


def _json_texts(values: np.ndarray) -> np.ndarray:
    """Each float of an array as json.dumps writes it, as an object array.

    Box coordinates are never NaN, so only the infinities need json's names.
    """
    texts = list(map(float.__repr__, values.ravel().tolist()))
    texts = np.array(texts, dtype=object).reshape(values.shape)
    texts[values == inf] = "Infinity"
    texts[values == -inf] = "-Infinity"
    return texts


def _order_name(k: int) -> str:
    return {2: "pairs", 3: "triples"}.get(k, f"{k}-tuples")


def _digits(n: int) -> str:
    """The decimal digits of an int, at any size.

    str refuses an int of more than sys.get_int_max_str_digits() digits
    (4,300 by default; terms_full = 2**N - 1 passes it from N = 14,285 on).
    Decimal takes the int exactly and prints it without that limit.
    """
    return str(Decimal(n))


def _cell(value) -> str:
    """A table cell: a float in .12g, an int in full, any other value by str."""
    if isinstance(value, float):
        return format(value, ".12g")
    return _digits(value) if type(value) is int else str(value)


def _json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2), with each top-level int written by _digits.

    Each such int goes to json.dumps as null.  At indent=2 only a
    top-level key follows a newline, two spaces and a quote, as strings
    escape their newlines, so the key's line finds its null.
    """
    ints = {key: value for key, value in doc.items() if type(value) is int}
    text = json.dumps({**doc, **dict.fromkeys(ints)}, indent=2)
    for key, value in ints.items():
        line = f"\n  {json.dumps(key)}: "
        text = text.replace(line + "null", line + _digits(value))
    return text


def _kv_table(fields) -> str:
    """The labelled fields as aligned "label  value" lines."""
    rows = [(label, _cell(value)) for _, label, value in fields if label is not None]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {text}" for label, text in rows)


# Rows per streamed block of screen output: about 270 KB of JSON at d = 2,
# and about 250 KB of table, whose writer pays a larger fixed cost per
# block (two passes and its pad table), so it takes longer blocks.
_SCREEN_BLOCK_ROWS = 1024
_TABLE_BLOCK_ROWS = 4096

# Rows screen may list: the C(N, 2) pairs, when listed, plus the listed
# tuples of orders 3 and up.  Written to /dev/null, the 1,999,000 pair rows
# of 2,000 boxes in 2-d take at most 1.5 s as JSON (622 MB) and 1.7 s as a
# table on a 2-core Intel Xeon, over a million rows a second, so the budget
# stands for under 10 s of output, or 3 GB of JSON.
SCREEN_ROW_BUDGET = 10_000_000


def _check_screen_rows(rows: int) -> None:
    if rows > SCREEN_ROW_BUDGET:
        raise InputError(f"{rows} screen rows exceed the budget of {SCREEN_ROW_BUDGET}")


def _order_blocks(n, ledger, k, step):
    """(members, nonempty) per block of order k's listed rows, in output order.

    members holds k index arrays of length B, array c holding the c-th
    member of each of the block's B rows, B at most step.
    Every pair is listed, and its verdict is whether the ledger's order 2
    holds it: a pair that passes the test has both boxes among the walk's
    roots, since its meet lies inside each.  A pair block is worked out
    from its positions in lexicographic order, so no array of all pairs is
    built.  Every listed tuple of a higher order is nonempty.
    """
    if k > 2:
        indices = ledger.levels[k].indices
        for start in range(0, len(indices), step):
            members = indices[start : start + step].T
            yield members, np.ones(members.shape[1], dtype=bool)
        return
    sizes = np.arange(n - 1, 0, -1)
    offsets = np.cumsum(sizes) - sizes  # the position of pair (i, i + 1)
    edges = ledger.levels[2].indices if 2 in ledger.levels else np.empty((0, 2), np.intp)
    edges = offsets[edges[:, 0]] + edges[:, 1] - edges[:, 0] - 1  # ascending
    total = n * (n - 1) // 2
    for start in range(0, total, step):
        stop = min(start + step, total)
        position = np.arange(start, stop)
        first = np.searchsorted(offsets, position, side="right") - 1
        nonempty = np.zeros(stop - start, dtype=bool)
        nonempty[edges[slice(*np.searchsorted(edges, (start, stop)))] - start] = True
        yield (first, position - offsets[first] + first + 1), nonempty


def _row_pieces(members, ranks, layout) -> list:
    """One block's rows as fragment pool indices, one array per row piece.

    The pool holds the coordinate fragments in the order of the ranks'
    table, then runs of N per-box fragments, one per kind of member
    fragment.  layout gives, per group of member pieces, the kinds of the
    first, the middle and the last member's fragments.  The coordinate
    pieces are the places of the row's meet in the table, lower vertex
    first.
    """
    slots = ranks.slots
    pieces = []
    for first, middle, last in layout:
        kinds = (first, *[middle] * (len(members) - 2), last)
        pieces += [slots.size + kind * len(slots) + member for kind, member in zip(kinds, members)]
    return pieces + list(ranks.places(members).reshape(len(members[0]), -1).T)


def _fragment_pool(ranks, texts, item, closes, kinds):
    """The fragment pool as a list: the coordinates of the ranks' table,
    then kinds, the runs of per-box member fragments.

    Each coordinate's text carries item after it, or, on the last axis,
    its vertex's entry of closes.
    """
    table = ranks.table
    suffixes = np.full(table.shape[1:], item, dtype=object)
    suffixes[:, -1] = closes
    pool = (texts(table) + suffixes).ravel().tolist()
    for kind in kinds:
        pool += kind
    return pool


# The constant text around the fields of one row of the screen document,
# and the separators of rows and of list items, as json.dumps(doc, indent=2)
# writes them.
_JSON_ROW_SEP = ",\n      "
_JSON_ITEM = ",\n          "
_JSON_ROW = (
    '{\n        "label": "',
    '",\n        "ids": [\n          ',
    '\n        ],\n        "lower": [\n          ',
    '\n        ],\n        "upper": [\n          ',
    '\n        ],\n        "nonempty": ',
    "\n      }",
)


def _screen_json(mode, boxes, ledger, orders, terms_used, terms_full):
    """The versioned screen document in chunks, one per block of rows.

    Joined, the chunks equal json.dumps(doc, indent=2).  A row is one join
    of fragments that carry the constant text after them: the members'
    label and id fragments, the coordinate fragments the meet takes and
    the verdict.
    """
    yield (
        f'{{\n  "version": {JSON_VERSION},\n  "command": "screen",\n'
        f'  "mode": {encode_basestring_ascii(mode.value)},\n  "n_events": {len(boxes)},\n'
        '  "orders": '
    )
    if orders:
        head, after_label, after_ids, after_lower, after_upper, after_verdict = _JSON_ROW
        encoded = [encode_basestring_ascii(box.id) for box in boxes]
        labels = [text[1:-1] for text in encoded]
        kinds = (
            [_JSON_ROW_SEP + head + label for label in labels],
            labels,
            [label + after_label for label in labels],
            [text + _JSON_ITEM for text in encoded],
            [text + after_ids for text in encoded],
        )
        closes = (after_lower, after_upper)
        pool = _fragment_pool(ledger.ranks, _json_texts, _JSON_ITEM, closes, kinds)
        verdicts = len(pool)
        pool = np.array(pool + ["false" + after_verdict, "true" + after_verdict], dtype=object)
        layout = ((0, 1, 2), (3, 3, 4))
        for k in orders:
            yield ("{\n" if k == orders[0] else "\n    ],\n") + f'    "{k}": [\n      '
            blocks = _order_blocks(len(boxes), ledger, k, _SCREEN_BLOCK_ROWS)
            for b, (members, nonempty) in enumerate(blocks):
                pieces = _row_pieces(members, ledger.ranks, layout)
                pieces.append(verdicts + nonempty)
                text = "".join(pool[np.column_stack(pieces)].ravel().tolist())
                yield text if b else text[len(_JSON_ROW_SEP) :]
        yield "\n    ]\n  }"
    else:
        yield "{}"
    yield f',\n  "terms_used": {terms_used},\n  "terms_full": {_digits(terms_full)}\n}}'


_TABLE_VERDICTS = ("  no good\n", "  yes\n")


def _screen_table(boxes, ledger, orders, terms_used, terms_full):
    """The verdict tables in chunks, one per block of rows, then the
    retained-term count.

    A row is its cell, the members' ids and the coordinates the meet
    takes, padded to the widest cell of its order, and the verdict.  The
    cell lengths come from the fragment lengths, so the width is known
    before the order's first row is written.
    """
    if orders:
        ids = [box.id for box in boxes]
        kinds = (ids, [text + " = [(" for text in ids])
        pool = _fragment_pool(ledger.ranks, _table_texts, ", ", ("), (", ")]"), kinds)
        lengths = np.fromiter(map(len, pool), dtype=np.intp, count=len(pool))
        pool = np.array(pool, dtype=object)
        layout = ((0, 0, 1),)

        def blocks(k):
            for members, nonempty in _order_blocks(len(boxes), ledger, k, _TABLE_BLOCK_ROWS):
                pieces = _row_pieces(members, ledger.ranks, layout)
                yield pieces, sum(lengths[piece] for piece in pieces), nonempty

        for k in orders:
            width = int(max(cells.max() for _, cells, _ in blocks(k)))
            yield f"{_order_name(k).ljust(width)}  nonempty?\n"
            for pieces, cells, nonempty in blocks(k):
                pad = width - cells
                present = np.bincount(pad) > 0  # which pads occur; rank numbers them
                pads = np.flatnonzero(present).tolist()
                tails = [" " * p + verdict for p in pads for verdict in _TABLE_VERDICTS]
                rank = np.cumsum(present) - 1
                tails = np.array(tails, dtype=object)[2 * rank[pad] + nonempty]
                rows = np.column_stack((pool[np.column_stack(pieces)], tails))
                yield "".join(rows.ravel().tolist())
            yield "\n"
    yield f"retained {terms_used} of {_digits(terms_full)} inclusion-exclusion terms"


# ---------------------------------------------------------------------------
# Subcommands
#
# Each returns its output once, as (json_key, table_label, value) fields in
# output order: a None key leaves a field out of the JSON document, a None
# label leaves it out of the table.  run writes the versioned envelope and
# both formats.  screen, and graph's table, come back as an iterable of
# text chunks.


def _cmd_screen(args):
    """The verdict listing, in chunks; every check is made before the first."""
    problem = _load_geometry(args.file)
    mode = _resolve_mode(args, problem)
    boxes = problem.boxes
    n = len(boxes)
    max_order = n if args.max_order is None else args.max_order
    if max_order < 0:
        raise InputError(f"--max-order {max_order} is below 0")
    pairs = n * (n - 1) // 2 if max_order >= 2 else 0
    _check_screen_rows(pairs)  # before the walk builds its (N, N) pair mask
    ledger = enumerate_tuples(boxes, mode, n)
    higher = [k for k in sorted(ledger.levels) if 3 <= k <= max_order]
    _check_screen_rows(pairs + sum(len(ledger.levels[k]) for k in higher))
    orders = ([2] if pairs else []) + higher
    terms = (ledger.term_count(), 2**n - 1)
    if args.format == "json":
        return _screen_json(mode, boxes, ledger, orders, *terms)
    return _screen_table(boxes, ledger, orders, *terms)


def _cmd_union(args):
    problem = _load_geometry(args.file)
    mode = _resolve_mode(args, problem)
    result = screened_union(problem.boxes, problem.measure, mode)
    return [
        ("mode", None, mode.value),
        ("q", "q", result.q),
        ("terms_used", "terms used", result.terms_used),
        ("terms_full", "terms full", result.terms_full),
    ]


def _cmd_moments(args):
    problem = _load_geometry(args.file)
    mode = _resolve_mode(args, problem)
    n = len(problem.boxes)
    m = n if args.m is None else args.m
    if args.m is not None:  # an empty s is no valid bounds input
        check_order(m, n)
    moments = binomial_moments(problem.boxes, problem.measure, mode, m)
    return [
        ("mode", None, mode.value),
        ("n_events", None, moments.n_events),
        ("m", None, moments.m),
        ("s", None, list(moments.s)),
        *((None, f"S_{k}", s_k) for k, s_k in enumerate(moments.s, 1)),
        ("q", "q", moments.q),
    ]


def _bounds_inputs(args):
    """Geometry with its resolved mode, or moments, for the bounds subcommand."""
    with _collector_paused():
        doc = load_document(args.file)
        if isinstance(doc, dict) and "boxes" in doc:
            problem = parse_geometry(doc)
            return problem, _resolve_mode(args, problem), None
        if isinstance(doc, dict) and "s" in doc:
            if getattr(args, "mode", None):
                raise InputError("--mode applies only to geometry input")
            return None, None, parse_moments(doc)
        raise InputError("input file must contain either 'boxes' (geometry) or 's' (moments)")


def _cmd_bounds(args):
    problem, mode, moments = _bounds_inputs(args)
    n = moments.n_events if problem is None else len(problem.boxes)
    target, r, method = args.target, args.r, args.method
    if method != "moment" and problem is None:
        raise InputError(f"--method {method} needs geometry input")
    if method == "hunter-worsley" and target != "union":
        raise InputError("--method hunter-worsley bounds the union only")
    if method != "moment" and args.with_q:
        raise InputError(f"--with-q does not apply to the {method} method")
    if method == "hunter-worsley" and args.m is not None:
        raise InputError("--m does not apply to the hunter-worsley method")
    m = min(3, n if moments is None else moments.m) if args.m is None else args.m
    # Every check before any walk, which may be long or over budget; a
    # moments file's m is checked against its moments by the bound itself.
    check_moment_request(target, n, r, None if problem is None else m, args.with_q)

    if method == "moment":
        if problem is not None and args.with_q:  # q needs the full walk
            moments = binomial_moments(problem.boxes, problem.measure, mode, m)
        elif problem is not None:
            ledger = enumerate_tuples(problem.boxes, mode, m, problem.measure)
            moments = MomentVector(n, tuple(ledger.order_sum(k) for k in range(1, m + 1)))
        if args.with_q:
            q_bounds = q_exactly_bounds if target == "exactly" else q_atleast_bounds
            result = q_bounds(moments, 1 if target == "union" else r, m)
        elif target == "union":
            # p_0 and its S_0 = 1 row keep the upper bound at most 1
            result = union_bounds(moments, m, include_p0=True)
        else:
            r_bounds = atleast_r_bounds if target == "atleast" else exactly_r_bounds
            result = r_bounds(moments, r, m)
    elif method == "boolean":
        check_atom_cap(n, m)
        system = boolean_system_from_boxes(problem.boxes, problem.measure, m)
        result = boolean_lp_bounds(system, target, r)
    else:  # hunter-worsley
        ledger = enumerate_tuples(problem.boxes, mode, 2, problem.measure)
        upper = hunter_worsley_upper(ledger.order_sum(1), ledger.probabilities(2), n)
        return [
            ("method", "method", "hunter-worsley"),
            ("target", "target", "union"),
            ("upper", "upper", upper),
        ]

    return [
        ("method", "method", result.method),
        ("target", None, target),
        (None, "target", target if r is None else f"{target} r={r}"),
        ("r", None, r),
        ("m", None, m),
        ("with_q", None, bool(args.with_q)),
        ("lower", "lower", result.lower),
        ("upper", "upper", result.upper),
    ]


def _cmd_oracle(args):
    problem = _load_geometry(args.file)
    boxes, measure = problem.boxes, problem.measure
    fields = [("engine", None, args.engine)]
    if args.engine == "ie":
        fields.append(("q", "q", full_inclusion_exclusion_union(boxes, measure)))
    elif args.engine == "cells":
        dist = exact_count_distribution(boxes, measure)
        fields.append(("p", None, list(dist.p)))
        fields.extend((None, f"p_{i}", p_i) for i, p_i in enumerate(dist.p))
        fields.append(("union", "union", dist.union()))
    else:
        result = monte_carlo_union(boxes, measure, args.samples, args.seed)
        fields += [
            ("estimate", "estimate", result.estimate),
            ("standard_error", "standard error", result.standard_error),
            ("samples", "samples", args.samples),
            ("seed", "seed", args.seed),
        ]
    return fields


def _cmd_graph(args):
    problem = _load_geometry(args.file)
    mode = _resolve_mode(args, problem)
    graph = build_graph(problem.boxes, mode)
    dot = to_dot(graph, [box.id for box in problem.boxes])
    if args.format == "table":
        return (dot.rstrip("\n"),)
    return [("mode", None, mode.value), ("dot", None, dot)]


_COMMANDS = {
    "screen": _cmd_screen,
    "union": _cmd_union,
    "moments": _cmd_moments,
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "graph": _cmd_graph,
}


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default=None,
        help=f"output format (default from ${FORMAT_ENV_VAR}, else table)",
    )
    geo = argparse.ArgumentParser(add_help=False)
    geo.add_argument(
        "--mode",
        choices=tuple(mode.value for mode in EmptinessMode),
        default=None,
        help="emptiness test override (default: positive-measure)",
    )

    parser = argparse.ArgumentParser(
        prog="boxbounds",
        description=(
            "Exact probabilities and sharp LP bounds for Boolean functions "
            "of hyperrectangle events under product measures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("screen", parents=[common, geo], help="tuple verdict tables")
    p.add_argument("file")
    p.add_argument("--max-order", type=int, default=None, help="largest tuple order to list")

    p = sub.add_parser("union", parents=[common, geo], help="exact union probability")
    p.add_argument("file")

    p = sub.add_parser("moments", parents=[common, geo], help="binomial moments and union")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=None, help="highest moment order (default: event count)")

    p = sub.add_parser("bounds", parents=[common, geo], help="lower/upper bounds")
    p.add_argument("file", help="geometry file, or a moments file as emitted by 'moments'")
    targets = ("union", "atleast", "exactly")
    help_target = "union (at least one event), atleast r or exactly r events (default: union)"
    p.add_argument("--target", choices=targets, default="union", help=help_target)
    p.add_argument("--r", type=int, help="atleast: 1..N; exactly: 0..N, or 1..N with --with-q")
    orders = "moment order or Boolean subset order (default: min(3, available)); not hunter-worsley"
    p.add_argument("--m", type=int, help=orders)
    p.add_argument("--with-q", action="store_true", help="moment LP with the exact union row too")
    methods = ("moment", "boolean", "hunter-worsley")
    help_method = "moment LP, Boolean atom LP or Hunter-Worsley union upper bound (default: moment)"
    p.add_argument("--method", choices=methods, default="moment", help=help_method)

    p = sub.add_parser("oracle", parents=[common], help="ground-truth engines")
    p.add_argument("file")
    p.add_argument("--engine", choices=("ie", "cells", "mc"), default="ie")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("graph", parents=[common, geo], help="DOT intersection graph")
    p.add_argument("file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; parse_args leaves it unchanged."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    args.format = args.format or os.environ.get(FORMAT_ENV_VAR) or "table"
    if args.format not in ("json", "table"):
        print(f"error: unknown output format {args.format!r}", file=sys.stderr)
        return 1

    try:
        output = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleBoundsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    if isinstance(output, list):  # fields
        if args.format == "json":
            doc = {"version": JSON_VERSION, "command": args.command}
            doc.update((key, value) for key, _, value in output if key is not None)
            output = (_json_text(doc),)
        else:
            output = (_kv_table(output),)
    for chunk in output:
        sys.stdout.write(chunk)
    sys.stdout.write("\n")
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # The reader left early (`| head`): point stdout at devnull so the
        # flush at interpreter exit cannot raise again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
