"""``screen`` output against the per-row renderer it replaced.

``reference_screen`` keeps that renderer: TupleVerdict rows from
``pair_verdicts``, the ledger rows of ``enumerate_tuples``, a nested
document written by ``json.dumps(doc, indent=2)`` and a table that formats
every coordinate of every row.  The CLI must print the same bytes.
"""

import contextlib
import io
import json
import os
import tempfile
from math import inf

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxbounds.cli import run
from boxbounds.geometry import Box, EmptinessMode
from boxbounds.screening import enumerate_tuples, pair_verdicts


def _fmt_box(lower, upper) -> str:
    left = ", ".join(format(v, "g") for v in lower)
    right = ", ".join(format(v, "g") for v in upper)
    return f"[({left}), ({right})]"


def _order_name(k: int) -> str:
    return {2: "pairs", 3: "triples"}.get(k, f"{k}-tuples")


def reference_screen(boxes, mode, max_order, fmt):
    """The screen output as the per-row renderer wrote it, without the newline."""
    n = len(boxes)
    max_order = n if max_order is None else max_order
    ledger = enumerate_tuples(boxes, mode, n)

    # (order, [(label, indices, lower, upper, nonempty), ...]) per listed order
    sections = []
    if n >= 2 and max_order >= 2:
        rows = pair_verdicts(boxes, mode)
        sections.append((2, [(r.label, r.indices, r.lower, r.upper, r.nonempty) for r in rows]))
    for k in sorted(ledger.levels):
        if k < 3 or k > max_order:
            continue
        level = ledger.levels[k]
        sections.append(
            (
                k,
                [
                    ("".join(boxes[i].id for i in indices), indices, lower, upper, True)
                    for indices, lower, upper in zip(
                        level.indices.tolist(), level.lower.tolist(), level.upper.tolist()
                    )
                ],
            )
        )

    terms_used = ledger.term_count()
    terms_full = 2**n - 1
    if fmt == "json":
        orders_json = {
            str(k): [
                {
                    "label": label,
                    "ids": [boxes[i].id for i in indices],
                    "lower": list(lower),
                    "upper": list(upper),
                    "nonempty": nonempty,
                }
                for label, indices, lower, upper, nonempty in rows
            ]
            for k, rows in sections
        }
        doc = {
            "version": 1,
            "command": "screen",
            "mode": mode.value,
            "n_events": n,
            "orders": orders_json,
            "terms_used": terms_used,
            "terms_full": terms_full,
        }
        return json.dumps(doc, indent=2)

    lines = []
    for k, rows in sections:
        cells = [
            (f"{label} = {_fmt_box(lower, upper)}", nonempty)
            for label, _, lower, upper, nonempty in rows
        ]
        width = max(len(text) for text, _ in cells)
        lines.append(f"{_order_name(k).ljust(width)}  nonempty?")
        for text, nonempty in cells:
            lines.append(f"{text.ljust(width)}  {'yes' if nonempty else 'no good'}")
        lines.append("")
    lines.append(f"retained {terms_used} of {terms_full} inclusion-exclusion terms")
    return "\n".join(lines)


# Signed zeros, infinities, the smallest subnormal and values whose repr
# and "g" forms switch to exponents; few enough that faces touch and widths
# vanish often.
COORDS = st.sampled_from(
    [-inf, -1e300, -1e16, -1.0, -1e-7, -5e-324, -0.0, 0.0, 5e-324, 1e-7, 0.1, 1.5, 1e16, 1e300, inf]
)
# Characters json.dumps escapes (quote, backslash, controls, non-ASCII
# in and beyond the BMP) next to ones it keeps.
ID_CHARS = st.one_of(
    st.sampled_from(list('A1"\\/\x00\x1f\x7f\n\téΩ \U0001f600')), st.characters()
)


@st.composite
def screen_problems(draw):
    dim = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3), max_size=6, unique=True))
    boxes = []
    for box_id in ids:
        a = draw(st.lists(COORDS, min_size=dim, max_size=dim))
        b = draw(st.lists(COORDS, min_size=dim, max_size=dim))
        boxes.append(Box(box_id, tuple(map(min, a, b)), tuple(map(max, a, b))))
    max_order = draw(st.one_of(st.none(), st.integers(0, len(boxes) + 1)))
    return boxes, max_order


def _screen_stdout(boxes, mode, max_order, fmt):
    dim = boxes[0].dimension if boxes else 1
    doc = {
        "dimension": dim,
        "measure": {"type": "uniform", "lower": [0.0] * dim, "upper": [1.0] * dim},
        "boxes": [{"id": b.id, "lower": list(b.lower), "upper": list(b.upper)} for b in boxes],
    }
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = ["screen", path, "--mode", mode.value, "--format", fmt]
        if max_order is not None:
            argv += ["--max-order", str(max_order)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
    finally:
        os.unlink(path)
    return code, stdout.getvalue()


@given(screen_problems(), st.sampled_from(list(EmptinessMode)), st.sampled_from(["json", "table"]))
@settings(max_examples=300, deadline=None)
@example(([], None), EmptinessMode.CLOSED, "json")
@example(([], 1), EmptinessMode.CLOSED, "table")
@example(([Box("é", (-0.0,), (0.0,))], None), EmptinessMode.CLOSED, "json")
@example(([Box("A", (0.0, -inf), (1.0, inf)), Box("B", (-0.0, 5e-324), (0.0, inf))], None),
         EmptinessMode.CLOSED, "json")
@example(([Box("A", (0.0, -inf), (1.0, inf)), Box("B", (-0.0, 5e-324), (0.0, inf))], 2),
         EmptinessMode.POSITIVE_MEASURE, "table")
def test_screen_matches_the_per_row_renderer(problem, mode, fmt):
    boxes, max_order = problem
    code, stdout = _screen_stdout(boxes, mode, max_order, fmt)
    assert code == 0
    assert stdout == reference_screen(boxes, mode, max_order, fmt) + "\n"
