"""parse_geometry's boxes and messages against the per-box reference.

``helpers.reference_parse_geometry`` checks each box in file order and
raises at its first failing check.  Every single fault is pinned to its
message here, and a seeded corpus of valid and faulty documents must give
the reference's boxes bit for bit, or its message.
"""

import copy
import gc
import json
import re

import numpy as np
import pytest

from boxbounds import cli
from boxbounds.cli import parse_geometry, run
from boxbounds.errors import InputError

from helpers import reference_parse_geometry


def _box(box_id="A", lower=(0, 0), upper=(1, 1)):
    return {"id": box_id, "lower": list(lower), "upper": list(upper)}


def _doc(*boxes, dimension=2):
    measure = {"type": "uniform", "lower": [-10] * dimension, "upper": [10] * dimension}
    return {"dimension": dimension, "measure": measure, "boxes": list(boxes)}


SINGLE_FAULTS = [
    ("not-an-object", _doc(_box("A"), 7), "box 1: expected an object"),
    ("missing-id", _doc({"lower": [0, 0], "upper": [1, 1]}),
     "box 0: 'id' must be a nonempty string"),
    ("empty-id", _doc(_box("")), "box 0: 'id' must be a nonempty string"),
    ("non-string-id", _doc(_box("A"), _box(5)), "box 1: 'id' must be a nonempty string"),
    ("duplicate-id", _doc(_box("A"), _box("B"), _box("A")), "duplicate box id 'A'"),
    ("lower-not-a-list", _doc(dict(_box("A"), lower="0 0")),
     "box 'A' lower must be a list of 2 numbers"),
    ("upper-not-a-list", _doc(dict(_box("A"), upper={"x": 1})),
     "box 'A' upper must be a list of 2 numbers"),
    ("lower-too-short", _doc(_box("A", lower=[0])), "box 'A' lower must be a list of 2 numbers"),
    ("upper-too-long", _doc(_box("A", upper=[1, 1, 1])),
     "box 'A' upper must be a list of 2 numbers"),
    ("bool-coordinate", _doc(_box("A", lower=[True, 0])),
     "box 'A' lower must be a number, got True"),
    ("string-coordinate", _doc(_box("A", upper=[1, "1"])),
     "box 'A' upper must be a number, got '1'"),
    ("null-coordinate", _doc(_box("A", lower=[None, 0])),
     "box 'A' lower must be a number, got None"),
    ("huge-integer", _doc(_box("A", upper=[10**400, 1])),
     "box 'A' upper is outside the float range"),
    ("nan-lower", _doc(_box("A", lower=[float("nan"), 0])),
     "box 'A': lower nan exceeds upper 1.0 in coordinate 0"),
    ("nan-upper", _doc(_box("A"), _box("B", upper=[1, float("nan")])),
     "box 'B': lower 0.0 exceeds upper nan in coordinate 1"),
    ("lower-above-upper", _doc(_box("A", lower=[0, 2.5])),
     "box 'A': lower 2.5 exceeds upper 1.0 in coordinate 1"),
]


@pytest.mark.parametrize(
    "doc, message", [case[1:] for case in SINGLE_FAULTS], ids=[case[0] for case in SINGLE_FAULTS]
)
def test_single_fault_message(capsys, tmp_path, doc, message):
    with pytest.raises(InputError) as expected:
        reference_parse_geometry(doc)
    assert str(expected.value) == message
    with pytest.raises(InputError) as got:
        parse_geometry(doc)
    assert str(got.value) == message
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(doc))
    code = run(["union", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


# Coordinate kinds of a valid box.  "big" integers lie above 2^53, where
# float() rounds, and some above the int64 range; "inf" reaches the parser
# as JSON Infinity; "np" values are np.float64, a float subclass, in
# documents passed to parse_geometry as a dict.
def _value(rng, direct):
    kind = rng.choice(["float", "int", "zero", "big", "inf", "np" if direct else "float"])
    if kind == "float":
        return float(rng.uniform(-5.0, 5.0))
    if kind == "int":
        return int(rng.integers(-5, 6))
    if kind == "zero":
        return [0.0, -0.0, 0][int(rng.integers(0, 3))]
    if kind == "big":
        return int(rng.choice([1, -1])) * (2 ** int(rng.integers(53, 80)) + int(rng.integers(1, 999)))
    if kind == "inf":
        return float(rng.choice([-np.inf, np.inf]))
    return np.float64(rng.uniform(-5.0, 5.0))


def _valid_box(rng, box_id, dimension, direct):
    lower, upper = [], []
    for _ in range(dimension):
        a, b = _value(rng, direct), _value(rng, direct)
        lo, hi = (a, b) if float(a) <= float(b) else (b, a)
        lower.append(lo)
        upper.append(hi)
    return {"id": box_id, "lower": lower, "upper": upper}


BAD_COORDINATES = [True, False, "1", None, [1], {}, 10**400, -(10**400)]
BAD_SIDES = ["0 1", None, 3, {"a": 1}]
FAULTS = ["object", "id", "duplicate", "side", "length", "coordinate", "nan", "order"]


def _inject(rng, boxes, i, kind, direct):
    """Put one fault of the given kind into box i, where it still applies."""
    box = boxes[i]
    if kind == "object":
        boxes[i] = [3, "A", None, [0, 1]][int(rng.integers(0, 4))]
        return
    if not isinstance(box, dict):
        return
    if kind == "id":
        bad = ["", 7, None, True, "missing"][int(rng.integers(0, 5))]
        if bad == "missing":
            box.pop("id", None)
        else:
            box["id"] = bad
        return
    if kind == "duplicate":
        others = [b["id"] for j, b in enumerate(boxes) if j != i and isinstance(b, dict) and "id" in b]
        if others:
            box["id"] = others[int(rng.integers(0, len(others)))]
        return
    side = ["lower", "upper"][int(rng.integers(0, 2))]
    values = box.get(side)
    if kind == "side":
        box[side] = BAD_SIDES[int(rng.integers(0, len(BAD_SIDES)))]
        return
    if not isinstance(values, list) or not values:
        return
    k = int(rng.integers(0, len(values)))
    if kind == "length":
        if rng.random() < 0.5:
            values.append(values[0])
        else:
            values.pop()
    elif kind == "coordinate":
        bad = BAD_COORDINATES + ([np.int64(3)] if direct else [])
        values[k] = bad[int(rng.integers(0, len(bad)))]
    elif kind == "nan":
        values[k] = float("nan")
    elif isinstance(box.get("lower"), list) and isinstance(box.get("upper"), list):
        lower, upper = box["lower"], box["upper"]
        if k < len(lower) and k < len(upper):
            lower[k], upper[k] = 1.5, -0.5


def _random_document(seed):
    """A valid document with 0-3 faults, as a dict or through JSON text."""
    rng = np.random.default_rng(seed)
    dimension = int(rng.integers(1, 4))
    n_boxes = int(rng.integers(0, 21))
    direct = bool(rng.random() < 0.3)
    boxes = [_valid_box(rng, f"A{i}", dimension, direct) for i in range(n_boxes)]
    box = None
    for _ in range(int(rng.integers(0, 4)) if n_boxes else 0):
        if box is None or rng.random() < 0.5:  # half the later faults share a box
            box = int(rng.integers(0, n_boxes))
        _inject(rng, boxes, box, FAULTS[int(rng.integers(0, len(FAULTS)))], direct)
    doc = _doc(*boxes, dimension=dimension)
    if rng.random() < 0.3:
        doc["mode"] = "closed"
    return doc if direct else json.loads(json.dumps(doc))


def _bits(problem):
    return [
        (box.id, np.array(box.lower).view(np.int64).tolist(),
         np.array(box.upper).view(np.int64).tolist(),
         {type(v) for v in box.lower + box.upper})
        for box in problem.boxes
    ]


# The first words of each message, one pattern per check of a box.
MESSAGE_KINDS = {
    "object": r"box \d+: expected an object",
    "id": r"box \d+: 'id' must",
    "duplicate": r"duplicate box id",
    "list": r"box '.*' (lower|upper) must be a list",
    "type": r"box '.*' (lower|upper) must be a number",
    "range": r"box '.*' (lower|upper) is outside the float range",
    "order": r"box '.*': lower .* exceeds upper",
}


def test_corpus_matches_reference():
    outcomes = {"valid": 0}
    for seed in range(600):
        doc = _random_document(seed)
        before = repr(doc)
        try:
            expected = reference_parse_geometry(copy.deepcopy(doc))
        except InputError as exc:
            with pytest.raises(InputError) as got:
                parse_geometry(doc)
            assert str(got.value) == str(exc), f"seed {seed}"
            kinds = [kind for kind, pattern in MESSAGE_KINDS.items() if re.match(pattern, str(exc))]
            assert len(kinds) == 1, str(exc)
            outcomes[kinds[0]] = outcomes.get(kinds[0], 0) + 1
        else:
            got = parse_geometry(doc)
            assert _bits(got) == _bits(expected), f"seed {seed}"
            assert (got.measure, got.mode) == (expected.measure, expected.mode)
            outcomes["valid"] += 1
        assert repr(doc) == before, f"seed {seed}: the document changed"
    assert set(outcomes) == {"valid", *MESSAGE_KINDS}
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_file_parse_pauses_the_collector(capsys, monkeypatch, tmp_path, enabled):
    # Off while a file is read and parsed, and afterwards, after a fault
    # too, on exactly when it was on before.
    seen = []

    def spy(doc):
        seen.append(gc.isenabled())
        return parse_geometry(doc)

    monkeypatch.setattr(cli, "parse_geometry", spy)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_doc(_box("A"), _box("B"))))
    bad.write_text(json.dumps(_doc(_box("A"), _box("A"))))
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({"n_events": 2, "s": [0.5]}))
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert [box.id for box in cli._load_geometry(str(good)).boxes] == ["A", "B"]
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match="duplicate box id 'A'"):
            cli._load_geometry(str(bad))
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match="cannot read"):
            cli._load_geometry(str(tmp_path / "missing.json"))
        assert gc.isenabled() is enabled
        assert run(["bounds", str(good), "--method", "hunter-worsley"]) == 0
        assert gc.isenabled() is enabled
        assert run(["bounds", str(moments), "--mode", "closed"]) == 1
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False, False, False]
    assert capsys.readouterr().err == "error: --mode applies only to geometry input\n"
