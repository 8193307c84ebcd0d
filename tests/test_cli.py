import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from boxbounds import cli
from boxbounds.bounding import hunter_worsley_upper, pairwise_probabilities
from boxbounds.cli import run
from boxbounds.geometry import Box, EmptinessMode
from boxbounds.measure import ProductMeasure
from boxbounds.screening import UnionResult, binomial_moments

from helpers import random_instance

ROOT = Path(__file__).parent.parent


def _invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_screen_table_example1(capsys, fixtures_dir):
    code, out, _ = _invoke(capsys, "screen", str(fixtures_dir / "example1.json"))
    assert code == 0
    assert "A1A2 = [(5, 6), (6, 7)]  yes" in out
    assert "A1A3 = [(5, 6), (4, 8)]  no good" in out
    assert "A1A5 = [(5, 6), (9, 5)]  no good" in out
    assert out.count("no good") == 2
    assert "A2A3A4A5 = [(3, 4), (4, 5)]  yes" in out
    assert "retained 19 of 31 inclusion-exclusion terms" in out


def test_screen_json_example2(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys, "screen", str(fixtures_dir / "example2.json"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["terms_used"] == 8
    assert doc["terms_full"] == 127
    pairs = doc["orders"]["2"]
    assert len(pairs) == 21
    verdicts = {row["label"]: row["nonempty"] for row in pairs}
    assert verdicts["A2A7"] is True
    assert sum(verdicts.values()) == 1
    assert "3" not in doc["orders"]


def test_union_json_example2(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys, "union", str(fixtures_dir / "example2.json"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == pytest.approx(0.224, abs=1e-12)
    assert doc["terms_used"] == 8
    assert doc["terms_full"] == 127


def test_moments_roundtrip_into_bounds(capsys, fixtures_dir, tmp_path):
    code, out, _ = _invoke(
        capsys,
        "moments",
        str(fixtures_dir / "example2.json"),
        "--m",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_events"] == 7
    assert doc["s"][0] == pytest.approx(29 / 125, abs=1e-12)
    assert doc["q"] == pytest.approx(28 / 125, abs=1e-12)

    moments_file = tmp_path / "moments.json"
    moments_file.write_text(out)
    code, out2, _ = _invoke(
        capsys, "bounds", str(moments_file), "--target", "union", "--format", "json"
    )
    assert code == 0
    bounds_doc = json.loads(out2)
    assert bounds_doc["lower"] == pytest.approx(0.224, abs=1e-9)
    assert bounds_doc["lower"] - 1e-9 <= 0.224 <= bounds_doc["upper"] + 1e-9


def test_moments_m_below_1_exits_1(capsys, fixtures_dir, tmp_path):
    # An empty s is no valid bounds input, so moments must not write one.
    path = str(fixtures_dir / "example1.json")
    for m in ("0", "-1"):
        for fmt in ("table", "json"):
            code, out, err = _invoke(capsys, "moments", path, "--m", m, "--format", fmt)
            assert (code, out) == (1, "")
            assert err == f"error: --m {m} is below 1\n"
    # Without --m a file with no boxes still lists its zero moments.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({**json.loads(Path(path).read_text()), "boxes": []}))
    code, out, _ = _invoke(capsys, "moments", str(empty), "--format", "json")
    assert code == 0
    assert json.loads(out)["s"] == []


def _exact_digits(n: int) -> str:
    """The decimal digits of n, from chunks that each stay under the digit limit."""
    chunks = []
    while n:
        n, low = divmod(n, 10**1000)
        chunks.append(low)
    return str(chunks[-1]) + "".join(f"{chunk:01000d}" for chunk in reversed(chunks[:-1]))


def test_terms_full_past_the_int_digit_limit(capsys, fixtures_dir, monkeypatch):
    # 2**15000 - 1 has 4,516 digits, past Python's default limit of 4,300.
    limit = sys.get_int_max_str_digits()
    terms_full = 2**15000 - 1
    digits = _exact_digits(terms_full)
    assert len(digits) == 4516
    monkeypatch.setattr(cli, "screened_union", lambda *args: UnionResult(0.5, 1, terms_full))
    path = str(fixtures_dir / "example1.json")
    code, out, _ = _invoke(capsys, "union", path, "--format", "table")
    assert code == 0
    assert out == f"q           0.5\nterms used  1\nterms full  {digits}\n"
    code, out, _ = _invoke(capsys, "union", path, "--format", "json")
    assert code == 0
    assert out.endswith(f'"terms_used": 1,\n  "terms_full": {digits}\n}}\n')
    boxes = [Box("A", (0.0,), (1.0,))]
    chunks = cli._screen_json(EmptinessMode.POSITIVE_MEASURE, boxes, None, [], 1, terms_full)
    screen = "".join(chunks)
    assert screen.endswith(f'"terms_used": 1,\n  "terms_full": {digits}\n}}')
    screen = "".join(cli._screen_table(boxes, None, [], 1, terms_full))
    assert screen == f"retained 1 of {digits} inclusion-exclusion terms"
    assert sys.get_int_max_str_digits() == limit


def test_bounds_atleast_with_q(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys,
        "bounds",
        str(fixtures_dir / "example2.json"),
        "--target",
        "atleast",
        "--r",
        "2",
        "--m",
        "2",
        "--with-q",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == pytest.approx(0.008, abs=1e-9)
    assert doc["upper"] == pytest.approx(0.008, abs=1e-9)


def test_bounds_hunter_worsley(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys,
        "bounds",
        str(fixtures_dir / "example2.json"),
        "--method",
        "hunter-worsley",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] == pytest.approx(0.224, abs=1e-12)
    assert "lower" not in doc


@pytest.mark.parametrize("mode", [mode.value for mode in EmptinessMode])
def test_hunter_worsley_matches_the_library_pipeline(capsys, tmp_path, mode):
    # Half the instances sit on an integer grid: touching faces, zero widths.
    rng = np.random.default_rng(17)
    path = tmp_path / "boxes.json"
    for _ in range(30):
        boxes, measure = random_instance(rng, max_events=9)
        dim = boxes[0].dimension
        doc = {
            "dimension": dim,
            "measure": {"type": "uniform", "lower": [0.0] * dim, "upper": [6.0] * dim},
            "boxes": [
                {"id": box.id, "lower": list(box.lower), "upper": list(box.upper)}
                for box in boxes
            ],
        }
        path.write_text(json.dumps(doc))
        code, out, _ = _invoke(
            capsys, "bounds", str(path), "--method", "hunter-worsley", "--mode", mode,
            "--format", "json",
        )
        assert code == 0
        expected = hunter_worsley_upper(
            binomial_moments(boxes, measure, EmptinessMode(mode)).s_k(1),
            pairwise_probabilities(boxes, measure),
            len(boxes),
        )
        assert repr(json.loads(out)["upper"]) == repr(expected)


def test_bounds_boolean(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys,
        "bounds",
        str(fixtures_dir / "example1.json"),
        "--method",
        "boolean",
        "--m",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] - 1e-9 <= 0.72 <= doc["upper"] + 1e-9


def test_oracle_engines(capsys, fixtures_dir):
    path = str(fixtures_dir / "example2.json")
    code, out, _ = _invoke(capsys, "oracle", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["q"] == pytest.approx(0.224, abs=1e-12)

    code, out, _ = _invoke(capsys, "oracle", path, "--engine", "cells", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"][0] == pytest.approx(97 / 125, abs=1e-12)

    code, out, _ = _invoke(
        capsys, "oracle", path, "--engine", "mc", "--samples", "20000", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["estimate"] - 0.224) <= 4 * doc["standard_error"]


def test_graph_dot(capsys, fixtures_dir):
    code, out, _ = _invoke(capsys, "graph", str(fixtures_dir / "example2.json"))
    assert code == 0
    assert out.startswith("graph intersections {")
    assert '"A2" -- "A7";' in out


def _dot_strings(text):
    """The quoted strings of DOT text, read with DOT's one escape, \\" for "."""
    return [
        body.replace('\\"', '"') for body in re.findall(r'"((?:\\.|[^"\\])*)"', text, re.S)
    ]


def test_graph_quotes_every_id(capsys):
    path = Path(__file__).parent / "golden" / "screen-edges.json"
    ids = [box["id"] for box in json.loads(path.read_text(encoding="utf-8"))["boxes"]]
    code, out, _ = _invoke(capsys, "graph", str(path))
    assert code == 0
    strings = _dot_strings(out)
    assert strings[: len(ids)] == ids
    assert len(strings) > len(ids) and set(strings[len(ids) :]) <= set(ids)


def test_graph_exits_1_on_an_id_dot_cannot_quote(capsys, tmp_path):
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [1]},
        "boxes": [{"id": "A\\", "lower": [0], "upper": [1]}],
    }
    path = tmp_path / "backslash.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, "graph", str(path))
    assert (code, out) == (1, "")
    assert "DOT quoted string" in err


def test_json_output_is_deterministic(capsys, fixtures_dir):
    argv = ("moments", str(fixtures_dir / "example1.json"), "--format", "json")
    _, first, _ = _invoke(capsys, *argv)
    _, second, _ = _invoke(capsys, *argv)
    assert first == second


def test_format_env_var(capsys, fixtures_dir, monkeypatch):
    monkeypatch.setenv("BOXBOUNDS_FORMAT", "json")
    code, out, _ = _invoke(capsys, "union", str(fixtures_dir / "example1.json"))
    assert code == 0
    json.loads(out)
    monkeypatch.delenv("BOXBOUNDS_FORMAT")


def test_mode_flag_changes_verdicts(capsys, fixtures_dir):
    code, out, _ = _invoke(
        capsys,
        "screen",
        str(fixtures_dir / "example2.json"),
        "--mode",
        "closed",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    verdicts = {row["label"]: row["nonempty"] for row in doc["orders"]["2"]}
    assert verdicts["A2A3"] is True  # touching faces survive the closed test
    assert sum(verdicts.values()) == 5


def test_missing_file_exits_1(capsys):
    code, _, err = _invoke(capsys, "union", "/nonexistent/file.json")
    assert code == 1
    assert "error" in err


def test_invalid_json_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _invoke(capsys, "union", str(bad))
    assert code == 1


def test_schema_violations_exit_1(capsys, tmp_path):
    duplicate = tmp_path / "dup.json"
    duplicate.write_text(
        json.dumps(
            {
                "dimension": 1,
                "measure": {"type": "uniform", "lower": [0], "upper": [1]},
                "boxes": [
                    {"id": "A", "lower": [0], "upper": [1]},
                    {"id": "A", "lower": [0], "upper": [1]},
                ],
            }
        )
    )
    code, _, err = _invoke(capsys, "union", str(duplicate))
    assert code == 1
    assert "duplicate" in err


@pytest.mark.parametrize("argv", [("union",), ("bounds",), ("oracle", "--engine", "mc")])
def test_non_finite_cdf_value_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"dimension": 1, "measure": {"type": "marginals", "marginals": '
        '[{"type": "piecewise", "knots": [0, 1, 2], "values": [0, NaN, 1]}]}, '
        '"boxes": [{"id": "A", "lower": [0], "upper": [2]}, '
        '{"id": "B", "lower": [0.5], "upper": [1.5]}]}'
    )
    code, out, err = _invoke(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: piecewise CDF values must be finite\n"


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate", "x.json"]) == 1


def test_missing_r_exits_1(capsys, fixtures_dir):
    code, _, err = _invoke(
        capsys, "bounds", str(fixtures_dir / "example1.json"), "--target", "atleast"
    )
    assert code == 1
    assert "--r" in err


def test_boolean_on_moments_file_exits_1(capsys, tmp_path):
    moments_file = tmp_path / "m.json"
    moments_file.write_text(json.dumps({"n_events": 3, "s": [0.5, 0.1]}))
    code, _, err = _invoke(
        capsys, "bounds", str(moments_file), "--method", "boolean"
    )
    assert code == 1


def test_inconsistent_moments_exit_2(capsys, tmp_path):
    moments_file = tmp_path / "m.json"
    moments_file.write_text(json.dumps({"n_events": 3, "s": [0.1, 3.0]}))
    code, _, err = _invoke(
        capsys, "bounds", str(moments_file), "--target", "union", "--m", "2"
    )
    assert code == 2
    assert "numerical failure" in err


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert run(["bounds", "--help"]) == 0


def test_term_budget_exits_with_input_error(capsys, tmp_path):
    # 2^22 - 1 nonempty tuples: the screened formula keeps every term.
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [1]},
        "boxes": [{"id": f"A{i}", "lower": [0], "upper": [1]} for i in range(22)],
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    for argv in (("union",), ("screen", "--format", "json"), ("screen", "--format", "table")):
        code, out, err = _invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 1
        assert out == ""
        assert "budget" in err


def test_screen_row_budget_exits_before_any_output(capsys, fixtures_dir, monkeypatch):
    # example1 lists 10 pairs, 5 triples and 1 4-tuple.
    path = str(fixtures_dir / "example1.json")
    monkeypatch.setattr(cli, "SCREEN_ROW_BUDGET", 16)
    for fmt in ("json", "table"):
        assert _invoke(capsys, "screen", path, "--format", fmt)[0] == 0
    monkeypatch.setattr(cli, "SCREEN_ROW_BUDGET", 15)
    for fmt in ("json", "table"):
        assert _invoke(capsys, "screen", path, "--format", fmt) == (
            1, "", "error: 16 screen rows exceed the budget of 15\n"
        )
        # the orders left out are not counted
        assert _invoke(capsys, "screen", path, "--max-order", "3", "--format", fmt)[0] == 0

    def unreachable(*args):
        pytest.fail("the walk started with more pairs than the row budget")

    # C(N, 2) is checked before the walk, whose pair mask takes N^2 bytes.
    monkeypatch.setattr(cli, "SCREEN_ROW_BUDGET", 9)
    monkeypatch.setattr(cli, "enumerate_tuples", unreachable)
    assert _invoke(capsys, "screen", path, "--max-order", "2") == (
        1, "", "error: 10 screen rows exceed the budget of 9\n"
    )


class _Sink:
    """A stdout that keeps only the length of what is written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


def test_screen_streams_in_bounded_memory(tmp_path, monkeypatch):
    # 600 sparse boxes list 179,700 pairs: 55 MB of JSON and 11 MB of table.
    # The whole-document writers peaked at 233 and 67 MiB here, the
    # streamed blocks at 2.1 and 1.0 MiB.
    rng = np.random.default_rng(3)
    lower = rng.uniform(0.0, 990.0, (600, 2))
    upper = lower + rng.uniform(1.0, 10.0, (600, 2))
    doc = {
        "dimension": 2,
        "measure": {"type": "uniform", "lower": [0, 0], "upper": [1000, 1000]},
        "boxes": [
            {"id": f"A{i}", "lower": lo, "upper": hi}
            for i, (lo, hi) in enumerate(zip(lower.tolist(), upper.tolist()))
        ],
    }
    path = tmp_path / "sparse600.json"
    path.write_text(json.dumps(doc))
    for fmt, size in (("json", 50_000_000), ("table", 10_000_000)):
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = run(["screen", str(path), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.size > size
        assert peak < 4 * 2**20


def test_moment_bounds_walk_only_to_m(capsys, tmp_path):
    # The full walk of 22 identical intervals passes the term budget (see
    # above); the moment bounds without q need only orders 1..m of it.
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [1]},
        "boxes": [{"id": f"A{i}", "lower": [0], "upper": [1]} for i in range(22)],
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _invoke(capsys, "bounds", str(path), "--m", "2", "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["lower"] == pytest.approx(1.0) and result["upper"] == pytest.approx(1.0)
    code, out, _ = _invoke(capsys, "bounds", str(path), "--target", "atleast", "--r", "22")
    assert code == 0
    for argv in (("--with-q",), ("--m", "0"), ("--m", "23")):
        code, out, err = _invoke(capsys, "bounds", str(path), *argv)
        assert (code, out) == (1, "")
        assert "budget" in err


@pytest.mark.parametrize("m", [None, "1", "2"])
@pytest.mark.parametrize(
    "path",
    ["fixtures/example1.json", "fixtures/example2.json",
     "tests/golden/moments-n20-m16.json", "tests/golden/moments-n60-m3.json",
     # 44 overlapping boxes whose unclamped m = 3 optimum is 1 + 2^-52
     "tests/golden/dense-n44-d2.json"],
)
def test_union_upper_bound_is_at_most_one(capsys, path, m):
    argv = ["bounds", str(ROOT / path), "--format", "json"] + ([] if m is None else ["--m", m])
    code, out, _ = _invoke(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"].startswith("moment-p0")
    assert 0.0 <= doc["lower"] <= doc["upper"] <= 1.0


def test_boolean_atom_cap_exits_before_the_system_is_built(capsys, tmp_path, monkeypatch):
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [13]},
        "boxes": [{"id": f"A{i}", "lower": [i], "upper": [i + 1]} for i in range(13)],
    }
    path = tmp_path / "thirteen.json"
    path.write_text(json.dumps(doc))
    argv = ("bounds", str(path), "--method", "boolean")

    # An out-of-range m is still reported ahead of the cap.
    code, out, err = _invoke(capsys, *argv, "--m", "14")
    assert (code, out) == (1, "")
    assert err == "error: order m=14 out of range 1..13\n"

    def unreachable(*args):
        pytest.fail("the Boolean system was built for an LP above the atom cap")

    monkeypatch.setattr(cli, "boolean_system_from_boxes", unreachable)
    code, out, err = _invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: Boolean atom LP over 2^13 atoms with subsets up to order 3 exceeds "
        "the budget of 65536 matrix cells\n"
    )


def test_boolean_atom_budget_exits_fast_on_nine_overlapping_boxes(capsys, tmp_path):
    # The m = 3 LP has 130 rows over 2^9 atoms.  Solving it took about 7 s
    # on these boxes, and a minute to the pivot cap on others drawn the
    # same way.
    rng = np.random.default_rng(9)
    lower = rng.uniform(0, 10, (9, 2))
    upper = lower + rng.uniform(60, 90, (9, 2))
    doc = {
        "dimension": 2,
        "measure": {"type": "uniform", "lower": [0, 0], "upper": [100, 100]},
        "boxes": [
            {"id": f"A{i}", "lower": lower[i].tolist(), "upper": upper[i].tolist()}
            for i in range(9)
        ],
    }
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _invoke(capsys, "bounds", str(path), "--method", "boolean", "--m", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: Boolean atom LP over 2^9 atoms with subsets up to order 3 exceeds "
        "the budget of 65536 matrix cells\n"
    )


@pytest.mark.parametrize(
    "argv",
    [(), ("--method", "boolean"), ("--target", "exactly", "--r", "1"), ("--with-q",)],
)
def test_zero_bounds_print_no_negative_zero(capsys, tmp_path, argv):
    # One box of probability 0: every maximum is 0, and the max path of
    # the LP negates a minimum, which must not leave -0.0.
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [1]},
        "boxes": [{"id": "A", "lower": [0.5], "upper": [0.5]}],
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _invoke(capsys, "bounds", str(path), *argv, "--format", "json")
    assert code == 0
    assert '"lower": 0.0,' in out and '"upper": 0.0\n' in out
    code, out, _ = _invoke(capsys, "bounds", str(path), *argv)
    assert code == 0
    assert out.endswith("lower   0\nupper   0\n")


def test_oversized_moment_lp_exits_before_building_rows(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_events": 10**9, "s": [0.5, 0.1]}))
    tracemalloc.start()
    try:
        code, out, err = _invoke(capsys, "bounds", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (
        "error: moment LP of 3 rows and 1000000001 columns has 3000000003 cells, "
        "above the budget of 1000000\n"
    )
    assert peak < 2**20


def test_monte_carlo_budget_exits_before_sampling(capsys, fixtures_dir, monkeypatch):
    def unreachable(*args):
        pytest.fail("sampling started above the Monte Carlo budget")

    monkeypatch.setattr(ProductMeasure, "sample", unreachable)
    start = time.perf_counter()
    code, out, err = _invoke(
        capsys, "oracle", str(fixtures_dir / "example1.json"), "--engine", "mc",
        "--samples", "100000000000",
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (
        "error: 100000000000 samples times 5 boxes exceed the budget of "
        "1000000000 point-in-box tests\n"
    )


def _geometry_text(upper="1", knot="1"):
    """A one-box problem file with the given box upper bound and CDF knot."""
    return (
        '{"dimension": 1, "measure": {"type": "marginals", "marginals": [{"type": '
        f'"piecewise", "knots": [0, {knot}], "values": [0, 1]}}]}}, '
        f'"boxes": [{{"id": "A", "lower": [0], "upper": [{upper}]}}]}}'
    ).encode()


@pytest.mark.parametrize(
    "command, content",
    [
        ("union", b"\xff\xfe{}"),  # not UTF-8
        ("union", _geometry_text(upper="9" * 5000)),  # past the int digit limit
        ("union", b"[" * 100_000 + b"]" * 100_000),  # past the recursion limit
        ("union", _geometry_text(upper="9" * 400)),  # beyond the float range
        ("union", _geometry_text(knot="9" * 400)),
        ("bounds", ('{"n_events": 3, "s": [' + "9" * 400 + "]}").encode()),
    ],
    ids=["non-utf8", "5000-digits", "deep-nesting", "huge-coordinate", "huge-knot", "huge-s"],
)
def test_malformed_input_exits_1(capsys, tmp_path, command, content):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    code, out, err = _invoke(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("union", {"dimension": True, "measure": {"type": "uniform", "lower": [0], "upper": [1]},
                   "boxes": []}, "'dimension' must be a positive integer"),
        ("bounds", {"n_events": True, "s": [0.5]}, "'n_events' must be a nonnegative integer"),
    ],
)
def test_integer_fields_reject_booleans(capsys, tmp_path, command, doc, message):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = _invoke(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_negative_seed_exits_1(capsys, fixtures_dir):
    code, out, err = _invoke(
        capsys, "oracle", str(fixtures_dir / "example1.json"), "--engine", "mc", "--seed", "-1"
    )
    assert (code, out) == (1, "")
    assert err == "error: seed must be nonnegative, got -1\n"


def test_cells_oracle_on_44_dense_boxes(capsys):
    path = str(ROOT / "tests/golden/dense-n44-d2.json")
    code, out, _ = _invoke(capsys, "oracle", path, "--engine", "cells", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["p"]) == 45
    code, out, _ = _invoke(capsys, "union", path, "--format", "json")
    assert code == 0
    assert doc["union"] == pytest.approx(json.loads(out)["q"], abs=1e-12)


def test_cells_budget_exits_before_the_grid_is_built(capsys, tmp_path):
    doc = {
        "dimension": 3,
        "measure": {"type": "uniform", "lower": [0, 0, 0], "upper": [1, 1, 1]},
        "boxes": [{"id": f"A{i}", "lower": [i] * 3, "upper": [i + 0.5] * 3} for i in range(2000)],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _invoke(capsys, "oracle", str(path), "--engine", "cells")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (
        "error: 64048012001 grid cells times 2000 boxes exceed the budget of "
        "100000000 cell-in-box tests\n"
    )


def test_a_reader_that_closes_early_gets_no_traceback(tmp_path):
    # 150 boxes give 11,175 pair rows, far more than a pipe buffer holds.
    doc = {
        "dimension": 1,
        "measure": {"type": "uniform", "lower": [0], "upper": [200]},
        "boxes": [{"id": f"A{i}", "lower": [i], "upper": [i + 1.5]} for i in range(150)],
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "boxbounds", "screen", str(path), "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # what `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
