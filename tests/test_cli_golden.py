"""Byte-for-byte replay of recorded CLI stdout on both fixtures.

Every subcommand runs in both output formats and, where it takes one, in
both ``--mode`` values.  The moment LPs also run on two moments files in
``tests/golden/``: N = 20 with S_1..S_16 and N = 60 with S_1..S_3, the
binomial moments and union of a count distribution drawn as
``default_rng(N).dirichlet(np.full(N + 1, 0.7))``.  ``screen`` also runs
on ``tests/golden/screen-edges.json``, nine hand-made boxes with ±0.0,
±inf, subnormal and extreme coordinates, touching faces, zero widths and
ids that JSON must escape, at every ``--max-order`` from 0 to N + 1, and
``graph``, ``union``, ``moments``, Hunter-Worsley and the cell oracle
run on the same file, whose infinite and subnormal cuts border zero-mass
grid cells.  ``tests/golden/piecewise-d3.json`` holds
eight hand-made 3-d boxes under a different piecewise marginal per axis,
one with a flat segment, with coordinates on knots, outside the support,
±0.0 and ±inf; the ledger's subcommands, the atom LP and the cell oracle
run on it.  The Monte Carlo oracle also runs at 60,000 samples on
``piecewise-d3.json``, on ``dense-n44-d2.json``, on
``tests/golden/sparse-n150-d2.json``: 150 boxes in [0, 100]^2 under the
uniform measure, drawn with ``random.Random(150)``, per box and axis a side
``uniform(2.5, 7.5)`` then a start ``uniform(0, 100 - side)``, both ends
rounded to four decimals, and on ``tests/golden/piecewise-sweep-d3.json``:
48 boxes, enough that Monte Carlo sorts its piecewise samples, under three
piecewise marginals, one with a flat inner segment, one with a zero-mass
first segment and one with a flat tail, drawn with ``random.Random(48)``,
per box and axis with support [lo, hi] a side ``uniform(0.1, 0.35)``
times hi - lo then a start ``uniform(lo - 0.5, hi + 0.5 - side)``, both
ends rounded to four decimals.  On ``dense-n44-d2.json``, whose walk
keeps 8,429 terms over 10 orders, ``union``, ``moments`` (also at
``--m 3``), ``bounds --m 3`` and ``bounds --with-q --target atleast --r 2``
replay too, and ``screen --max-order 3`` is held to a sha256 digest.  The
recorded outputs live in
``tests/golden/cli_stdout.json``; regenerate them only for an intended
output change, with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from boxbounds import cli
from boxbounds.cli import run

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_stdout.json"
FIXTURES = ("example1", "example2")
MODES = ("positive-measure", "closed")
FORMATS = ("table", "json")

# Subcommand arguments after the input file; the geometry ones also take --mode.
GEOMETRY_COMMANDS = (
    ("screen",),
    ("screen", "--max-order", "2"),
    ("screen", "--max-order", "3"),
    ("union",),
    ("moments",),
    ("moments", "--m", "2"),
    ("graph",),
    ("bounds",),
    ("bounds", "--m", "2", "--with-q"),
    ("bounds", "--target", "atleast", "--r", "2"),
    ("bounds", "--target", "exactly", "--r", "1"),
    ("bounds", "--with-q", "--target", "exactly", "--r", "2"),
    ("bounds", "--method", "boolean", "--m", "2"),
    ("bounds", "--method", "boolean", "--m", "3"),
    ("bounds", "--method", "boolean", "--m", "2", "--target", "atleast", "--r", "2"),
    ("bounds", "--method", "boolean", "--m", "3", "--target", "atleast", "--r", "3"),
    ("bounds", "--method", "boolean", "--m", "2", "--target", "exactly", "--r", "1"),
    ("bounds", "--method", "boolean", "--m", "3", "--target", "exactly", "--r", "2"),
    ("bounds", "--method", "hunter-worsley"),
)
ORACLE_COMMANDS = (
    ("oracle", "--engine", "ie"),
    ("oracle", "--engine", "cells"),
    ("oracle", "--engine", "mc", "--samples", "20000", "--seed", "7"),
)
# Moments files with the --m besides the default and the r of their
# atleast/exactly targets.
MOMENTS = (("moments-n20-m16", "16", "5"), ("moments-n60-m3", "2", "15"))
SCREEN_EDGES = "tests/golden/screen-edges.json"
SCREEN_EDGE_EVENTS = 9
# The pair mask decides these on the edge cases too.
SCREEN_EDGE_COMMANDS = (
    ("graph",),
    ("union",),
    ("moments",),
    ("bounds", "--method", "hunter-worsley"),
)
PIECEWISE = "tests/golden/piecewise-d3.json"
PIECEWISE_COMMANDS = (
    ("union",),
    ("moments",),
    ("bounds", "--with-q", "--target", "atleast", "--r", "2"),
    ("bounds", "--method", "boolean", "--m", "3"),
)

# Files of 8, 44, 150 and 48 boxes, the last two enough that Monte Carlo sorts.
MC_FILES = (
    PIECEWISE,
    "tests/golden/dense-n44-d2.json",
    "tests/golden/sparse-n150-d2.json",
    "tests/golden/piecewise-sweep-d3.json",
)
MC_COMMAND = ("--engine", "mc", "--samples", "60000", "--seed", "1")
DENSE = "tests/golden/dense-n44-d2.json"
# The ledger's subcommands on the dense file, whose walk keeps 8,429 terms
# over 10 orders; its screen is large, so test_dense_screen_digest checks it.
DENSE_COMMANDS = (
    ("union",),
    ("moments",),
    ("moments", "--m", "3"),
    ("bounds", "--m", "3"),
    ("bounds", "--with-q", "--target", "atleast", "--r", "2"),
)


def moment_commands(m, r):
    """Every bounds target, with and without --with-q, at two moment orders."""
    targets = ((), ("--target", "atleast", "--r", r), ("--target", "exactly", "--r", r))
    return [
        ("bounds", *order, *q, *target)
        for order in ((), ("--m", m))
        for q in ((), ("--with-q",))
        for target in targets
    ]


def cases():
    """(name, argv) pairs; argv names the fixture relative to the repo root."""
    out = []
    for fixture in FIXTURES:
        path = f"fixtures/{fixture}.json"
        for fmt in FORMATS:
            for command, *rest in GEOMETRY_COMMANDS:
                for mode in MODES:
                    out.append([command, path, *rest, "--mode", mode, "--format", fmt])
            for command, *rest in ORACLE_COMMANDS:
                out.append([command, path, *rest, "--format", fmt])
    for order in (None, *range(SCREEN_EDGE_EVENTS + 2)):
        rest = () if order is None else ("--max-order", str(order))
        for fmt in FORMATS:
            for mode in MODES:
                out.append(["screen", SCREEN_EDGES, *rest, "--mode", mode, "--format", fmt])
    for fmt in FORMATS:
        for command, *rest in SCREEN_EDGE_COMMANDS:
            for mode in MODES:
                out.append([command, SCREEN_EDGES, *rest, "--mode", mode, "--format", fmt])
        out.append(["oracle", SCREEN_EDGES, "--engine", "cells", "--format", fmt])
    for fmt in FORMATS:
        for command, *rest in PIECEWISE_COMMANDS:
            for mode in MODES:
                out.append([command, PIECEWISE, *rest, "--mode", mode, "--format", fmt])
        out.append(["oracle", PIECEWISE, "--engine", "cells", "--format", fmt])
    for path in MC_FILES:
        for fmt in FORMATS:
            out.append(["oracle", path, *MC_COMMAND, "--format", fmt])
    for fmt in FORMATS:
        for command, *rest in DENSE_COMMANDS:
            out.append([command, DENSE, *rest, "--format", fmt])
    for name, m, r in MOMENTS:
        path = f"tests/golden/{name}.json"
        for fmt in FORMATS:
            for command, *rest in moment_commands(m, r):
                out.append([command, path, *rest, "--format", fmt])
    return [(" ".join(argv), argv) for argv in out]


def invoke(argv):
    """Exit code and stdout of one CLI call with paths taken from the repo root."""
    argv = [str(ROOT / arg) if arg.endswith(".json") else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, stdout.getvalue()


@functools.cache
def _recorded():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_cli_stdout_matches_golden(name, argv):
    expected = _recorded()[name]
    code, stdout = invoke(argv)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def test_golden_covers_every_case():
    assert sorted(_recorded()) == sorted(name for name, _ in cases())


def sparse_boxes(seed=150, n_events=150):
    """A 150-box d = 2 problem in [0, 100]^2 where under 2 % of pairs overlap.

    Drawn with the stdlib generator, whose stream is fixed across Python
    versions.  Every other box has corners on the 0.5 grid, so faces touch
    and coordinates tie.
    """
    rng = random.Random(seed)
    boxes = []
    for i in range(n_events):
        lower, upper = [], []
        for _ in range(2):
            side = rng.uniform(1.0, 12.0)
            start = rng.uniform(0.0, 100.0 - side)
            if i % 2:
                start, side = round(start * 2) / 2, round(side * 2) / 2
            lower.append(start)
            upper.append(start + side)
        boxes.append({"id": f"A{i + 1}", "lower": lower, "upper": upper})
    return {
        "dimension": 2,
        "measure": {"type": "uniform", "lower": [0, 0], "upper": [100, 100]},
        "boxes": boxes,
    }


# sha256 of the screen output on sparse_boxes(), recorded before the
# column renderer replaced the per-row one (the JSON is about 3 MB).
SPARSE_SCREEN_SHA256 = {
    "json": "221289c6693d45096a3d38e8b700170158cca95aeb72837b094a1048c4bd5c04",
    "table": "3cf674f18cc88df558541f1c9d09fb61fb70ffa4fe4f4198aba1c377659bd65d",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_sparse_screen_digest(tmp_path, fmt):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(sparse_boxes()), encoding="utf-8")
    code, stdout = invoke(["screen", str(path), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == SPARSE_SCREEN_SHA256[fmt]


# sha256 of screen --max-order 3 on the dense golden (946 pair rows and
# every nonempty triple; the JSON is about 500 KB), recorded before the
# walk built its ledger columns on first read.
DENSE_SCREEN_SHA256 = {
    "json": "d64fb1c6496379af9c0a464beae6586deac1ac85022b41602fdd780cefdbf744",
    "table": "21c7c07be890e2f7ecf67532ae038d9a42ad0627e7e29032c4d74515d85b71b2",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_dense_screen_digest(fmt):
    code, stdout = invoke(["screen", DENSE, "--max-order", "3", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == DENSE_SCREEN_SHA256[fmt]


@pytest.mark.parametrize("block_rows", (1, 3))
def test_screen_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block_rows):
    # Blocks of 1 and 3 rows put block edges mid-order and on order changes.
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(sparse_boxes()), encoding="utf-8")
    expected = {}
    for rest in ((), ("--max-order", "2"), ("--max-order", "3")):
        for fmt in FORMATS:
            for mode in MODES:
                argv = ["screen", SCREEN_EDGES, *rest, "--mode", mode, "--format", fmt]
                recorded = _recorded()[" ".join(argv)]
                expected[tuple(argv)] = (recorded["exit"], recorded["stdout"])
            argv = ("screen", str(path), *rest, "--format", fmt)
            expected[argv] = invoke(argv)
    monkeypatch.setattr(cli, "_SCREEN_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "_TABLE_BLOCK_ROWS", block_rows)
    for argv, output in expected.items():
        assert invoke(argv) == output, argv


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    recorded = {}
    for name, argv in cases():
        code, stdout = invoke(argv)
        recorded[name] = {"exit": code, "stdout": stdout}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
