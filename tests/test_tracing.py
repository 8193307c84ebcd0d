"""The benchmark's tracer, installed over the package, changes no output.

``perfbench/spans.py`` wraps the public functions it traces by name; a
renamed or deleted one makes ``Tracer.install`` raise.  Every subcommand
runs on both fixtures untraced and traced, and the traced stdout must equal
the untraced one.  After ``uninstall`` every patched name is the original
object again.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from boxbounds import cli

ROOT = Path(__file__).parent.parent
COMMANDS = (
    ("screen",),
    ("union",),
    ("moments",),
    ("graph",),
    ("oracle",),
    ("oracle", "--engine", "cells"),
    ("oracle", "--engine", "mc", "--samples", "2000"),
    ("bounds",),
    ("bounds", "--with-q"),
    ("bounds", "--method", "boolean", "--m", "2"),
    ("bounds", "--method", "hunter-worsley"),
)


def _load_spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def _bound_names(spans):
    """Every (owner, name) the tracer may patch, with its current object."""
    package = [m for name, m in sys.modules.items() if name.startswith("boxbounds")]
    names = {name for names in spans.SPANNED.values() for name in names} | {"meet_vertices"}
    bound = {
        (module.__name__, name): getattr(module, name)
        for module in package
        for name in names
        if hasattr(module, name)
    }
    measure = sys.modules["boxbounds.measure"].ProductMeasure
    for name in ("rect_probability", "sample"):
        bound[("ProductMeasure", name)] = getattr(measure, name)
    return bound


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("fixture", ["example1", "example2"])
def test_traced_runs_print_what_untraced_runs_print(fixture):
    spans = _load_spans()
    path = str(ROOT / "fixtures" / f"{fixture}.json")
    jobs = [(command, *rest, path, "--format", fmt)
            for command, *rest in COMMANDS for fmt in ("table", "json")]
    untraced = [_stdout(argv) for argv in jobs]
    assert all(code == 0 for code, _ in untraced)

    before = _bound_names(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = []
        for argv in jobs:
            span = tracer.begin_job()
            traced.append(_stdout(argv))
            tracer.end_job(span)
        patched = {key for key, value in _bound_names(spans).items() if value is not before[key]}
    finally:
        tracer.uninstall()

    assert traced == untraced
    assert all(value is before[key] for key, value in _bound_names(spans).items())
    # cli binds the parse and walk functions it calls, so both copies were wrapped
    assert {("boxbounds.cli", "build_graph"), ("boxbounds.screening", "build_graph"),
            ("boxbounds.cli", "enumerate_tuples"), ("ProductMeasure", "sample")} <= patched
    called = {span.name for span in tracer.spans}
    assert {"job", "parse_geometry", "build_graph", "enumerate_tuples", "screened_union",
            "binomial_moments", "solve_lp", "boolean_lp_bounds", "hunter_worsley_upper",
            "monte_carlo_union", "exact_count_distribution"} <= called
    metrics = spans.per_layer_metrics(tracer)
    assert metrics["screening.graph_ms"] > 0 and metrics["bounding.lp_solves"] > 0
