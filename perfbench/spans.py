"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every ``boxbounds``
module namespace that binds it (``cli.build_graph`` and
``screening.build_graph`` alike) with a wrapper that records a span: name,
start, end, parent span and job id.  Spans stay in memory until
``write``.  Two leaf calls that run tens of thousands of times per job,
``meet_vertices`` and ``ProductMeasure.rect_probability``, get counters
(and a timer for the latter) instead of spans.

``per_layer_metrics`` turns the spans into the per-job figures listed in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

SPANNED = {
    "cli": ("load_document", "parse_geometry", "parse_moments"),
    "screening": (
        "build_graph",
        "pair_verdicts",
        "enumerate_tuples",
        "screened_union",
        "binomial_moments",
    ),
    "bounding": (
        "solve_lp",
        "union_bounds",
        "atleast_r_bounds",
        "exactly_r_bounds",
        "q_atleast_bounds",
        "q_exactly_bounds",
        "boolean_lp_bounds",
        "boolean_system_from_boxes",
        "pairwise_probabilities",
        "hunter_worsley_upper",
    ),
    "oracle": ("monte_carlo_union", "exact_count_distribution"),
}
PARSE = {"load_document", "parse_geometry", "parse_moments"}
BOUND_FUNCTIONS = {
    "union_bounds",
    "atleast_r_bounds",
    "exactly_r_bounds",
    "q_atleast_bounds",
    "q_exactly_bounds",
    "boolean_lp_bounds",
}
WALKS = {
    "build_graph",
    "enumerate_tuples",
    "pair_verdicts",
    "pairwise_probabilities",
    "boolean_system_from_boxes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    job: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self.meet_calls = 0
        self.rect_calls = 0
        self.rect_seconds = 0.0
        self.job_counters: list[tuple[int, int, float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self.stack[-1] if self.stack else -1, job=self.job)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def begin_job(self) -> Span:
        self.job = len(self.job_counters)
        self.meet_calls = self.rect_calls = 0
        self.rect_seconds = 0.0
        return self.open("job")

    def end_job(self, span: Span) -> None:
        self.close(span)
        self.job_counters.append((self.meet_calls, self.rect_calls, self.rect_seconds))

    def _spanned(self, name, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            meet_before = tracer.meet_calls
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            _annotate(span, result, args, tracer.meet_calls - meet_before)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function in every boxbounds module that binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("boxbounds")]
        for module_name, names in SPANNED.items():
            home = sys.modules[f"boxbounds.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._spanned(name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patch(module, name, wrapper)

        geometry = sys.modules["boxbounds.geometry"]
        meet = geometry.meet_vertices
        tracer = self

        @functools.wraps(meet)
        def counted_meet(boxes):
            tracer.meet_calls += 1
            return meet(boxes)

        for module in modules:
            if getattr(module, "meet_vertices", None) is meet:
                self._patch(module, "meet_vertices", counted_meet)

        measure_cls = sys.modules["boxbounds.measure"].ProductMeasure
        rect = measure_cls.rect_probability
        clock = time.perf_counter

        @functools.wraps(rect)
        def timed_rect(self, lower, upper):
            tracer.rect_calls += 1
            start = clock()
            try:
                return rect(self, lower, upper)
            finally:
                tracer.rect_seconds += clock() - start

        self._patch(measure_cls, "rect_probability", timed_rect)
        self._patch(measure_cls, "sample", self._spanned("sample", measure_cls.sample))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "job": span.job,
                    **span.attrs,
                }
                handle.write(json.dumps(record) + "\n")


def _annotate(span: Span, result, args, meet_calls: int) -> None:
    """Counts read off a traced call's arguments and result."""
    if span.name == "build_graph":
        span.attrs["edges"] = result.n_edges
        span.attrs["pairs_tested"] = meet_calls
    elif span.name == "enumerate_tuples":
        span.attrs["terms"] = result.term_count()
    elif span.name == "solve_lp":
        problem = args[0]
        span.attrs["rows"] = problem.n_rows
        span.attrs["cols"] = problem.n_vars
    elif span.name == "monte_carlo_union":
        span.attrs["samples"] = args[2]


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-job figures from the spans; ratios carry their base in the name."""
    spans = tracer.spans
    jobs = max(1, len(tracer.job_counters))
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    seconds: dict[str, float] = defaultdict(float)
    self_seconds: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    attrs: Counter = Counter()
    for span, children in zip(spans, child_seconds):
        seconds[span.name] += span.seconds
        self_seconds[span.name] += span.seconds - children
        counts[span.name] += 1
        attrs.update(span.attrs)
        if span.name == "solve_lp":
            rows, cols = span.attrs["rows"], span.attrs["cols"]
            attrs["tableau_cells"] += (rows + 1) * (rows + cols + 1)

    def ms(total_seconds: float) -> float:
        return 1000.0 * total_seconds / jobs

    meet, rect, rect_seconds = (sum(column) for column in zip(*tracer.job_counters))
    pairs, terms = attrs["pairs_tested"], attrs["terms"]
    mc_seconds = seconds["monte_carlo_union"]
    return {
        "cli.parse_ms": ms(sum(seconds[name] for name in PARSE)),
        "cli.self_ms": ms(self_seconds["job"]),
        "geometry.meet_calls": meet / jobs,
        "screening.graph_ms": ms(seconds["build_graph"]),
        "screening.pairs_tested": pairs / jobs,
        "screening.edge_yield": attrs["edges"] / pairs if pairs else 0.0,
        "screening.pair_verdicts_ms": ms(seconds["pair_verdicts"]),
        "screening.enumerate_ms": ms(seconds["enumerate_tuples"]),
        "screening.terms": terms / jobs,
        "screening.us_per_term": 1e6 * seconds["enumerate_tuples"] / terms if terms else 0.0,
        "screening.walks_per_job": sum(counts[name] for name in WALKS) / jobs,
        "measure.rect_calls": rect / jobs,
        "measure.rect_ms": ms(rect_seconds),
        "measure.sample_ms": ms(seconds["sample"]),
        "bounding.lp_solves": counts["solve_lp"] / jobs,
        "bounding.lp_rows": attrs["rows"] / jobs,
        "bounding.lp_cols": attrs["cols"] / jobs,
        "bounding.tableau_cells": attrs["tableau_cells"] / jobs,
        "bounding.solve_ms": ms(seconds["solve_lp"]),
        "bounding.assembly_ms": ms(sum(self_seconds[name] for name in BOUND_FUNCTIONS)),
        "bounding.system_ms": ms(seconds["boolean_system_from_boxes"]),
        "bounding.pairwise_ms": ms(seconds["pairwise_probabilities"]),
        "bounding.hw_ms": ms(seconds["hunter_worsley_upper"]),
        "oracle.mc_ms": ms(mc_seconds),
        "oracle.mc_samples_per_s": attrs["samples"] / mc_seconds if mc_seconds else 0.0,
        "oracle.cells_ms": ms(seconds["exact_count_distribution"]),
    }


PER_LAYER_UNITS = {
    "cli.parse_ms": "ms",
    "cli.self_ms": "ms",
    "geometry.meet_calls": "count",
    "screening.graph_ms": "ms",
    "screening.pairs_tested": "count",
    "screening.edge_yield": "ratio",
    "screening.pair_verdicts_ms": "ms",
    "screening.enumerate_ms": "ms",
    "screening.terms": "count",
    "screening.us_per_term": "us",
    "screening.walks_per_job": "count",
    "measure.rect_calls": "count",
    "measure.rect_ms": "ms",
    "measure.sample_ms": "ms",
    "bounding.lp_solves": "count",
    "bounding.lp_rows": "count",
    "bounding.lp_cols": "count",
    "bounding.tableau_cells": "count",
    "bounding.solve_ms": "ms",
    "bounding.assembly_ms": "ms",
    "bounding.system_ms": "ms",
    "bounding.pairwise_ms": "ms",
    "bounding.hw_ms": "ms",
    "oracle.mc_ms": "ms",
    "oracle.mc_samples_per_s": "1/s",
    "oracle.cells_ms": "ms",
    "trace.overhead_pct": "%",
}


def breakdown(tracer: Tracer, kinds: list[str]) -> dict[str, dict[str, float]]:
    """Per job kind: job count, mean job ms and mean inclusive ms per span name."""
    totals: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        row = totals.setdefault(kinds[span.job], {"jobs": 0})
        if span.name == "job":
            row["jobs"] += 1
        key = f"{span.name}_ms"
        row[key] = row.get(key, 0.0) + 1000.0 * span.seconds
    return {
        kind: {key: value if key == "jobs" else value / row["jobs"] for key, value in row.items()}
        for kind, row in totals.items()
    }
