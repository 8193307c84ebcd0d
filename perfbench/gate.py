"""Correctness gate: checks one job's output against an independent truth.

The truth for a geometry file is its exact occurrence-count distribution,
computed here by a cell decomposition in numpy that shares no code with
the package.  Boxes in different connected components of the overlap
graph meet only in null sets, so the distribution is assembled from one
small decomposition per component; a dense file is one component.  For a
moments file the truth is the distribution the file was generated from.

``check`` raises ``GateError`` on the first disagreement.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb

import numpy as np

from workloads import Job, Problem, clique_count, pair_overlaps

Q_TOL = 1e-12  # exact union and moments against the cell decomposition
BOUND_TOL = 1e-9  # bound pairs must sandwich the truth within this
MC_SIGMAS = 5.0


class GateError(Exception):
    """A job output disagrees with the reference."""


@dataclass
class Truth:
    """What the gate knows about one problem file."""

    p: np.ndarray  # P(count = c) for c = 0..N
    ids: list[str] | None = None
    adj: np.ndarray | None = None  # positive-measure overlap matrix
    adj_closed: np.ndarray | None = None  # overlap as closed sets

    def q(self) -> float:
        return float(self.p[1:].sum())

    def s(self, k: int) -> float:
        return float(sum(comb(c, k) * v for c, v in enumerate(self.p)))

    def at_least(self, r: int) -> float:
        return float(self.p[r:].sum())

    def graph(self, argv) -> np.ndarray:
        return self.adj_closed if _option(argv, "--mode") == "closed" else self.adj

    def edges(self, argv) -> set[tuple[str, str]]:
        i, j = np.nonzero(np.triu(self.graph(argv)))
        return {(self.ids[a], self.ids[b]) for a, b in zip(i.tolist(), j.tolist())}


def _cdf(marginal: dict, x: np.ndarray) -> np.ndarray:
    if marginal["type"] == "uniform":
        a, b = marginal["a"], marginal["b"]
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    return np.interp(x, marginal["knots"], marginal["values"])


def _marginals(doc: dict) -> list[dict]:
    measure = doc["measure"]
    if measure["type"] == "uniform":
        return [
            {"type": "uniform", "a": a, "b": b}
            for a, b in zip(measure["lower"], measure["upper"])
        ]
    return measure["marginals"]


def _components(adj: np.ndarray) -> list[list[int]]:
    seen = np.zeros(len(adj), dtype=bool)
    parts = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        part, stack = [], [start]
        while stack:
            v = stack.pop()
            part.append(v)
            for w in np.nonzero(adj[v] & ~seen)[0].tolist():
                seen[w] = True
                stack.append(w)
        parts.append(sorted(part))
    return parts


def _component_counts(lower, upper, marginals) -> np.ndarray:
    """Mass of each coverage count 0..k over the cells of k boxes."""
    k, dim = lower.shape
    probs, members = [], []
    for axis in range(dim):
        cuts = np.unique(np.concatenate([lower[:, axis], upper[:, axis]]))
        lo, hi = cuts[:-1], cuts[1:]
        cdf = _cdf(marginals[axis], cuts)
        probs.append(np.maximum(cdf[1:] - cdf[:-1], 0.0))
        members.append((lower[None, :, axis] <= lo[:, None]) & (hi[:, None] <= upper[None, :, axis]))
    out = np.zeros(k + 1)
    # Slice along the first axis so the cell array stays small.
    for cell0 in range(len(probs[0])):
        cover = members[0][cell0]
        weight = np.array(probs[0][cell0])
        for axis in range(1, dim):
            cover = cover[..., None, :] & members[axis]
            weight = weight[..., None] * probs[axis]
        counts = cover.sum(axis=-1)
        out += np.bincount(counts.ravel(), weights=weight.ravel(), minlength=k + 1)
    return out


def truth_of(problem: Problem) -> Truth:
    if not problem.is_geometry:
        return Truth(np.array(problem.truth_p))
    doc = problem.doc
    lower = np.array([box["lower"] for box in doc["boxes"]], dtype=float)
    upper = np.array([box["upper"] for box in doc["boxes"]], dtype=float)
    marginals = _marginals(doc)
    adj = pair_overlaps(lower, upper)
    p = np.zeros(len(lower) + 1)
    for part in _components(adj):
        counts = _component_counts(lower[part], upper[part], marginals)
        p[1 : len(part) + 1] += counts[1:]
    p[0] = 1.0 - p[1:].sum()
    ids = [box["id"] for box in doc["boxes"]]
    return Truth(p, ids, adj, pair_overlaps(lower, upper, closed=True))


# ---------------------------------------------------------------------------
# Checks


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise GateError(f"{name} = {got!r}, reference {want!r} (tolerance {tol:g})")


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _sandwich(doc: dict, truth: float) -> None:
    lower, upper = doc["lower"], doc["upper"]
    if not (lower - BOUND_TOL <= truth <= upper + BOUND_TOL):
        raise GateError(f"bounds [{lower!r}, {upper!r}] miss the truth {truth!r}")


def _bound_truth(argv, truth: Truth) -> float:
    target = _option(argv, "--target", "union")
    if target == "union":
        return truth.q()
    r = int(_option(argv, "--r"))
    return truth.at_least(r) if target == "atleast" else float(truth.p[r])


def _check_screen_table(text: str, argv, truth: Truth) -> None:
    lines = text.splitlines()
    n = len(truth.ids)
    rows = [line for line in lines[1:] if line.endswith(("  yes", "  no good"))]
    if len(rows) != n * (n - 1) // 2:
        raise GateError(f"table lists {len(rows)} pairs, expected {n * (n - 1) // 2}")
    yes = sum(row.endswith("  yes") for row in rows)
    if yes != len(truth.edges(argv)):
        raise GateError(f"table marks {yes} pairs nonempty, reference {len(truth.edges(argv))}")
    match = re.fullmatch(r"retained (\d+) of (\d+) inclusion-exclusion terms", lines[-1])
    if not match or int(match[1]) != clique_count(truth.graph(argv), 1 << 62):
        raise GateError(f"bad summary line {lines[-1]!r}")


def _check_screen_json(doc: dict, argv, truth: Truth) -> None:
    n = len(truth.ids)
    rows = doc["orders"].get("2", [])
    if len(rows) != n * (n - 1) // 2:
        raise GateError(f"screen lists {len(rows)} pairs, expected {n * (n - 1) // 2}")
    edges = {tuple(row["ids"]) for row in rows if row["nonempty"]}
    if edges != truth.edges(argv):
        raise GateError("screen pair verdicts differ from the reference pair test")
    adj = truth.graph(argv)
    if int(_option(argv, "--max-order", n)) >= 3:
        index = {name: i for i, name in enumerate(truth.ids)}
        triples = {tuple(index[name] for name in row["ids"]) for row in doc["orders"].get("3", [])}
        # Helly: a triple of boxes meets exactly when each pair does.
        want = {
            (i, j, k)
            for i, j in zip(*np.nonzero(np.triu(adj)))
            for k in np.nonzero(adj[i] & adj[j])[0]
            if k > j
        }
        if triples != {tuple(int(v) for v in t) for t in want}:
            raise GateError("screen triples differ from the triangles of the reference graph")
    if doc["terms_used"] != clique_count(adj, 1 << 62):
        raise GateError(f"terms_used {doc['terms_used']} differs from the reference count")


def check(job: Job, returncode: int | None, text: str, truth: Truth) -> None:
    """Raise GateError unless ``text`` is a correct output for ``job``."""
    if returncode != 0:
        raise GateError(f"exit code {returncode}")
    argv = job.argv
    command = argv[0]
    if _option(argv, "--format") == "table":
        if command != "screen":
            raise GateError("no table check for this command")
        _check_screen_table(text, argv, truth)
        return
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GateError(f"output is not JSON: {exc}") from None
    if doc.get("version") != 1 or doc.get("command") != command:
        raise GateError("missing version or command field")
    if command == "union":
        _close("q", doc["q"], truth.q(), Q_TOL)
        if doc["terms_full"] != 2 ** len(truth.ids) - 1:
            raise GateError(f"terms_full {doc['terms_full']} is not 2^N - 1")
    elif command == "moments":
        _close("q", doc["q"], truth.q(), Q_TOL)
        m = int(_option(argv, "--m", len(truth.ids)))
        if len(doc["s"]) != m:
            raise GateError(f"got {len(doc['s'])} moments, asked for {m}")
        for k, value in enumerate(doc["s"], start=1):
            want = truth.s(k)
            _close(f"S_{k}", value, want, Q_TOL * max(1.0, abs(want)))
    elif command == "bounds" and _option(argv, "--method") == "hunter-worsley":
        if not truth.q() - BOUND_TOL <= doc["upper"] <= truth.s(1) + BOUND_TOL:
            raise GateError(f"Hunter-Worsley upper {doc['upper']!r} outside [q, S_1]")
    elif command == "bounds":
        _sandwich(doc, _bound_truth(argv, truth))
    elif command == "graph":
        got = set(re.findall(r'^  "([^"]+)" -- "([^"]+)";$', doc["dot"], flags=re.M))
        if got != truth.edges(argv):
            raise GateError("graph edges differ from the reference pair test")
    elif command == "screen":
        _check_screen_json(doc, argv, truth)
    elif command == "oracle" and doc["engine"] == "cells":
        if len(doc["p"]) != len(truth.p):
            raise GateError("cells distribution has the wrong length")
        for c, (got, want) in enumerate(zip(doc["p"], truth.p)):
            _close(f"p_{c}", got, float(want), Q_TOL)
    elif command == "oracle" and doc["engine"] == "mc":
        spread = max(doc["standard_error"], 1.0 / doc["samples"])
        _close("estimate", doc["estimate"], truth.q(), MC_SIGMAS * spread)
    else:
        raise GateError(f"no check for {job.label}")
