"""Seeded problem files and job schedules for the three workloads.

Every file is drawn from ``numpy.random.default_rng([seed, index])``, so one
seed always yields the same files.  Sizes are fixed per workload and only
positions vary with the seed: the cost of a job then depends on the code
being measured, not on how large the seed happened to make the inputs.

The schedule is a sequence of rounds.  Every round holds the same job
kinds in the same proportions, and the timed loop stops only at the end
of a round, so the latency percentiles always rank the same mix of jobs.
The pools are sized so that the current code does not run through them
within a run; faster code starts over from the first round.

Every ``sparse-screen`` and ``dense-ledger`` round starts with small probe
files that get Boolean atom-LP and cells-oracle jobs, and ``atom-lp``
geometry files also get a screen and a Monte Carlo job.  These keep every
per-layer time above zero on every workload, so a layer that a change
slows shows on every workload that touches it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import comb

import numpy as np

EXTENT = 100.0
FILE = "{file}"  # stands for the problem file's path in a job template
JSON = ("--format", "json")


@dataclass
class Problem:
    """One generated input file and what the gate needs to know about it."""

    name: str
    doc: dict
    truth_p: tuple[float, ...] | None = None  # generating distribution of a moments file
    path: str = ""

    @property
    def is_geometry(self) -> bool:
        return "boxes" in self.doc


@dataclass(frozen=True)
class Job:
    """One ``boxbounds.cli.run`` call on one problem file."""

    problem: Problem
    argv: tuple[str, ...]

    @property
    def template(self) -> tuple[str, ...]:
        return tuple(FILE if a == self.problem.path else a for a in self.argv)

    @property
    def kind(self) -> str:
        """The job template without the file and numbers, e.g. ``bounds --m # --format json``."""
        return " ".join("#" if a.isdigit() else a for a in self.template if a != FILE)

    @property
    def label(self) -> str:
        rest = " ".join(self.template[2:])
        return f"{self.argv[0]} {self.problem.name} {rest}"


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _uniform_measure(dim: int) -> dict:
    return {"type": "uniform", "lower": [0.0] * dim, "upper": [EXTENT] * dim}


def _piecewise_measure(rng: np.random.Generator, dim: int) -> dict:
    """Piecewise-linear CDFs on [0, EXTENT], four pieces of random mass each."""
    marginals = []
    for _ in range(dim):
        knots = [0.0, *sorted(rng.uniform(5.0, 95.0, size=3).round(3).tolist()), EXTENT]
        mass = rng.uniform(0.5, 1.5, size=4)
        values = [0.0, *np.cumsum(mass / mass.sum())[:-1].round(6).tolist(), 1.0]
        marginals.append({"type": "piecewise", "knots": knots, "values": values})
    return {"type": "marginals", "marginals": marginals}


def _random_boxes(rng, n, dim, side_lo, side_hi):
    """n boxes inside [0, EXTENT]^dim with side lengths in [side_lo, side_hi]."""
    side = rng.uniform(side_lo, side_hi, size=(n, dim))
    lower = rng.uniform(0.0, 1.0, size=(n, dim)) * (EXTENT - side)
    return lower.round(4), (lower + side).round(4)


def _geometry(name, lower, upper, measure) -> Problem:
    boxes = [
        {"id": f"A{i + 1}", "lower": lo.tolist(), "upper": hi.tolist()}
        for i, (lo, hi) in enumerate(zip(lower, upper))
    ]
    doc = {"dimension": int(lower.shape[1]), "measure": measure, "boxes": boxes}
    return Problem(name, doc)


def _small_geometry(name, rng, n, dim) -> Problem:
    lower, upper = _random_boxes(rng, n, dim, 25.0, 60.0)
    return _geometry(name, lower, upper, _uniform_measure(dim))


def pair_overlaps(lower: np.ndarray, upper: np.ndarray, closed: bool = False) -> np.ndarray:
    """Boolean N x N matrix: boxes i and j meet with positive measure
    (or, with ``closed``, as closed sets)."""
    lo = np.maximum(lower[:, None, :], lower[None, :, :])
    hi = np.minimum(upper[:, None, :], upper[None, :, :])
    adj = ((lo <= hi) if closed else (lo < hi)).all(axis=2)
    np.fill_diagonal(adj, False)
    return adj


def clique_count(adj: np.ndarray, limit: int) -> int:
    """Number of cliques (singletons included) of the graph ``adj``.

    For boxes these are the index subsets with positive-measure
    intersection, by the Helly property.  Bitset recursion that stops
    early once the count passes ``limit``.
    """
    n = len(adj)
    later = [sum(1 << int(j) for j in np.nonzero(adj[i, i + 1 :])[0] + i + 1) for i in range(n)]

    def extend(cands: int) -> int:
        total = 0
        while cands and total <= limit:
            low = cands & -cands
            cands ^= low
            total += 1 + extend(cands & later[low.bit_length() - 1])
        return total

    return extend((1 << n) - 1)


# ---------------------------------------------------------------------------
# Probe files: small overlapping boxes for the Boolean LP and cells engines

PROBE_JOBS = (
    ("bounds", FILE, "--method", "boolean", "--m", "2", *JSON),
    ("oracle", FILE, "--engine", "cells", *JSON),
)
PROBE_JOBS_WIDE = PROBE_JOBS + (
    ("bounds", FILE, "--method", "boolean", "--m", "2", "--target", "atleast", "--r", "2", *JSON),
    ("screen", FILE, *JSON),
)


def _probe(seed: int, index: int, templates=PROBE_JOBS):
    problem = _small_geometry(f"probe{index:03d}-d2-n7", _rng(seed, index), 7, 2)
    return problem, templates


# ---------------------------------------------------------------------------
# sparse-screen: a round is two probe files and one file per shape.
#
# Per round the four-job probes give 8 fast jobs, the pair-test jobs
# (union, moments, graph, bounds) 4 per shape, the middle jobs
# (Hunter-Worsley, table screen, Monte Carlo) 6 and the JSON screens 6.  So
# the median lands amid the pair-test jobs of the slower shape and the 90th
# percentile amid the JSON screens, not on an edge between kinds of job.

SPARSE_SHAPES = ((2, 150), (3, 130))  # (dimension, boxes)
SPARSE_PROBES = 2
SPARSE_YIELD = 0.01  # target share of pairs that overlap
SPARSE_JOBS = (
    ("union", FILE, *JSON),
    ("moments", FILE, "--m", "3", *JSON),
    ("graph", FILE, *JSON),
    ("bounds", FILE, "--m", "3", *JSON),
    ("bounds", FILE, "--method", "hunter-worsley", *JSON),
    ("screen", FILE, "--max-order", "2", "--format", "table"),
    ("oracle", FILE, "--engine", "mc", "--samples", "60000", "--seed", "1", *JSON),
    ("screen", FILE, "--max-order", "2", *JSON),
    ("screen", FILE, "--max-order", "3", *JSON),
    ("screen", FILE, *JSON),
)


def sparse_file(seed: int, index: int):
    position = index % (SPARSE_PROBES + len(SPARSE_SHAPES))
    if position < SPARSE_PROBES:
        return _probe(seed, index, PROBE_JOBS_WIDE)
    dim, n = SPARSE_SHAPES[position - SPARSE_PROBES]
    # Two random intervals of width w in [0, L] overlap with chance ~2w/L.
    side = EXTENT * SPARSE_YIELD ** (1.0 / dim) / 2.0
    lower, upper = _random_boxes(_rng(seed, index), n, dim, 0.5 * side, 1.5 * side)
    problem = _geometry(f"sparse{index:03d}-d{dim}-n{n}", lower, upper, _uniform_measure(dim))
    return problem, SPARSE_JOBS


# ---------------------------------------------------------------------------
# dense-ledger: a round is a probe file and one file per shape; the d=3
# file has piecewise-linear marginals.
#
# Per round the probe and Monte Carlo jobs give 8 fast jobs, the ledger
# jobs 6 per shape (the d=2 shape is the cheaper) and the two screens per
# file 4.  So the median lands amid the d=2 ledger jobs and the 90th
# percentile amid the screens.  The two screens differ only in emptiness
# mode, which changes nothing for these boxes, so they cost the same.

DENSE_SHAPES = ((2, 44, 25.5), (3, 40, 32.0))  # (dimension, boxes, starting side)
DENSE_TERMS = (6_000, 9_000)  # accepted range of retained terms per file
DENSE_JOBS = (
    ("union", FILE, *JSON),
    ("moments", FILE, *JSON),
    ("moments", FILE, "--m", "3", *JSON),
    ("bounds", FILE, "--m", "3", *JSON),
    ("bounds", FILE, "--with-q", "--target", "atleast", "--r", "2", *JSON),
    ("bounds", FILE, "--method", "hunter-worsley", *JSON),
    ("oracle", FILE, "--engine", "mc", "--samples", "20000", "--seed", "1", *JSON),
    ("oracle", FILE, "--engine", "mc", "--samples", "20000", "--seed", "2", *JSON),
    ("screen", FILE, "--max-order", "3", *JSON),
    ("screen", FILE, "--max-order", "3", "--mode", "closed", *JSON),
)


def dense_file(seed: int, index: int):
    position = index % (1 + len(DENSE_SHAPES))
    if position == 0:
        return _probe(seed, index, PROBE_JOBS_WIDE)
    dim, n, side = DENSE_SHAPES[position - 1]
    rng = _rng(seed, index)
    # The term count of a draw is heavy-tailed, so redraw, nudging the side
    # length, until it lands in range.
    while True:
        lower, upper = _random_boxes(rng, n, dim, 0.6 * side, 1.4 * side)
        terms = clique_count(pair_overlaps(lower, upper), DENSE_TERMS[1])
        if DENSE_TERMS[0] <= terms <= DENSE_TERMS[1]:
            break
        side *= 0.97 if terms > DENSE_TERMS[1] else 1.03
    piecewise = dim == 3
    measure = _piecewise_measure(rng, dim) if piecewise else _uniform_measure(dim)
    tag = "pw" if piecewise else "u"
    return _geometry(f"dense{index:03d}-d{dim}-n{n}-{tag}", lower, upper, measure), DENSE_JOBS


# ---------------------------------------------------------------------------
# atom-lp: a round is three geometry files, each followed by a moments
# file, with the shapes fixed per position so every round is alike.

ATOM_SHAPES = ((8, 2), (7, 3), (6, 3))  # (boxes, m)
# (events, m).  The moment LPs report consistent moments as infeasible at
# N >= 30 with m >= 12 or N >= 40 with m >= 8, so the shapes stay below.
MOMENT_SHAPES = ((20, 16), (40, 5), (60, 3))


def _atom_jobs(m: int):
    m = str(m)
    return (
        ("bounds", FILE, "--method", "boolean", "--m", m, *JSON),
        ("bounds", FILE, "--method", "boolean", "--m", m, "--target", "atleast", "--r", "2", *JSON),
        ("bounds", FILE, "--method", "boolean", "--m", m, "--target", "exactly", "--r", "1", *JSON),
        ("bounds", FILE, "--method", "hunter-worsley", *JSON),
        ("oracle", FILE, "--engine", "cells", *JSON),
        ("screen", FILE, "--max-order", "2", *JSON),
        ("oracle", FILE, "--engine", "mc", "--samples", "20000", "--seed", "1", *JSON),
    )


def _moment_jobs(n: int, m: int):
    m, r = str(m), str(max(2, n // 4))
    return (
        ("bounds", FILE, "--m", m, *JSON),
        ("bounds", FILE, "--m", m, "--target", "atleast", "--r", r, *JSON),
        ("bounds", FILE, "--m", m, "--target", "exactly", "--r", r, *JSON),
        ("bounds", FILE, "--m", m, "--with-q", *JSON),
        ("bounds", FILE, "--m", m, "--with-q", "--target", "atleast", "--r", r, *JSON),
    )


def atom_file(seed: int, index: int):
    rng = _rng(seed, index)
    position = (index % 6) // 2
    if index % 2 == 0:
        n, m = ATOM_SHAPES[position]
        dim = 2 + (index // 6) % 2
        return _small_geometry(f"atom{index:03d}-d{dim}-n{n}", rng, n, dim), _atom_jobs(m)
    n, m = MOMENT_SHAPES[position]
    # A random count distribution: its binomial moments are known, and so
    # is the truth every bound pair must sandwich.
    p = rng.dirichlet(np.full(n + 1, 0.7))
    s = [float(sum(comb(i, k) * p[i] for i in range(n + 1))) for k in range(1, m + 1)]
    doc = {"n_events": n, "s": s, "q": float(p[1:].sum())}
    problem = Problem(f"moments{index:03d}-n{n}-m{m}", doc, tuple(p.tolist()))
    return problem, _moment_jobs(n, m)


# name: (file maker, files per round, rounds in the pool).  Every round
# holds the same job kinds, and the timed loop stops only between rounds.
WORKLOADS = {
    "sparse-screen": (sparse_file, SPARSE_PROBES + len(SPARSE_SHAPES), 12),
    "dense-ledger": (dense_file, 1 + len(DENSE_SHAPES), 20),
    "atom-lp": (atom_file, 6, 120),
}


def write_problem(problem: Problem, directory: str) -> None:
    problem.path = os.path.join(directory, problem.name + ".json")
    with open(problem.path, "w", encoding="utf-8") as handle:
        json.dump(problem.doc, handle)


def jobs_for(problem: Problem, templates) -> list[Job]:
    return [Job(problem, tuple(problem.path if a == FILE else a for a in t)) for t in templates]


def generate(workload: str, seed: int, directory: str) -> tuple[list[Job], int]:
    """Write the workload's problem files; return the schedule and jobs per round."""
    make_file, per_round, rounds = WORKLOADS[workload]
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for index in range(per_round * rounds):
        problem, templates = make_file(seed, index)
        write_problem(problem, directory)
        jobs.extend(jobs_for(problem, templates))
    return jobs, len(jobs) // rounds


def warmup_jobs(schedule: list[Job], directory: str) -> list[Job]:
    """Each job template of the schedule once, on a six-box stand-in.

    Runs before timing so lazy imports and first-call set-up are paid in
    set-up time, not by the first timed jobs.
    """
    os.makedirs(directory, exist_ok=True)
    stand_ins: dict[int, Problem] = {}
    jobs = []
    seen = set()
    for job in schedule:
        if job.template in seen:
            continue
        seen.add(job.template)
        problem = job.problem
        if problem.is_geometry:
            dim = problem.doc["dimension"]
            if dim not in stand_ins:
                stand_ins[dim] = _small_geometry(f"warm-d{dim}", _rng(0, dim), 6, dim)
                write_problem(stand_ins[dim], directory)
            problem = stand_ins[dim]
        jobs.extend(jobs_for(problem, [job.template]))
    return jobs
