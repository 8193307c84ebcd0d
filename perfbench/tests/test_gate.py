"""Self-test of the benchmark's correctness gate and job budget.

Runs a handful of real jobs in process, then checks that the gate passes
them, that a corrupted output makes its job count as failed, and that a
job past its wall budget fails instead of hanging the loop.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gate as gate_module  # noqa: E402
import workloads  # noqa: E402
from boxbounds import cli  # noqa: E402
from boxbounds.geometry import Box  # noqa: E402
from boxbounds.measure import ProductMeasure  # noqa: E402
from boxbounds.oracle import exact_count_distribution  # noqa: E402
from worker import Loop, check_outputs  # noqa: E402


def _schedule(tmp_path):
    """Jobs on one atom-lp geometry file and one moments file."""
    jobs = []
    for index in (0, 1):
        problem, templates = workloads.atom_file(7, index)
        workloads.write_problem(problem, str(tmp_path))
        jobs.extend(workloads.jobs_for(problem, templates))
    return jobs


def _run_all(tmp_path):
    schedule = _schedule(tmp_path)
    loop = Loop(cli.run, schedule, str(tmp_path / "out"))
    for index in range(len(schedule)):
        loop.job(index)
    return loop


def test_clean_outputs_pass(tmp_path):
    loop = _run_all(tmp_path)
    assert check_outputs(loop) == []


def test_corrupted_outputs_count_as_failed(tmp_path):
    loop = _run_all(tmp_path)
    boolean = next(i for i, job in enumerate(loop.schedule) if "boolean" in job.argv)
    cells = next(i for i, job in enumerate(loop.schedule) if "cells" in job.argv)
    digest, text, spilled = loop.outputs[boolean]
    doc = json.loads(text)
    doc["upper"] = 0.0  # no longer above the true union probability
    loop.outputs[boolean] = (digest, json.dumps(doc), spilled)
    digest, text, spilled = loop.outputs[cells]
    loop.outputs[cells] = (digest, text[:-2], spilled)  # truncated JSON
    failed = check_outputs(loop)
    assert sorted(record.index for record in failed) == sorted([boolean, cells])
    assert "miss the truth" in failed[0].error or "miss the truth" in failed[1].error


def test_job_over_budget_fails(tmp_path):
    schedule = _schedule(tmp_path)[:1]
    loop = Loop(lambda argv: time.sleep(5), schedule, str(tmp_path / "out"), budget=0.05)
    start = time.perf_counter()
    record = loop.job(0)
    assert time.perf_counter() - start < 2.0
    assert "budget" in record.error
    assert check_outputs(loop) == [record]


def test_truth_matches_cells_oracle():
    problem, _ = workloads.atom_file(3, 2)
    doc = problem.doc
    boxes = [Box(b["id"], b["lower"], b["upper"]) for b in doc["boxes"]]
    measure = ProductMeasure.uniform(doc["measure"]["lower"], doc["measure"]["upper"])
    want = exact_count_distribution(boxes, measure).p
    got = gate_module.truth_of(problem).p
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make_file = workloads.WORKLOADS[workload][0]
    assert make_file(5, 1)[0].doc == make_file(5, 1)[0].doc
    assert make_file(5, 1)[0].doc != make_file(6, 1)[0].doc
