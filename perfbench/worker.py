"""One workload process: set up, run the closed loop, gate, report.

Started by ``run.py`` with ``src`` on PYTHONPATH and BLAS pools held at
one thread.  Prints ``READY`` once set-up is done (the parent times
set-up up to that line) and, unless ``--setup-only``, one JSON line with
the results when it ends.

One client runs a closed loop: each job is one in-process
``boxbounds.cli.run(argv)`` call with stdout and stderr captured, and the
next job starts when the previous one returns.  Each job runs under a
wall budget (``signal.setitimer``); an overrun fails that job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import workloads
from gate import GateError, check, truth_of
from spans import Tracer, breakdown, per_layer_metrics

JOB_BUDGET_S = 30.0
MIN_JOBS = 100  # so that ten timed jobs lie beyond the 90th percentile
SPILL_BYTES = 1 << 16  # outputs larger than this wait for the gate on disk


class JobOverrun(Exception):
    """A job ran past its wall budget."""


def _overrun(signum, frame):
    raise JobOverrun("job exceeded its wall budget")


@dataclass
class Record:
    """One timed job: which schedule entry, how long, and what it returned."""

    index: int
    seconds: float
    returncode: int | None
    error: str = ""


class Loop:
    """Runs schedule entries and keeps what the gate needs of each output.

    The first output of each schedule entry is kept (in memory, or on disk
    when large, so that stored outputs do not count in peak memory); a
    repeat of the entry must reproduce it byte for byte.
    """

    def __init__(self, run, schedule, spill_dir, budget=JOB_BUDGET_S):
        self.run = run
        self.budget = budget
        self.schedule = schedule
        self.spill_dir = spill_dir
        os.makedirs(spill_dir, exist_ok=True)
        signal.signal(signal.SIGALRM, _overrun)
        self.outputs: dict[int, tuple[bytes, str, bool]] = {}  # index -> (digest, text or path, spilled)
        self.records: list[Record] = []

    def job(self, index: int, tracer=None) -> Record:
        job = self.schedule[index % len(self.schedule)]
        out, err = io.StringIO(), io.StringIO()
        error = ""
        returncode = None
        span = tracer.begin_job() if tracer else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.budget)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                returncode = self.run(list(job.argv))
        except JobOverrun as exc:
            error = str(exc)
        except Exception as exc:  # a job's crash is a failed job, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            if span:
                tracer.end_job(span)
        if returncode not in (0, None):
            error = err.getvalue().strip() or f"exit code {returncode}"
        record = Record(index % len(self.schedule), seconds, returncode, error)
        self._keep(record, out.getvalue())
        self.records.append(record)
        return record

    def _keep(self, record: Record, text: str) -> None:
        data = text.encode()
        digest = hashlib.blake2b(data, digest_size=16).digest()
        first = self.outputs.get(record.index)
        if first is None:
            if len(data) > SPILL_BYTES:
                path = os.path.join(self.spill_dir, f"out{record.index:05d}.txt")
                with open(path, "wb") as handle:
                    handle.write(data)
                self.outputs[record.index] = (digest, path, True)
            else:
                self.outputs[record.index] = (digest, text, False)
        elif first[0] != digest and not record.error:
            record.error = "output differs from an earlier run of the same job"

    def output(self, index: int) -> str:
        _, kept, spilled = self.outputs[index]
        if spilled:
            with open(kept, encoding="utf-8") as handle:
                return handle.read()
        return kept

    def timed(self, seconds: float, round_jobs: int, min_jobs: int = 0) -> float:
        """Run schedule entries in order, whole rounds, until ``seconds``
        pass and at least ``min_jobs`` have run."""
        index = 0
        start = time.perf_counter()
        while index % round_jobs or index < min_jobs or time.perf_counter() - start < seconds:
            self.job(index)
            index += 1
        return time.perf_counter() - start


def check_outputs(loop: Loop) -> list[Record]:
    """Check every kept output; return the records that failed."""
    truths = {}
    verdicts = {}
    first = {}
    for record in loop.records:
        first.setdefault(record.index, record)
    for index, record in first.items():
        job = loop.schedule[index]
        problem = job.problem
        if problem.name not in truths:
            truths[problem.name] = truth_of(problem)
        try:
            check(job, record.returncode, loop.output(index), truths[problem.name])
            verdicts[index] = ""
        except GateError as exc:
            verdicts[index] = str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts[index] = f"malformed output ({type(exc).__name__}: {exc})"
    failed = []
    for record in loop.records:
        if not record.error and verdicts[record.index]:
            record.error = verdicts[record.index]
        if record.error:
            failed.append(record)
    return failed


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def environment(seed: int) -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from boxbounds import cli

    schedule, round_jobs = workloads.generate(args.workload, args.seed, os.path.join(args.workdir, "inputs"))
    warm = workloads.warmup_jobs(schedule, os.path.join(args.workdir, "warm"))
    warm_loop = Loop(cli.run, warm, os.path.join(args.workdir, "warm-outputs"))
    for index in range(len(warm)):
        warm_loop.job(index)  # a failing job kind fails again, and counts, when timed
    print("READY", flush=True)
    if args.setup_only:
        return 0

    loop = Loop(cli.run, schedule, os.path.join(args.workdir, "outputs"))
    result = {"environment": environment(args.seed)}
    if args.trace:
        # Untraced half, then the same jobs again with spans installed.
        loop.timed(args.seconds / 2, round_jobs)
        done = len(loop.records)
        tracer = Tracer()
        tracer.install()
        try:
            traced_seconds = 0.0
            for index in range(done):
                traced_seconds += loop.job(index, tracer).seconds
        finally:
            tracer.uninstall()
        plain_job_seconds = sum(r.seconds for r in loop.records[:done])
        metrics = per_layer_metrics(tracer)
        metrics["trace.overhead_pct"] = 100.0 * (traced_seconds / plain_job_seconds - 1.0)
        tracer.write(args.spans)
        kinds = [loop.schedule[r.index].kind for r in loop.records[done:]]
        result["breakdown"] = breakdown(tracer, kinds)
    else:
        loop_seconds = loop.timed(args.seconds, round_jobs, MIN_JOBS)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latencies = [r.seconds * 1000.0 for r in loop.records]
        metrics = {
            "job_ms.p50": statistics.median(latencies),
            "job_ms.p90": percentile(latencies, 0.9),
            "peak_rss_mb": peak_kb / 1024.0,
        }
    failed = check_outputs(loop)
    attempted = len(loop.records)
    if not args.trace:
        metrics["jobs_per_s"] = (attempted - len(failed)) / loop_seconds
    result.update(
        attempted=attempted,
        failed=len(failed),
        failures=[f"{loop.schedule[r.index].label}: {r.error}" for r in failed[:5]],
        metrics=metrics,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
