"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Runs one workload in a fresh worker process (``worker.py``) with ``src``
on PYTHONPATH and the BLAS thread pools held at one thread, and prints one
JSON object as the last line of stdout: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced pass.  See perfbench/README.md.

Set-up time is the median over several worker starts, each timed from
process start to the moment the worker is ready for its first timed job.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from spans import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sparse-screen", "dense-ledger", "atom-lp")
SETUP_SAMPLES = 5  # worker starts timed for setup_s, the main worker's included
DEADLINE_S = 170.0
UNITS = {
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("BOXBOUNDS_FORMAT", None)
    return env


def _run_worker(args, workdir: str, env: dict, deadline: float, setup_only: bool):
    """Run one worker to the end; return (seconds from start to READY, stdout after it).

    A watchdog kills the worker at the deadline, so a hang in set-up or in
    a job cannot keep the benchmark running.
    """
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        spans = os.path.join(os.getcwd(), ".perfbench", f"spans-{args.workload}-{args.seed}.jsonl")
        cmd += ["--spans", spans]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    return ready, rest


def measure(args, root: str, scratch: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _worker_env(root)
    setup = []
    if not args.trace:
        for k in range(SETUP_SAMPLES - 1):
            ready, _ = _run_worker(args, os.path.join(scratch, f"setup{k}"), env, deadline, True)
            setup.append(ready)
    ready, out = _run_worker(args, os.path.join(scratch, "run"), env, deadline, False)
    setup.append(ready)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "boxbounds", "cli.py")):
        print("error: run from the root of a boxbounds checkout (no src/boxbounds here)", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    try:
        result = measure(args, root, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    units = UNITS if not args.trace else PER_LAYER_UNITS
    print(json.dumps({"workload": args.workload, "environment": result["environment"]}))
    for failure in result.get("failures", []):
        print(f"failed: {failure}")
    for kind, row in result.get("breakdown", {}).items():
        print(json.dumps({"kind": kind, **row}))
    print(
        f"{args.workload}: {result['attempted']} jobs timed, {result['failed']} failed"
        + (f", set-up samples {['%.3f' % s for s in result['setup_samples_s']]} s" if not args.trace else "")
    )
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
