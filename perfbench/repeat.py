"""Run ``run.py`` over several workloads and seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30 [--trace 1] [--out FILE]

from the root of a checkout.  For every workload and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, which is the distance between the quartiles as a share of the
median.  With ``--out`` the same summary, every run's values and the last
run's per-kind trace breakdown are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sparse-screen", "dense-ledger", "atom-lp")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    kinds = [json.loads(line) for line in lines if line.startswith('{"kind"')]
    return json.loads(lines[-1]), kinds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="a seed or an inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        breakdown = []
        for seed in _seeds(args.seeds):
            result, breakdown = run(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[0]["metrics"]
        metrics = {
            name: {
                "unit": runs[0]["metrics"][name]["unit"],
                **summarise([r["metrics"][name]["value"] for r in runs]),
            }
            for name in names
        }
        for name, row in metrics.items():
            print(f"  {name:28s} {row['median']:14.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.3f}")
        report[workload] = {
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "values": {name: [r["metrics"][name]["value"] for r in runs] for name in names},
            "attempted": [r["attempted"] for r in runs],
            **({"breakdown_last_seed": breakdown} if breakdown else {}),
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0 if all(w["all_correct"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
