"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --workloads dim-sweep,geometry --seeds 1-10 \
        --seconds 20 --trace 0 --out bench_runs.json

Runs bench/run.py once per (workload, seed), one after another, from the
current directory, and writes every run's result line plus, per workload
and metric, the median, the quartiles and the quartile spread as a share of
the median (statistics.quantiles(values, n=4)).  The spread is what a
later change is compared against: a change that claims a gain must beat
the parent by more than it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    summary = {"median": median, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    runs = []
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "env": env, **result})
            print(workload, seed, json.dumps(result["metrics"]), flush=True)

    summary = {}
    for run in runs:
        per_metric = summary.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    summary = {w: {name: summarise(values) for name, values in metrics.items()}
               for w, metrics in summary.items()}
    with open(args.out, "w") as handle:
        json.dump({"seconds": args.seconds, "trace": args.trace,
                   "summary": summary, "runs": runs}, handle, indent=1)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            spread = s.get("spread")
            print(f"{workload:13s} {name:34s} median {s['median']:.6g}"
                  + ("" if spread is None else f"  spread {spread:.3f}"))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
