"""Run one workload over several seeds and report each metric's spread.

    python3 rtbench/spread.py extract-explore --seeds 1-10 --seconds 24 [--trace 1]

For every metric it prints the ten values, the median and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median — the spread ``BENCHMARK.json`` bounds. It also
prints each run's attempted/failed counts and the miss share per
operation type.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", default="24")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False,
        )
        summary = next((line for line in proc.stderr.splitlines() if " seed=" in line), "")
        print(f"exit={proc.returncode} {summary}", flush=True)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], flush=True)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"  correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:<28} median {median:10.4g}  spread {spread:6.3f}  "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
