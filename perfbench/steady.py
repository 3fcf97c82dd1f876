"""Steadiness check: run one workload on seeds 1..N and report, for each
end-to-end metric, its median and the spread between the first and third
quartile as a share of the median.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload query-listen --runs 10

Each run measures ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median (``inf`` for a 0 median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        command = [
            sys.executable, str(RUN), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: output checks failed", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={e['value']:.6g}" for n, e in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        print(f"{name:32s} median {statistics.median(series):>14.6g}  "
              f"spread {spread(series):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
