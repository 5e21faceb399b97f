"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

``python3 benchmarks/e2e/spread.py [--runs 10] [--workload NAME] [--trace 1]``
runs each workload ``--runs`` times, each with another ``--seed``, and
prints for every metric the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
that median — next to the bound ``BENCHMARK.json`` sets.  A benchmark is
steady when every spread is below a third of its bound.  It also prints
how long each run took end to end, which is what the driver's time cap
is spent on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def main(argv=None) -> int:
    """Run the workloads repeatedly and print the spread table."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    failures = 0
    for name in [args.workload] if args.workload else names:
        runs, elapsed = [], []
        for k in range(args.runs):
            command = contract["command"] + [
                "--workload", name, "--seed", str(args.first_seed + k),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            elapsed.append(time.perf_counter() - started)
            if done.returncode != 0:
                print(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failures += not result["correct"]
            runs.append(result)
        print(
            f"# {name}: {args.runs} runs, {max(elapsed):.1f} s longest, "
            f"{sum(elapsed) / len(elapsed):.1f} s mean, "
            f"{sum(not r['correct'] for r in runs)} incorrect"
        )
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            middle = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / middle if middle else 0.0
            full = (max(values) - min(values)) / middle if middle else 0.0
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                f"  bound {bound:.2f} " + ("ok" if spread < bound / 3 else "WIDE")
            )
            print(
                f"{metric:32s} median {middle:14.6g}  iqr/median {spread:7.4f}  "
                f"range/median {full:7.4f}{verdict}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
