#!/usr/bin/env python
"""Paired parent-vs-change runs of one end-to-end benchmark workload.

The rule a performance claim has to meet (the ``choosing-metrics``
guide, section 8): run at least ten pairs of parent and change,
alternating which side runs first; claim a gain only when the change
wins at least nine tenths of the pairs (ties count for neither) and the
medians differ by more than the distance between the quartiles of the
parent's own runs.  This helper does the runs and prints that verdict
per end-to-end metric, flagging a median that is worse than the parent's
by more than the metric's ``BENCHMARK.json`` bound.

It checks ``--parent`` out into a temporary ``git worktree``, then for
each pair draws a fresh seed and runs the command ``BENCHMARK.json``
declares (``python3 benchmarks/e2e/run.py --workload W --seed S
--seconds 15 --trace 0``) once in that tree and once in this one.  The
benchmark is read, never edited.  Standard library only.

Usage::

    python tools/bench_pairs.py --workload solve_full --parent HEAD~1 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, command: List[str], workload: str, seed: int, seconds: int):
    """One benchmark run in ``tree``; ``(metrics, attempted, failed)``."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"benchmark failed in {tree} (seed {seed}, exit {done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, result["attempted"], result["failed"]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(p25, p50, p75)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(spec: dict, parent: List[dict], change: List[dict]) -> None:
    """Print one row per end-to-end metric: quartiles, wins, verdict."""
    print(
        f"{'metric':<24}{'better':<8}{'parent p25/p50/p75':<34}"
        f"{'change p25/p50/p75':<34}{'wins':<8}{'median':<9}verdict"
    )
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        ours = [run[name] for run in change]
        theirs = [run[name] for run in parent]
        wins = sum((a > b) if higher else (a < b) for a, b in zip(ours, theirs))
        p25, p50, p75 = quartiles(theirs)
        c25, c50, c75 = quartiles(ours)
        gain = (c50 - p50) if higher else (p50 - c50)
        if gain > 0 and gain > (p75 - p25) and wins >= 0.9 * len(ours):
            verdict = "gain"
        elif p50 and -gain / abs(p50) > metric["bound"]:
            verdict = f"WORSE than the {metric['bound']:.0%} bound"
        else:
            verdict = "no gain shown, within bound"
        ratio = f"{c50 / p50 - 1.0:+.1%}" if p50 else "n/a"
        print(
            f"{name:<24}{metric['better']:<8}"
            f"{f'{p25:.4g} / {p50:.4g} / {p75:.4g}':<34}"
            f"{f'{c25:.4g} / {c50:.4g} / {c75:.4g}':<34}"
            f"{f'{wins}/{len(ours)}':<8}{ratio:<9}{verdict}"
        )


def main(argv=None) -> int:
    """Run the pairs and print the per-metric table."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    tree = scratch / "parent"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(tree), args.parent],
        cwd=ROOT, check=True, capture_output=True,
    )
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    failed = {"parent": [0, 0], "change": [0, 0]}
    try:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, attempted, bad = run_once(
                    tree if side == "parent" else ROOT,
                    command, args.workload, seed, seconds,
                )
                runs[side].append(metrics)
                failed[side][0] += bad
                failed[side][1] += attempted
            print(
                f"pair {pair + 1}/{args.pairs} seed {seed} first={order[0]}",
                file=sys.stderr,
            )
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(tree)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"workload {args.workload}: {args.pairs} pairs vs {args.parent}, "
        f"seeds {args.seed}..{args.seed + args.pairs - 1}, {seconds}s runs"
    )
    report(spec, runs["parent"], runs["change"])
    for side in ("parent", "change"):
        print(f"{side} failed operations: {failed[side][0]} of {failed[side][1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
