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

Runs go in ABBA blocks of two pairs — parent, change, change, parent —
all on one seed, each block opened by one discarded warm-up run of its
first side.  The first pair of a block has the parent first, the second
the change first, so every side runs once in each position per block.
The helper prints that position effect per side and metric: the median
over blocks of (run that went first in its pair) / (run that went
second) - 1.  A side whose first runs read slower than its second runs
on an e2e timing has a positive effect there; a gap between the two
trees smaller than that effect says more about run order than about
the change.

It exports ``--parent`` into a temporary directory with ``git archive``,
then runs the command ``BENCHMARK.json`` declares (``python3
benchmarks/e2e/run.py --workload W --seed S --seconds 15 --trace 0``) in
that tree and in this one.  The benchmark is read, never edited.
Standard library only.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

SIDES = ("parent", "change")


class Slot(NamedTuple):
    """One run of the schedule.

    ``pair`` is ``None`` for a block's discarded warm-up run; otherwise
    ``first`` says whether the side runs first within its pair.
    """

    block: int
    pair: Optional[int]
    side: str
    first: bool


def abba_schedule(pairs: int) -> List[Slot]:
    """The run order for ``pairs`` pairs, in ABBA blocks of two pairs.

    Each block is a warm-up run of the parent, then parent, change
    (pair ``2b``), then change, parent (pair ``2b + 1``).  An odd count
    ends with a half block: warm-up, parent, change.
    """
    schedule: List[Slot] = []
    for block in range((pairs + 1) // 2):
        schedule.append(Slot(block, None, "parent", True))
        schedule.append(Slot(block, 2 * block, "parent", True))
        schedule.append(Slot(block, 2 * block, "change", False))
        if 2 * block + 1 < pairs:
            schedule.append(Slot(block, 2 * block + 1, "change", True))
            schedule.append(Slot(block, 2 * block + 1, "parent", False))
    return schedule


def position_effect(
    measured: Sequence[Tuple[Slot, float]]
) -> Dict[str, Optional[float]]:
    """Per side, the median over blocks of first-run / second-run - 1.

    ``measured`` holds the value of one metric for each measured run
    (warm-up slots are ignored).  Only blocks in which the side ran in
    both positions count; a side with none, or with a zero second run,
    reads ``None``.
    """
    runs: Dict[Tuple[str, int], Dict[bool, float]] = {}
    for slot, value in measured:
        if slot.pair is not None:
            runs.setdefault((slot.side, slot.block), {})[slot.first] = value
    effect: Dict[str, Optional[float]] = {}
    for side in SIDES:
        ratios = [
            both[True] / both[False] - 1.0
            for (name, _), both in sorted(runs.items())
            if name == side and len(both) == 2 and both[False]
        ]
        effect[side] = statistics.median(ratios) if ratios else None
    return effect


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


def report_position(spec: dict, measured: List[Tuple[Slot, dict]]) -> None:
    """Print each side's position effect per end-to-end metric."""
    print("position effect (first run in its pair / second run - 1, median over blocks)")
    print(f"{'metric':<24}{'parent':<12}change")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        effect = position_effect([(slot, run[name]) for slot, run in measured])
        cells = [
            "n/a" if effect[side] is None else f"{effect[side]:+.1%}"
            for side in SIDES
        ]
        print(f"{name:<24}{cells[0]:<12}{cells[1]}")


def export_tree(ref: str, tree: Path) -> None:
    """Write the files of commit ``ref`` into the new directory ``tree``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    tree.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def main(argv=None) -> int:
    """Run the pairs and print the per-metric tables."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first block")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {"parent": scratch / "parent", "change": ROOT}
    schedule = abba_schedule(args.pairs)
    by_pair: Dict[str, Dict[int, dict]] = {side: {} for side in SIDES}
    measured: List[Tuple[Slot, dict]] = []
    failed = {side: [0, 0] for side in SIDES}
    try:
        export_tree(args.parent, trees["parent"])
        for slot in schedule:
            seed = args.seed + slot.block
            metrics, attempted, bad = run_once(
                trees[slot.side], command, args.workload, seed, seconds
            )
            failed[slot.side][0] += bad
            failed[slot.side][1] += attempted
            if slot.pair is None:
                label = "warm-up (discarded)"
            else:
                by_pair[slot.side][slot.pair] = metrics
                measured.append((slot, metrics))
                label = f"pair {slot.pair + 1}/{args.pairs}"
            print(f"block {slot.block + 1} seed {seed} {slot.side}: {label}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"workload {args.workload}: {args.pairs} pairs vs {args.parent} in ABBA "
        f"blocks, seeds {args.seed}..{args.seed + (args.pairs - 1) // 2}, {seconds}s runs"
    )
    order = range(args.pairs)
    report(
        spec,
        [by_pair["parent"][pair] for pair in order],
        [by_pair["change"][pair] for pair in order],
    )
    report_position(spec, measured)
    for side in SIDES:
        print(
            f"{side} failed operations (warm-ups included): "
            f"{failed[side][0]} of {failed[side][1]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
