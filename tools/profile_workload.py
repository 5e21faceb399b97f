#!/usr/bin/env python
"""cProfile N epochs of one end-to-end benchmark workload.

The sizing step of a performance issue: where do a workload's epochs
spend their time, and how many times is each function called?  This
builds the workload's scenario and engine exactly as the benchmark does
(``benchmarks/e2e/workloads.py``: ``DIRECT[name]``, ``build``), runs the
warm-up epochs unprofiled, then profiles the next ``--epochs`` epochs
through ``workloads.run_epochs`` and prints the wall / apply / epoch
milliseconds per epoch (profiler on, so inflated — use them to compare
two profiles, not as timings), for a GREEDY engine the hit rates of the
solver's cross-solve bounds and E[STD] memos over those epochs (read from
the memos' own ``hits`` / ``misses``), and the profile sorted by
cumulative time and by own time (``--sort`` keeps only one of the two
tables).

Call counts repeat exactly for a given seed, so they can be compared
between two commits; cProfile's per-call cost shifts the time
proportions towards many-small-call code, so confirm any saving with the
benchmark itself (``make pairs``).  Only this process is profiled:
``sample_pool``'s pool workers are not.  The benchmark is read, never
edited.  Standard library only.

Usage::

    python tools/profile_workload.py --workload drift_elastic --epochs 60 --seed 11
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SORTS = ("cumulative", "tottime")


def memo_counts(engine):
    """``{memo: (hits, misses)}`` of the engine's GREEDY cross-solve memos.

    Empty when the engine's solver keeps none (SAMPLING).
    """
    solver = engine.solver
    return {
        label: (memo.hits, memo.misses)
        for label, memo in (
            ("bounds", getattr(solver, "bounds_memo", None)),
            ("E[STD]", getattr(solver, "estd_memo", None)),
        )
        if memo is not None
    }


def profile(name: str, epochs: int, seed: int, tiny: bool):
    """Profile ``epochs`` post-warm-up epochs.

    Returns ``(Profile, wall_s, apply_ns, epoch_ns, memo)`` where ``memo``
    maps each GREEDY memo to its ``(hits, misses)`` over those epochs.
    """
    from e2e import workloads
    from e2e.metrics import Ops

    spec = workloads.DIRECT[name]
    sizes = (workloads.TINY if tiny else workloads.SIZES)[name]
    warmup = int(sizes["warmup_epochs"])
    scenario = spec.scenario(seed, warmup + epochs + 1, sizes)
    ops = Ops()
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"profile-{name}-", dir=workloads.OUT_DIR))
    log_path = workdir / "wal.db" if spec.durable else None
    profiler = cProfile.Profile()
    try:
        engine, _ = workloads.build(
            lambda: spec.engine(scenario, sizes, log_path), scenario
        )
        try:
            workloads.run_epochs(engine, scenario.script[:warmup], ops)
            before = memo_counts(engine)
            started = perf_counter_ns()
            profiler.enable()
            apply_ns, epoch_ns, _ = workloads.run_epochs(
                engine, scenario.script[warmup : warmup + epochs], ops
            )
            profiler.disable()
            wall_s = (perf_counter_ns() - started) / 1e9
            memo = {
                label: (hits - before[label][0], misses - before[label][1])
                for label, (hits, misses) in memo_counts(engine).items()
            }
        finally:
            engine.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ops.failed:
        raise SystemExit(f"{ops.failed} failed operations: {ops.notes}")
    return profiler, wall_s, apply_ns, epoch_ns, memo


def main(argv=None) -> int:
    """Profile the workload and print the timings and sorted tables."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("solve_full", "sample_pool", "drift_elastic"),
    )
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--sort", choices=SORTS, default=None, help="print only this table")
    parser.add_argument("--limit", type=int, default=60, help="rows per table")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

    profiler, wall_s, apply_ns, epoch_ns, memo = profile(
        args.workload, args.epochs, args.seed, args.tiny
    )
    done = len(epoch_ns)
    print(
        f"# {args.workload} seed={args.seed} epochs={done} (profiled): "
        f"wall {1e3 * wall_s / done:.1f} ms/epoch, "
        f"apply {sum(apply_ns) / 1e6 / done:.1f} ms, "
        f"epoch {sum(epoch_ns) / 1e6 / done:.1f} ms"
    )
    if memo:
        print("# GREEDY memo hit rates (profiled epochs): " + ", ".join(
            f"{label} {hits / max(hits + misses, 1):.1%} of {hits + misses} lookups"
            for label, (hits, misses) in memo.items()
        ))
    stats = pstats.Stats(profiler, stream=sys.stdout).strip_dirs()
    for key in (args.sort,) if args.sort else SORTS:
        stats.sort_stats(key).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
