"""One workload, in this process: ``python -m e2e --workload NAME ...``.

``run.py`` starts this module in a fresh interpreter per workload (fixed
hash seed, ``src/`` and ``benchmarks/`` on the path).  It prints every
metric by name with its unit, then — as the last stdout line — the one
JSON object the driver reads.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.utils.hostmeta import host_metadata

from e2e import wire, workloads
from e2e.metrics import END_TO_END, PER_LAYER, result_line
from e2e.run import WORKLOADS


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Dispatch one workload; ``(values, ops, info)``."""
    if name == "wire_fleet":
        sizes = wire.TINY if tiny else wire.SIZES
        if trace:
            return wire.run_traced(seed, sizes)
        return wire.run_timed(seed, seconds, sizes)
    sizes = (workloads.TINY if tiny else workloads.SIZES)[name]
    if trace:
        return workloads.run_traced(name, seed, sizes)
    return workloads.run_timed(name, seed, seconds, sizes)


def main(argv=None) -> int:
    """Run one workload and print its metrics and result line."""
    parser = argparse.ArgumentParser(prog="python -m e2e")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    values, ops, info = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    if args.trace:
        table = [(name, unit) for name, unit, _, _ in PER_LAYER]
        values = {name: values.get(name, 0.0) for name, _ in table}
    else:
        table = END_TO_END
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in table:
        print(f"{name:32s} {values[name]:16.6f} {unit}")
    print(f"ops_attempted {ops.attempted}  ops_failed {ops.failed}")
    for note in ops.notes:
        print(f"FAILED: {note}")
    print("info " + json.dumps({**info, "host": host_metadata()}, sort_keys=True))
    print(result_line(values, table, ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
