"""The benchmark's one command.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload the way the driver asks for it;
``python3 benchmarks/e2e/run.py [--seed N] [--trace 1]`` runs all four,
one after the other.

Each workload runs in its own fresh interpreter (``python -m e2e``) with
``PYTHONHASHSEED=0``, so no workload inherits another's heap, caches or
hash order, and with ``src/`` and ``benchmarks/`` on ``PYTHONPATH`` — no
install step, nothing outside the checkout.  The child's output passes
straight through; its last stdout line is the result the driver reads.
A child that cannot run (``src/`` missing, a crash) exits non-zero
without printing a result, and so does this command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("solve_full", "sample_pool", "drift_elastic", "wire_fleet")


def main(argv=None) -> int:
    """Run the requested workload(s); the worst child exit code."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every other argument goes to `python -m e2e` unchanged "
        "(--seed, --seconds, --trace, --tiny).",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    args, forwarded = parser.parse_known_args(argv)

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    worst = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        command = [sys.executable, "-m", "e2e", "--workload", name] + forwarded
        worst = max(worst, abs(subprocess.run(command, env=env, cwd=ROOT).returncode))
    return worst


if __name__ == "__main__":
    sys.exit(main())
