"""Run an :class:`~repro.serve.server.AssignmentServer` as a process.

``python -m repro.serve --port 0 --durable session.db`` starts a fresh
durable session; add ``--resume`` to recover a SIGKILLed one from the
same log and continue serving mid-session.  The process prints a single
``READY {port}`` line on stdout once the listener is bound — the
kill-and-resume test (and any supervisor) waits for that line before
sending traffic.

The flags mirror the engine's constructor knobs; a ``--shards N`` above
1 serves a :class:`repro.engine.elastic.ElasticShardedAssignmentEngine`
on its static tiling.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional

from repro.algorithms.greedy import GreedySolver
from repro.algorithms.sampling import SamplingSolver
from repro.engine.durable import DurableLog
from repro.engine.elastic import ElasticShardedAssignmentEngine
from repro.engine.engine import AssignmentEngine
from repro.serve.server import AssignmentServer


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve an RDB-SC assignment engine over JSON-lines TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument(
        "--solver", choices=("greedy", "sampling"), default="greedy"
    )
    parser.add_argument("--samples", type=int, default=40, help="sampling draws")
    parser.add_argument("--seed", type=int, default=7, help="engine RNG seed")
    parser.add_argument(
        "--backend",
        choices=("python", "numpy"),
        default="python",
        help="engine backend (index, retrieval and GREEDY's scoring loop; "
        "SAMPLING has one scoring path)",
    )
    parser.add_argument("--eta", type=float, default=0.125, help="grid cell size")
    parser.add_argument(
        "--shards", type=int, default=1, help=">1 serves the sharded engine"
    )
    parser.add_argument("--durable", default=None, help="WAL/snapshot SQLite path")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="recover the engine from --durable instead of starting fresh",
    )
    parser.add_argument("--snapshot-every", type=int, default=16)
    parser.add_argument(
        "--capacity", type=int, default=8192, help="ingestion buffer bound"
    )
    parser.add_argument("--admission", choices=("wait", "reject"), default="wait")
    parser.add_argument(
        "--epoch-interval",
        type=float,
        default=None,
        help="wall seconds between deadline epochs (default: explicit epochs only)",
    )
    parser.add_argument(
        "--epoch-dt",
        type=float,
        default=1.0,
        help="virtual session time per deadline epoch",
    )
    return parser


def build_solver(args: argparse.Namespace):
    """The solver instance the flags describe."""
    if args.solver == "greedy":
        return GreedySolver(backend=args.backend)
    return SamplingSolver(num_samples=args.samples)


def solver_from_log(durable_path: str):
    """Rebuild the solver a durable log was written with, from its meta.

    ``restore_engine`` validates both the solver class name and its
    constructor fingerprint, so the resumed process must reconstruct the
    original solver exactly; the CLI supports the two solvers it can
    start (greedy, sampling) and fails loudly for anything else.
    """
    log = DurableLog(durable_path)
    try:
        meta = log.meta()
    finally:
        log.close()
    if not meta:
        raise SystemExit(f"{durable_path} holds no durable engine session")
    name = meta.get("solver")
    config = dict(meta.get("solver_config") or {})
    if name == "GreedySolver":
        return GreedySolver(**config)
    if name == "SamplingSolver":
        # ``rng_contract`` is a recorded constant, not a constructor knob;
        # restore_engine's fingerprint check still compares it.  Older logs
        # also record a ``backend``: both backends drew identical samples.
        config.pop("rng_contract", None)
        config.pop("backend", None)
        return SamplingSolver(**config)
    raise SystemExit(
        f"cannot resume a session solved by {name!r} from the CLI; "
        "use AssignmentServer.resume(path, solver=...) instead"
    )


def build_server(args: argparse.Namespace) -> AssignmentServer:
    """Engine + server per the parsed flags (fresh or resumed)."""
    server_kwargs = dict(
        host=args.host,
        port=args.port,
        capacity=args.capacity,
        admission=args.admission,
        epoch_interval=args.epoch_interval,
        epoch_dt=args.epoch_dt,
    )
    if args.resume:
        if args.durable is None:
            raise SystemExit("--resume requires --durable")
        return AssignmentServer.resume(
            args.durable, solver=solver_from_log(args.durable), **server_kwargs
        )
    solver = build_solver(args)
    if args.shards > 1:
        engine = ElasticShardedAssignmentEngine(
            solver=solver,
            eta=args.eta,
            rng=args.seed,
            backend=args.backend,
            num_shards=args.shards,
            durable_path=args.durable,
            durable_snapshot_every=args.snapshot_every,
        )
    else:
        engine = AssignmentEngine(
            solver=solver,
            eta=args.eta,
            rng=args.seed,
            backend=args.backend,
            durable_path=args.durable,
            durable_snapshot_every=args.snapshot_every,
        )
    return AssignmentServer(engine, **server_kwargs)


async def serve(args: argparse.Namespace) -> None:
    """Start the server, announce readiness, and run until stopped."""
    server = build_server(args)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(
            signum, lambda: loop.create_task(server.stop())
        )
    print(f"READY {server.bound_port}", flush=True)
    await server.wait_stopped()


def main(argv: Optional[list] = None) -> None:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    asyncio.run(serve(args))


if __name__ == "__main__":
    sys.exit(main())
