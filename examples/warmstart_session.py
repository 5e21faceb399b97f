"""A week-long churn session: full re-solves vs warm-start plan repair.

The same seven-day workload — a stable worker population with a steady
drip of arrivals, departures and position refreshes, plus tasks posted
and expiring around the clock — is replayed twice through
``AssignmentEngine``: once with ``solve_mode="full"`` (the
paper-faithful GREEDY solve at every re-planning instant) and once with
``solve_mode="warm"`` (quiet epochs repair the previous plan through
``repro.solvers.incremental``).  The comparison printed at the end is
the whole point of warm starts: solver time drops severalfold while the
objective series stays on top of the full solve's.

Run with ``PYTHONPATH=src python examples/warmstart_session.py``.
"""

import math

import numpy as np

from repro.algorithms import GreedySolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine
from repro.geometry.points import Point
from repro.viz import series_with_sparkline

DAYS = 7
EPOCHS_PER_DAY = 8          # a re-plan every three "hours"
CHURN_PER_EPOCH = 4         # entities churned between re-plans (~4%)


def build_workload(seed=29):
    """The initial population plus one shared churn script for the week.

    The paper's sparse regime (narrow cones, slow workers) — the regime
    long-lived deployments live in, and the one where repairing a plan
    beats re-deriving it: most workers are untouched by any given delta.
    """
    config = ExperimentConfig(
        num_tasks=320,
        num_workers=400,
        velocity_range=(0.05, 0.2),
        angle_range_max=math.pi / 5.0,
    )
    rng = np.random.default_rng(seed)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    initial_tasks, task_pool = tasks[:64], tasks[64:]
    initial_workers, worker_pool = workers[:220], workers[220:]

    script = []
    live_workers = [w.worker_id for w in initial_workers]
    by_id = {w.worker_id: w for w in workers}
    crng = np.random.default_rng(seed + 1)
    for _ in range(DAYS * EPOCHS_PER_DAY):
        ops = []
        for _ in range(CHURN_PER_EPOCH):
            roll = int(crng.integers(0, 4))
            if roll == 0 and task_pool:
                ops.append(("add_task", task_pool.pop()))
            elif roll == 1 and worker_pool:
                worker = worker_pool.pop()
                live_workers.append(worker.worker_id)
                by_id[worker.worker_id] = worker
                ops.append(("add_worker", worker))
            elif roll == 2 and len(live_workers) > 40:
                index = int(crng.integers(0, len(live_workers)))
                ops.append(("remove_worker", live_workers.pop(index)))
            else:
                worker_id = live_workers[int(crng.integers(0, len(live_workers)))]
                worker = by_id[worker_id]
                moved = worker.moved_to(
                    Point(
                        float(np.clip(worker.location.x + crng.normal(0, 0.02), 0, 1)),
                        float(np.clip(worker.location.y + crng.normal(0, 0.02), 0, 1)),
                    ),
                    worker.depart_time,
                )
                by_id[worker_id] = moved
                ops.append(("update_worker", moved))
        script.append(ops)
    return initial_tasks, initial_workers, script


def run_session(mode, initial_tasks, initial_workers, script):
    """Replay the shared script; returns per-epoch objectives and timings."""
    engine = AssignmentEngine(
        solver=GreedySolver(), eta=0.125, rng=7, solve_mode=mode
    )
    for task in initial_tasks:
        engine.add_task(task)
    for worker in initial_workers:
        engine.add_worker(worker)
    engine.epoch(0.0)  # epoch zero establishes the first plan
    objectives = []
    for ops in script:
        for kind, payload in ops:
            getattr(engine, kind)(payload)
        outcome = engine.epoch(0.0)
        objectives.append(outcome.objective)
    return objectives, engine.metrics


def main() -> None:
    """Replay a week of churn in full vs warm mode and compare."""
    initial_tasks, initial_workers, script = build_workload()
    print(
        f"workload: {DAYS} days x {EPOCHS_PER_DAY} re-plans, "
        f"{CHURN_PER_EPOCH} churned entities per interval, GREEDY solver\n"
    )

    results = {}
    for mode in ("full", "warm"):
        objectives, metrics = run_session(
            mode, initial_tasks, initial_workers, script
        )
        results[mode] = (objectives, metrics)
        print(
            f"solve_mode={mode!r}: {metrics.epochs} epochs "
            f"({metrics.warm_solves} warm, {metrics.full_solves} full), "
            f"solver time {metrics.solve_seconds:.2f}s"
        )

    full_obj, full_metrics = results["full"]
    warm_obj, warm_metrics = results["warm"]
    print(
        f"\nsolver-time speedup: "
        f"{full_metrics.solve_seconds / warm_metrics.solve_seconds:.1f}x"
    )

    print("\nper-day mean objective (warm should track or beat full):")
    print(f"{'day':>4} | {'min rel full':>12} | {'min rel warm':>12} | "
          f"{'E[STD] full':>11} | {'E[STD] warm':>11}")
    for day in range(DAYS):
        chunk = slice(day * EPOCHS_PER_DAY, (day + 1) * EPOCHS_PER_DAY)
        fo, wo = full_obj[chunk], warm_obj[chunk]
        print(
            f"{day + 1:4d} | "
            f"{np.mean([o.min_reliability for o in fo]):12.4f} | "
            f"{np.mean([o.min_reliability for o in wo]):12.4f} | "
            f"{np.mean([o.total_std for o in fo]):11.3f} | "
            f"{np.mean([o.total_std for o in wo]):11.3f}"
        )

    print()
    print(series_with_sparkline(
        "full E[STD] ", [o.total_std for o in full_obj]
    ))
    print(series_with_sparkline(
        "warm E[STD] ", [o.total_std for o in warm_obj]
    ))


if __name__ == "__main__":
    main()
