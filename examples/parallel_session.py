"""One sampling-heavy engine, serial vs parallel solve: identical plans.

An engine whose epochs are dominated by the SAMPLING solve — a
mid-density instance re-planned with a 512-sample budget under light
movement churn — is replayed three times over the same event stream:
serially (the substream contract, no executor), through the inline
chunked scorer (``solve_executor`` with zero processes — the same
scorer, zero IPC), and through a 4-process pinned pool.  The
script asserts every epoch's plan is bit-identical across all three,
then prints the solve-throughput table: the parallel solve subsystem's
whole pitch in one screen — same plans, same numbers, a multiple of the
solves per second.

Run with ``PYTHONPATH=src python examples/parallel_session.py``.
"""

import time

import numpy as np

from repro.algorithms import SamplingSolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine, ParallelSolveExecutor
from repro.geometry.points import Point

EPOCHS = 4
NUM_SAMPLES = 512
MOVES_PER_EPOCH = 120


def build_workload(seed=47):
    """A mid-density fleet plus one shared per-epoch movement script."""
    config = ExperimentConfig.scaled_defaults(num_tasks=120, num_workers=420)
    config = config.with_updates(
        velocity_range=(0.05, 0.12), expiration_range=(0.4, 1.0)
    )
    rng = np.random.default_rng(seed)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    crng = np.random.default_rng(seed + 1)
    pool = list(workers)
    script = []
    for _ in range(EPOCHS):
        ops = []
        for index in crng.choice(len(pool), size=MOVES_PER_EPOCH, replace=False):
            worker = pool[index]
            moved = worker.moved_to(
                Point(
                    float(np.clip(worker.location.x + crng.normal(0.0, 0.004), 0.0, 1.0)),
                    float(np.clip(worker.location.y + crng.normal(0.0, 0.004), 0.0, 1.0)),
                ),
                worker.depart_time,
            )
            pool[index] = moved
            ops.append(moved)
        script.append(ops)
    return tasks, workers, script


def replay(label, solve_executor, tasks, workers, script):
    """Run the engine once; returns (label, plans, epoch time, solve time)."""
    engine = AssignmentEngine(
        solver=SamplingSolver(num_samples=NUM_SAMPLES),
        rng=7,
        solve_executor=solve_executor,
    )
    for task in tasks:
        engine.add_task(task)
    for worker in workers:
        engine.add_worker(worker)
    engine.epoch(0.0)  # warm-up plan (pool start-up) excluded from timing
    solve_before = engine.metrics.solve_seconds
    plans = []
    started = time.perf_counter()
    for ops in script:
        for moved in ops:
            engine.update_worker(moved)
        outcome = engine.epoch(0.0)
        plans.append(
            (sorted(outcome.assignment.pairs()), outcome.objective)
        )
    epoch_seconds = time.perf_counter() - started
    solve_seconds = engine.metrics.solve_seconds - solve_before
    engine.close()
    return label, plans, epoch_seconds, solve_seconds


def main():
    """Replay the same workload three ways and print the throughput table."""
    tasks, workers, script = build_workload()
    rows = [
        replay("serial", None, tasks, workers, script),
        replay("chunked (0 proc)", ParallelSolveExecutor(processes=0),
               tasks, workers, script),
        replay("parallel (4 proc)", 4, tasks, workers, script),
    ]
    reference = rows[0][1]
    for label, plans, _, _ in rows[1:]:
        assert plans == reference, f"{label}: plans diverged from serial"
    print(f"{EPOCHS} epochs x {NUM_SAMPLES} samples, "
          f"{len(tasks)} tasks x {len(workers)} workers — identical plans\n")
    print(f"{'mode':>18} | {'epoch (s)':>9} | {'solve (s)':>9} | {'speedup':>8}")
    base = rows[0][3]
    for label, _, epoch_seconds, solve_seconds in rows:
        print(
            f"{label:>18} | {epoch_seconds:9.3f} | {solve_seconds:9.3f} | "
            f"{base / solve_seconds:7.2f}x"
        )


if __name__ == "__main__":
    main()
