"""A crash-safe session: durable logging, kill-and-recover, cold analytics.

One churn-heavy morning is driven through an ``AssignmentEngine`` with
``durable_path=`` set, so every churn event, epoch marker and periodic
full-state snapshot lands in a SQLite write-ahead log.  Halfway through,
the engine object is dropped without ``close()`` — a crash.
``restore_engine`` then rebuilds the engine from the log (latest
snapshot + tail replay) and the remaining epochs continue as if nothing
happened: the recovered plans are compared epoch-by-epoch with an
uninterrupted twin engine and must match bit-exactly.

The log outlives the session, so the final section walks
``DurableLog.epoch_history()`` — the whole assignment history (clock,
solve mode, objective, dispatch) read cold from disk, no solver re-run.

Run with ``PYTHONPATH=src python examples/durable_session.py``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.algorithms import GreedySolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine
from repro.engine.durable import DurableLog, restore_engine

EPOCHS = 10
KILL_AFTER = 5              # the "power cut" lands after this many re-plans
CHURN_PER_EPOCH = 6


def build_workload(seed=17):
    """Initial population plus a per-epoch churn script both runs replay."""
    config = ExperimentConfig(
        num_tasks=48,
        num_workers=160,
        velocity_range=(0.05, 0.2),
        expiration_range=(30.0, 60.0),
    )
    rng = np.random.default_rng(seed)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    initial_workers, worker_pool = workers[:120], workers[120:]

    script = []
    crng = np.random.default_rng(seed + 1)
    live = [w.worker_id for w in initial_workers]
    for _ in range(EPOCHS):
        ops = []
        for _ in range(CHURN_PER_EPOCH):
            if int(crng.integers(0, 2)) == 0 and worker_pool:
                fresh = worker_pool.pop()
                live.append(fresh.worker_id)
                ops.append(("add_worker", fresh))
            elif len(live) > CHURN_PER_EPOCH:
                index = int(crng.integers(0, len(live)))
                ops.append(("remove_worker", live.pop(index)))
        script.append(ops)
    return tasks, initial_workers, script


def drive(engine, tasks, workers, script, start=0, register=True):
    """Replay script epochs ``start..``; returns the per-epoch dispatches."""
    if register:
        for task in tasks:
            engine.add_task(task)
        for worker in workers:
            engine.add_worker(worker)
    plans = []
    for k in range(start, len(script)):
        for op, payload in script[k]:
            getattr(engine, op)(payload)
        outcome = engine.epoch(float(k))
        plans.append(sorted(outcome.assignment.pairs()))
    return plans


def main():
    """Run the kill-and-recover demonstration and print the comparison."""
    tasks, workers, script = build_workload()

    # The uninterrupted twin: same workload, never crashes.
    twin = AssignmentEngine(solver=GreedySolver(), rng=7)
    twin_plans = drive(twin, tasks, workers, script)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.db"

        engine = AssignmentEngine(
            solver=GreedySolver(),
            rng=7,
            durable_path=path,
            durable_snapshot_every=3,
        )
        before = drive(
            engine, tasks, workers, [script[k] for k in range(KILL_AFTER)]
        )
        del engine  # crash: no close(), no flush beyond the WAL
        print(f"crashed after {KILL_AFTER} re-plans; log survives at {path.name}")

        recovered = restore_engine(path, solver=GreedySolver())
        print(
            f"recovered: {recovered.num_tasks} tasks, "
            f"{recovered.num_workers} workers, "
            f"{recovered.metrics.epochs} epochs already on the books"
        )
        after = drive(
            recovered, tasks, workers, script, start=KILL_AFTER, register=False
        )

        plans = before + after
        matches = sum(a == b for a, b in zip(plans, twin_plans))
        print(f"bit-identical epochs vs the uninterrupted twin: "
              f"{matches}/{len(twin_plans)}")
        assert plans == twin_plans

        recovered.close()

        # Cold analytics: the assignment history without re-running anything.
        with DurableLog(path) as log:
            print("\nepoch history (read cold from the log):")
            for entry in log.epoch_history():
                reliability, total_std = entry["objective"]
                print(
                    f"  t={entry['now']:4.1f}  mode={entry['mode']:>4}  "
                    f"min-reliability={reliability:6.3f}  "
                    f"dispatched={len(entry['dispatch'])}"
                )


if __name__ == "__main__":
    main()
