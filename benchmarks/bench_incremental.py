"""Incremental engine — delta-driven epochs vs per-epoch full rebuilds.

The headline claim (recorded in ``BENCH_incremental.json`` at the repo
root): on a churn-heavy Section 7.2 workload — 200 tasks x 2000 workers in
the paper's sparse Table 2 regime, ~5% of the population arriving, leaving
or moving between consecutive re-planning instants — an
:class:`repro.engine.engine.AssignmentEngine` epoch (incremental grid pair
cache + slot-stable arrays + solve) beats the naive epoch (rebuild the
grid index from scratch, retrieve every pair, re-pack, solve) by >= 5x,
while producing *identical* pairs, assignments and objectives every epoch.

Both sides replay the same pre-generated churn script with the same seeded
solver, so the comparison is purely about maintenance strategy.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.algorithms.random_assign import RandomSolver
from repro.core.problem import RdbscProblem
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine
from repro.geometry.points import Point
from repro.index.grid import RdbscGrid
from repro.utils.hostmeta import host_metadata

RESULT_PATH = Path(__file__).parent.parent / "BENCH_incremental.json"

#: Fresh entity ids start here so replacements never collide with the
#: initial population.
_FRESH_ID_BASE = 10**6


def _sparse_config(num_tasks, num_workers):
    """Paper-regime instance: narrow cones, slow workers, short windows."""
    return ExperimentConfig(
        num_tasks=num_tasks,
        num_workers=num_workers,
        start_time_range=(0.0, 1.0),
        expiration_range=(0.5, 1.0),
        velocity_range=(0.05, 0.15),
        angle_range_max=math.pi / 6.0,
    )


def _churn_script(tasks, workers, spare_tasks, spare_workers, epochs,
                  churn_workers, churn_tasks, seed):
    """Pre-generate per-epoch churn ops so both strategies replay the same
    sequence: worker leave / arrive / in-place update, task leave / arrive."""
    script = []
    wpool, tpool = list(workers), list(tasks)
    next_wid = next_tid = _FRESH_ID_BASE
    spare_w = spare_t = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        ops = []
        for _ in range(churn_workers):
            kind = int(rng.integers(0, 3))
            if kind == 0 and len(wpool) > churn_workers:
                index = int(rng.integers(0, len(wpool)))
                ops.append(("worker_leave", wpool.pop(index).worker_id))
            elif kind == 1:
                worker = dataclasses.replace(
                    spare_workers[spare_w % len(spare_workers)],
                    worker_id=next_wid,
                )
                next_wid += 1
                spare_w += 1
                wpool.append(worker)
                ops.append(("worker_arrive", worker))
            else:
                index = int(rng.integers(0, len(wpool)))
                worker = wpool[index]
                moved = worker.moved_to(
                    Point(
                        min(max(worker.location.x + float(rng.normal(0.0, 0.01)), 0.0), 1.0),
                        min(max(worker.location.y + float(rng.normal(0.0, 0.01)), 0.0), 1.0),
                    ),
                    worker.depart_time,
                )
                wpool[index] = moved
                ops.append(("worker_update", moved))
        for _ in range(churn_tasks):
            if int(rng.integers(0, 2)) == 0 and len(tpool) > churn_tasks * 2:
                index = int(rng.integers(0, len(tpool)))
                ops.append(("task_leave", tpool.pop(index).task_id))
            else:
                task = dataclasses.replace(
                    spare_tasks[spare_t % len(spare_tasks)], task_id=next_tid
                )
                next_tid += 1
                spare_t += 1
                tpool.append(task)
                ops.append(("task_arrive", task))
        script.append(ops)
    return script


def _apply_to_engine(engine, op):
    kind, payload = op
    if kind == "worker_leave":
        engine.remove_worker(payload)
    elif kind == "worker_arrive":
        engine.add_worker(payload)
    elif kind == "worker_update":
        engine.update_worker(payload)
    elif kind == "task_leave":
        engine.withdraw_task(payload)
    else:
        engine.add_task(payload)


def _apply_to_dicts(tdict, wdict, op):
    kind, payload = op
    if kind == "worker_leave":
        del wdict[payload]
    elif kind in ("worker_arrive", "worker_update"):
        wdict[payload.worker_id] = payload
    elif kind == "task_leave":
        del tdict[payload]
    else:
        tdict[payload.task_id] = payload


def run_incremental_experiment(
    num_tasks: int = 200,
    num_workers: int = 2000,
    epochs: int = 15,
    churn_workers: int = 100,
    churn_tasks: int = 10,
    eta: float = 0.05,
    seed: int = 11,
    solver_seed: int = 3,
    write_json: bool = True,
):
    """Time incremental vs full-rebuild epochs on one churn script."""
    config = _sparse_config(num_tasks, num_workers)
    rng = np.random.default_rng(seed)
    tasks = generate_tasks(config, rng)
    workers = generate_workers(config, rng)
    spare_tasks = generate_tasks(config.with_updates(num_tasks=2 * num_tasks), rng)
    spare_workers = generate_workers(config.with_updates(num_workers=num_workers), rng)
    script = _churn_script(
        tasks, workers, spare_tasks, spare_workers,
        epochs, churn_workers, churn_tasks, seed + 1,
    )

    rows = []
    for backend in ("python", "numpy"):
        solver = RandomSolver()

        # -- incremental: one engine, churn applied per event ------------
        engine = AssignmentEngine(solver=solver, eta=eta, rng=solver_seed, backend=backend)
        for task in tasks:
            engine.add_task(task)
        for worker in workers:
            engine.add_worker(worker)
        engine.epoch(0.0)  # warm start: first epoch builds every cache entry
        incremental = []
        started = time.perf_counter()
        for ops in script:
            for op in ops:
                _apply_to_engine(engine, op)
            outcome = engine.epoch(0.0)
            incremental.append((outcome.num_pairs, outcome.objective))
        incremental_seconds = time.perf_counter() - started

        # -- full rebuild: index + pairs + problem from scratch per epoch -
        tdict = {t.task_id: t for t in tasks}
        wdict = {w.worker_id: w for w in workers}
        rebuild = []
        started = time.perf_counter()
        for ops in script:
            for op in ops:
                _apply_to_dicts(tdict, wdict, op)
            grid = RdbscGrid.bulk_load(list(tdict.values()), list(wdict.values()), eta)
            problem = RdbscProblem(
                list(tdict.values()),
                list(wdict.values()),
                precomputed_pairs=grid.valid_pairs(),
                backend=backend,
            )
            result = solver.solve(problem, rng=solver_seed)
            rebuild.append((problem.num_pairs, result.objective))
        rebuild_seconds = time.perf_counter() - started

        # -- equivalence: every epoch agreed, and the final pair sets are
        # bit-identical (arrivals included).
        if incremental != rebuild:
            raise AssertionError(f"strategies disagree on {backend} epochs")
        final = RdbscGrid.bulk_load(list(tdict.values()), list(wdict.values()), eta)
        if sorted(
            (p.task_id, p.worker_id, p.arrival) for p in engine.current_pairs()
        ) != sorted(
            (p.task_id, p.worker_id, p.arrival) for p in final.valid_pairs()
        ):
            raise AssertionError(f"final pair sets disagree on {backend}")

        rows.append(
            {
                "backend": backend,
                "m_tasks": num_tasks,
                "n_workers": num_workers,
                "epochs": epochs,
                "churn_ops_per_epoch": churn_workers + churn_tasks,
                "pairs_final": incremental[-1][0],
                "incremental_seconds": incremental_seconds,
                "rebuild_seconds": rebuild_seconds,
                "speedup": rebuild_seconds / incremental_seconds,
                "epochs_per_second_incremental": epochs / incremental_seconds,
                "epochs_per_second_rebuild": epochs / rebuild_seconds,
                "pair_cache_hit_rate": engine.metrics.cache_hit_rate(),
            }
        )

    if write_json:
        RESULT_PATH.write_text(
            json.dumps(
                {
                    "rows": rows,
                    "seed": seed,
                    "solver_seed": solver_seed,
                    "host": host_metadata(),
                },
                indent=2,
            )
            + "\n"
        )
    return rows


def test_incremental_speedup(benchmark, show):
    """Record the incremental-epoch speedup into BENCH_incremental.json."""
    rows = benchmark.pedantic(run_incremental_experiment, rounds=1, iterations=1)

    lines = [
        "Incremental engine — delta-driven epochs vs full rebuilds (5% churn)",
        f"{'backend':>8} | {'epochs':>6} | {'ops/epoch':>9} | {'incr (s)':>9} | "
        f"{'rebuild (s)':>11} | {'speedup':>8} | {'hit rate':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['backend']:>8} | {row['epochs']:>6} | {row['churn_ops_per_epoch']:>9} | "
            f"{row['incremental_seconds']:9.3f} | {row['rebuild_seconds']:11.3f} | "
            f"{row['speedup']:7.1f}x | {row['pair_cache_hit_rate']:8.3f}"
        )
    show("\n".join(lines))

    python_row = next(row for row in rows if row["backend"] == "python")
    # The acceptance bar: >= 5x epoch throughput under ~5% churn.
    assert python_row["speedup"] >= 5.0
    # The numpy side shares the caches; guard against outright regression.
    for row in rows:
        assert row["speedup"] > 1.0, row["backend"]
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    for line in run_incremental_experiment():
        print(line)
