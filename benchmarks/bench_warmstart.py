"""Warm-start epochs — plan repair vs from-scratch solves at low churn.

The headline claim (recorded in ``BENCH_warmstart.json`` at the repo
root): on the same churn-heavy Section 7.2 workload the incremental
benchmark uses — 200 tasks x 2000 workers in the paper's sparse Table 2
regime, ~5% of the population churning between consecutive re-planning
instants — an engine running ``solve_mode="warm"`` repairs the previous
epoch's plan (:mod:`repro.solvers.incremental`) and spends >= 3x less
*solver* time per epoch than the paper-faithful ``solve_mode="full"``
engine, for GREEDY on the python backend (the acceptance bar), with the
other solver/backend combinations recorded alongside.

Both engines replay the same pre-generated churn script with the same
seeds, so the comparison is purely full solve vs warm repair; quality
columns record each mode's mean objective so the speedup is shown not to
be bought with assignment quality (``tests/test_warmstart.py`` pins the
per-epoch dominance relation).
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.algorithms import GreedySolver, SamplingSolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine
from repro.geometry.points import Point
from repro.utils.hostmeta import host_metadata

RESULT_PATH = Path(__file__).parent.parent / "BENCH_warmstart.json"

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
    """Per-epoch churn ops both engines replay identically."""
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


def _apply(engine, op):
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


def _make_solver(kind, backend):
    if kind == "greedy":
        return GreedySolver(backend=backend)
    return SamplingSolver(num_samples=40)


def _run_mode(kind, backend, mode, tasks, workers, script, eta, solver_seed):
    """Replay one churn script on one engine; returns timing + quality."""
    engine = AssignmentEngine(
        solver=_make_solver(kind, backend),
        eta=eta,
        rng=solver_seed,
        backend=backend,
        solve_mode=mode,
    )
    for task in tasks:
        engine.add_task(task)
    for worker in workers:
        engine.add_worker(worker)
    engine.epoch(0.0)  # establishes the first plan; excluded from timings
    solve_before = engine.metrics.solve_seconds
    objectives = []
    started = time.perf_counter()
    for ops in script:
        for op in ops:
            _apply(engine, op)
        outcome = engine.epoch(0.0)
        objectives.append(
            (outcome.objective.min_reliability, outcome.objective.total_std)
        )
    epoch_seconds = time.perf_counter() - started
    return {
        "solve_seconds": engine.metrics.solve_seconds - solve_before,
        "epoch_seconds": epoch_seconds,
        "warm_solves": engine.metrics.warm_solves,
        "mean_min_reliability": float(np.mean([o[0] for o in objectives])),
        "mean_total_std": float(np.mean([o[1] for o in objectives])),
    }


def run_warmstart_experiment(
    num_tasks: int = 200,
    num_workers: int = 2000,
    epochs: int = 10,
    churn_workers: int = 100,
    churn_tasks: int = 10,
    eta: float = 0.05,
    seed: int = 11,
    solver_seed: int = 3,
    solvers: tuple = ("greedy", "sampling"),
    backends: tuple = ("python", "numpy"),
    write_json: bool = True,
):
    """Time warm-repair vs full-solve epochs on one churn script."""
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
    for kind in solvers:
        for backend in backends:
            full = _run_mode(
                kind, backend, "full", tasks, workers, script, eta, solver_seed
            )
            warm = _run_mode(
                kind, backend, "warm", tasks, workers, script, eta, solver_seed
            )
            if warm["warm_solves"] != epochs:
                raise AssertionError(
                    f"{kind}/{backend}: expected {epochs} warm epochs, "
                    f"got {warm['warm_solves']}"
                )
            rows.append(
                {
                    "solver": kind,
                    "backend": backend,
                    "m_tasks": num_tasks,
                    "n_workers": num_workers,
                    "epochs": epochs,
                    "churn_ops_per_epoch": churn_workers + churn_tasks,
                    "full_solve_seconds": full["solve_seconds"],
                    "warm_solve_seconds": warm["solve_seconds"],
                    "solve_speedup": full["solve_seconds"] / warm["solve_seconds"],
                    "epochs_per_second_full_solver": epochs / full["solve_seconds"],
                    "epochs_per_second_warm_solver": epochs / warm["solve_seconds"],
                    "full_mean_min_reliability": full["mean_min_reliability"],
                    "warm_mean_min_reliability": warm["mean_min_reliability"],
                    "full_mean_total_std": full["mean_total_std"],
                    "warm_mean_total_std": warm["mean_total_std"],
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


def test_warmstart_speedup(benchmark, show):
    """Record the warm-start solve speedup into BENCH_warmstart.json."""
    rows = benchmark.pedantic(run_warmstart_experiment, rounds=1, iterations=1)

    lines = [
        "Warm-start epochs — plan repair vs full solves (5% churn)",
        f"{'solver':>8} | {'backend':>7} | {'full (s)':>9} | {'warm (s)':>9} | "
        f"{'speedup':>8} | {'minR full/warm':>15} | {'E[STD] full/warm':>17}",
    ]
    for row in rows:
        lines.append(
            f"{row['solver']:>8} | {row['backend']:>7} | "
            f"{row['full_solve_seconds']:9.3f} | {row['warm_solve_seconds']:9.3f} | "
            f"{row['solve_speedup']:7.1f}x | "
            f"{row['full_mean_min_reliability']:.4f}/{row['warm_mean_min_reliability']:.4f} | "
            f"{row['full_mean_total_std']:8.3f}/{row['warm_mean_total_std']:8.3f}"
        )
    show("\n".join(lines))

    headline = next(
        row for row in rows if row["solver"] == "greedy" and row["backend"] == "python"
    )
    # The acceptance bar: >= 3x epoch-solve throughput at <= 5% churn.
    assert headline["solve_speedup"] >= 3.0
    # Every other combination must at least not regress.
    for row in rows:
        assert row["solve_speedup"] > 1.0, (row["solver"], row["backend"])
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    for line in run_warmstart_experiment():
        print(line)
