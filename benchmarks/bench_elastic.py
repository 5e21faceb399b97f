"""The sharded engine — diff shipping vs full state re-ship, static vs rebalanced.

The headline claim (recorded in ``BENCH_elastic.json`` at the repo
root): on a marching-population workload — a dense worker cohort walking
across the unit square epoch after epoch, dragging load across shard
block boundaries, over a large (8000-worker) static background fleet —
a 4-shard
:class:`repro.engine.elastic.ElasticShardedAssignmentEngine` shipping
per-epoch :class:`~repro.engine.elastic.ShardDiff` packets to resident
shard states delivers **>= 2x the epoch throughput** of the same engine
re-shipping every resident's full sub-problem each epoch
(``diff_shipping=False``), with **diff bytes < 20% of full-ship bytes**
and bit-identical per-epoch objectives.

The table decomposes the claim honestly:

* ``single/batched`` — the single-shard engine fed the identical typed
  event batches: the bit-identity reference and the ``speedup_vs_single``
  denominator.
* ``elastic-4/full-reship`` — resident shards rebuilt from a full-resync
  diff every epoch: what "no residency" costs once state lives with the
  workers (every epoch pays full serialisation *and* a from-scratch
  index rebuild, pair cache included).
* ``elastic-4/diff`` — residents advanced by O(delta) diffs, with the
  workload-aware :class:`~repro.engine.elastic.RebalancePolicy` live, so
  the row also records how many split/merge/migrate reshapes the
  marching load provoked and what the resync fallback cost (zero unless
  a resident drifted).
* ``elastic-4/static`` — the same diff-shipping residents on the static
  tiling (``rebalance=None``): the recorded number for a topology that
  never reshapes, so the marching load stays wherever the blocks put it.

The two policy rows run the same deterministic rebalance policy, so the
reshape trajectories — and therefore the plans — are identical; the only
difference is what crosses the shard boundary each epoch.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.algorithms import GreedySolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    RebalancePolicy,
    ShardMap,
    TaskArrive,
    TaskWithdraw,
    WorkerArrive,
    WorkerLeave,
    WorkerUpdate,
)
from repro.geometry.points import Point
from repro.utils.hostmeta import host_metadata

RESULT_PATH = Path(__file__).parent.parent / "BENCH_elastic.json"

#: Fresh entity ids start here so replacements never collide.
_FRESH_ID_BASE = 10**6


def _local_config(num_tasks, num_workers):
    """Slow workers, short windows: tight reach, so halos stay small."""
    return ExperimentConfig(
        num_tasks=num_tasks,
        num_workers=num_workers,
        start_time_range=(0.0, 0.5),
        expiration_range=(0.5, 1.0),
        velocity_range=(0.02, 0.06),
        angle_range_max=math.pi / 4.0,
    )


def _march_cohort(workers, cohort, seed):
    """Repack the first ``cohort`` workers into a strip at the left edge."""
    rng = np.random.default_rng(seed)
    marched = list(workers)
    for index in range(cohort):
        worker = marched[index]
        marched[index] = worker.moved_to(
            Point(float(rng.uniform(0.0, 0.12)), worker.location.y),
            worker.depart_time,
        )
    return marched


def _marching_script(
    tasks, workers, spare_tasks, spare_workers,
    cohort, epochs, stride, worker_churn, task_churn, seed,
):
    """Typed per-epoch event batches every engine replays identically.

    Each epoch the cohort takes one stride to the right (with a small
    seeded y-jitter), plus a fringe of worker arrive/leave and task
    replacement churn so the diff stream carries every run kind — the
    GPS-ping profile of a fleet with a rush-hour wavefront in it.
    """
    import dataclasses

    rng = np.random.default_rng(seed)
    wpool = list(workers)
    tpool = list(tasks)
    next_wid = next_tid = _FRESH_ID_BASE
    spare_w = spare_t = 0
    script = []
    for _ in range(epochs):
        ops = []
        for index in range(cohort):
            worker = wpool[index]
            marched = worker.moved_to(
                Point(
                    float(min(0.98, worker.location.x + stride)),
                    float(
                        np.clip(
                            worker.location.y + rng.normal(0.0, 0.01), 0.0, 1.0
                        )
                    ),
                ),
                worker.depart_time,
            )
            wpool[index] = marched
            ops.append(WorkerUpdate(time=0.0, worker=marched))
        for _ in range(worker_churn):
            index = int(rng.integers(cohort, len(wpool)))
            ops.append(WorkerLeave(time=0.0, worker_id=wpool.pop(index).worker_id))
            fresh = dataclasses.replace(
                spare_workers[spare_w % len(spare_workers)], worker_id=next_wid
            )
            next_wid += 1
            spare_w += 1
            wpool.append(fresh)
            ops.append(WorkerArrive(time=0.0, worker=fresh))
        for _ in range(task_churn):
            index = int(rng.integers(0, len(tpool)))
            ops.append(TaskWithdraw(time=0.0, task_id=tpool.pop(index).task_id))
            fresh_task = dataclasses.replace(
                spare_tasks[spare_t % len(spare_tasks)], task_id=next_tid
            )
            next_tid += 1
            spare_t += 1
            tpool.append(fresh_task)
            ops.append(TaskArrive(time=0.0, task=fresh_task))
        script.append(ops)
    return script


def _run(make_engine, tasks, workers, script):
    """Replay one script; returns timings, objectives and elastic stats."""
    engine = make_engine()
    engine.add_tasks(tasks)
    engine.add_workers(workers)
    engine.epoch(0.0)  # first plan (and resident build) excluded from timing
    solve_before = engine.metrics.solve_seconds
    objectives = []
    started = time.perf_counter()
    for ops in script:
        engine.apply_batch(ops)
        outcome = engine.epoch(0.0)
        objectives.append(
            (outcome.objective.min_reliability, outcome.objective.total_std)
        )
    epoch_seconds = time.perf_counter() - started
    elastic_stats = dict(getattr(engine, "elastic_stats", {}) or {})
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    return {
        "epoch_seconds": epoch_seconds,
        "solve_seconds": engine.metrics.solve_seconds - solve_before,
        "objectives": objectives,
        "elastic_stats": elastic_stats,
    }


def run_elastic_experiment(
    num_tasks: int = 60,
    num_workers: int = 8000,
    cohort: int = 600,
    epochs: int = 10,
    stride: float = 0.06,
    worker_churn: int = 40,
    task_churn: int = 6,
    eta: float = 0.08,
    seed: int = 11,
    solver_seed: int = 3,
    rebalance_every: int = 2,
    solve_mode: str = "warm",
    write_json: bool = True,
):
    """Time diff shipping against full re-ship on the marching workload.

    Every row replays the same typed event script; per-epoch objectives
    are asserted bit-identical across rows before anything is recorded.
    """
    config = _local_config(num_tasks, num_workers)
    rng = np.random.default_rng(seed)
    tasks = list(generate_tasks(config, rng))
    workers = _march_cohort(
        list(generate_workers(config, rng)), cohort, seed + 2
    )
    spare_tasks = list(
        generate_tasks(config.with_updates(num_tasks=2 * num_tasks), rng)
    )
    spare_workers = list(
        generate_workers(config.with_updates(num_workers=max(4, num_workers // 8)), rng)
    )
    halo = ShardMap.halo_bound(tasks + spare_tasks, workers + spare_workers)
    script = _marching_script(
        tasks, workers, spare_tasks, spare_workers,
        cohort, epochs, stride, worker_churn, task_churn, seed + 1,
    )

    def policy():
        return RebalancePolicy(
            every=rebalance_every,
            imbalance=1.3,
            min_workers=max(4, num_workers // 200),
        )

    def elastic(diff_shipping, rebalance=True):
        return ElasticShardedAssignmentEngine(
            solver=GreedySolver(), eta=eta, rng=solver_seed,
            num_shards=4, halo=halo, executor="sequential",
            rebalance=policy() if rebalance else None,
            diff_shipping=diff_shipping,
            solve_mode=solve_mode,
        )

    modes = [
        ("single/batched", lambda: AssignmentEngine(
            solver=GreedySolver(), eta=eta, rng=solver_seed,
            solve_mode=solve_mode)),
        ("elastic-4/full-reship", lambda: elastic(False)),
        ("elastic-4/diff", lambda: elastic(True)),
        ("elastic-4/static", lambda: elastic(True, rebalance=False)),
    ]

    rows = []
    reference = None
    baseline_seconds = None
    full_reship_seconds = None
    for label, make_engine in modes:
        outcome = _run(make_engine, tasks, workers, script)
        if reference is None:
            reference = outcome["objectives"]
            baseline_seconds = outcome["epoch_seconds"]
        elif outcome["objectives"] != reference:
            raise AssertionError(f"{label}: objectives diverged from single-shard")
        if label == "elastic-4/full-reship":
            full_reship_seconds = outcome["epoch_seconds"]
        stats = outcome["elastic_stats"]
        row = {
            "mode": label,
            "m_tasks": num_tasks,
            "n_workers": num_workers,
            "cohort": cohort,
            "epochs": epochs,
            "events_per_epoch": cohort + 2 * worker_churn + 2 * task_churn,
            "halo": halo,
            "epoch_seconds": outcome["epoch_seconds"],
            "solve_seconds": outcome["solve_seconds"],
            "epochs_per_second": epochs / outcome["epoch_seconds"],
            "speedup_vs_single": baseline_seconds / outcome["epoch_seconds"],
            "speedup_vs_full_reship": (
                None
                if full_reship_seconds is None
                else full_reship_seconds / outcome["epoch_seconds"]
            ),
        }
        if stats:
            row.update(
                {
                    "ship_bytes": stats["diff_bytes"],
                    "full_ship_bytes": stats["full_bytes"],
                    "ship_fraction": (
                        stats["diff_bytes"] / stats["full_bytes"]
                        if stats["full_bytes"]
                        else None
                    ),
                    "resyncs": stats["resyncs"],
                    "rebalance_ops": stats["rebalance_ops"],
                    "splits": stats["splits"],
                    "merges": stats["merges"],
                    "migrates": stats["migrates"],
                }
            )
        rows.append(row)

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


def test_elastic_diff_shipping_speedup(benchmark, show):
    """The recorded claim: >= 2x throughput, diff bytes < 20% of full."""
    rows = benchmark.pedantic(run_elastic_experiment, rounds=1, iterations=1)

    lines = [
        "Elastic shard residency — diff shipping vs full state re-ship",
        f"{'mode':>22} | {'epochs/s':>9} | {'epoch (s)':>9} | "
        f"{'ship MB':>8} | {'ship %':>7} | {'reshapes':>8}",
    ]
    for row in rows:
        ship = row.get("ship_bytes")
        fraction = row.get("ship_fraction")
        lines.append(
            f"{row['mode']:>22} | {row['epochs_per_second']:9.2f} | "
            f"{row['epoch_seconds']:9.3f} | "
            f"{'-' if ship is None else f'{ship / 1e6:8.2f}'[:8]:>8} | "
            f"{'-' if fraction is None else f'{100 * fraction:6.1f}%':>7} | "
            f"{row.get('rebalance_ops', 0):>8}"
        )
    show("\n".join(lines))

    diff_row = next(row for row in rows if row["mode"] == "elastic-4/diff")
    # The acceptance bar: residency + diff shipping must beat re-shipping
    # the full sub-problems by >= 2x epoch throughput, shipping < 20% of
    # the bytes, while the marching load actually provokes reshapes.
    assert diff_row["speedup_vs_full_reship"] >= 2.0
    assert diff_row["ship_fraction"] < 0.20
    assert diff_row["rebalance_ops"] >= 1
    assert diff_row["resyncs"] == 0
    assert RESULT_PATH.exists()


if __name__ == "__main__":
    for line in run_elastic_experiment():
        print(line)
