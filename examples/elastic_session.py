"""A drifting population on the sharded engine: static tiling, then elastic.

A worker cohort marches across the unit square over a static background
fleet, dragging load from shard block to shard block.  The same typed
event script is replayed four times: through the single-grid
``AssignmentEngine`` (the bit-identity reference), then through
``ElasticShardedAssignmentEngine`` at four shards — first on its static
tiling (``rebalance=None``: the blocks never move, the load lands where
it lands), then under a live ``RebalancePolicy`` with diff shipping off
(every epoch re-ships each resident's full sub-problem) and on
(residents advance by O(delta) ``ShardDiff`` packets).  The script shows
the split/merge/migrate reshapes the marching load provokes —
WAL-loggable, plan-invisible — and the shipped-bytes gap residency buys.

Run with ``PYTHONPATH=src python examples/elastic_session.py``.
"""

import math
import time

import numpy as np

from repro.algorithms import GreedySolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    RebalancePolicy,
    WorkerUpdate,
)
from repro.geometry.points import Point

EPOCHS = 6
COHORT = 300        # the marching wavefront
STRIDE = 0.09       # how far it advances per epoch


def build_workload(seed=43):
    """A fleet with a left-edge cohort plus its marching event script."""
    config = ExperimentConfig(
        num_tasks=40,
        num_workers=2000,
        start_time_range=(0.0, 0.5),
        expiration_range=(0.5, 1.0),
        velocity_range=(0.02, 0.06),   # slow workers: tight validity reach
        angle_range_max=math.pi / 4.0,
    )
    rng = np.random.default_rng(seed)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    for index in range(COHORT):       # pack the cohort against the left edge
        worker = workers[index]
        workers[index] = worker.moved_to(
            Point(float(rng.uniform(0.0, 0.1)), worker.location.y),
            worker.depart_time,
        )

    cohort = [workers[index] for index in range(COHORT)]
    script = []
    for _ in range(EPOCHS):
        ops = []
        for index, worker in enumerate(cohort):
            marched = worker.moved_to(
                Point(
                    float(min(0.98, worker.location.x + STRIDE)),
                    float(np.clip(worker.location.y + rng.normal(0, 0.01), 0, 1)),
                ),
                worker.depart_time,
            )
            cohort[index] = marched
            ops.append(WorkerUpdate(time=0.0, worker=marched))
        script.append(ops)
    return tasks, workers, script


def replay(engine, tasks, workers, script):
    """Feed the script through one engine; returns the run summary."""
    engine.add_tasks(tasks)
    engine.add_workers(workers)
    engine.epoch(0.0)   # first plan (and resident build) excluded
    objectives = []
    started = time.perf_counter()
    for ops in script:
        engine.apply_batch(ops)
        outcome = engine.epoch(0.0)
        objectives.append(
            (outcome.objective.min_reliability, outcome.objective.total_std)
        )
    seconds = time.perf_counter() - started
    stats = dict(getattr(engine, "elastic_stats", {}) or {})
    close = getattr(engine, "close", None)
    if close is not None:
        close()
    return seconds, objectives, stats


def main():
    """Replay the marching stream and print the residency comparison."""
    tasks, workers, script = build_workload()
    print(
        f"{len(tasks)} tasks x {len(workers)} workers, {EPOCHS} epochs, "
        f"a {COHORT}-worker cohort marching {STRIDE} per epoch\n"
    )

    def sharded(diff_shipping=True, rebalance=None):
        return ElasticShardedAssignmentEngine(
            solver=GreedySolver(), eta=0.08, rng=3, num_shards=4,
            rebalance=rebalance, diff_shipping=diff_shipping,
        )

    def policy():
        return RebalancePolicy(every=2, imbalance=1.3, min_workers=10)

    rows = []
    for label, make_engine in (
        ("single engine", lambda: AssignmentEngine(
            solver=GreedySolver(), eta=0.08, rng=3)),
        ("static x4, diff shipping", sharded),
        ("elastic x4, full re-ship", lambda: sharded(False, policy())),
        ("elastic x4, diff shipping", lambda: sharded(True, policy())),
    ):
        seconds, objectives, stats = replay(make_engine(), tasks, workers, script)
        rows.append((label, seconds, objectives, stats))

    reference = rows[0][2]
    for label, _, objectives, _ in rows[1:]:
        assert objectives == reference, f"{label} diverged from the single engine"

    print(f"{'mode':>26} | {'epochs/s':>9} | {'shipped':>10} | reshapes")
    for label, seconds, _, stats in rows:
        shipped = (
            f"{stats['diff_bytes'] / 1e3:8.1f}kB" if stats else f"{'-':>10}"
        )
        reshapes = (
            f"{stats['splits']}s/{stats['merges']}m/{stats['migrates']}g"
            if stats
            else "-"
        )
        print(f"{label:>26} | {EPOCHS / seconds:9.2f} | {shipped:>10} | {reshapes}")

    diff_stats = rows[3][3]
    print(
        f"\nDiff shipping moved {diff_stats['diff_bytes'] / 1e3:.1f}kB where "
        f"full re-ship moves {diff_stats['full_bytes'] / 1e3:.1f}kB "
        f"({100 * diff_stats['diff_bytes'] / diff_stats['full_bytes']:.1f}%), "
        f"with {diff_stats['rebalance_ops']} live reshapes and "
        f"{diff_stats['resyncs']} resyncs;"
        "\nevery epoch's (min reliability, total E[STD]) matched bit for bit."
    )


if __name__ == "__main__":
    main()
