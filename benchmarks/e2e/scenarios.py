"""Seeded input builders for the four end-to-end workloads.

Every builder is a pure function of its seed and sizes: the same call
returns the same populations and the same per-epoch event batches, so a
run, its traced twin, its reference replay and its ladder rungs all see
one script.  The engines and the server only ever receive what these
functions generate — the seed itself never reaches the program under
test.

The *population* (who the tasks and workers are, and the pool of spares
that replace them) is part of the frozen workload definition: it is
drawn from ``POPULATION_SEED``, not from the run's seed.  The run's seed
drives everything that *happens* to it — who moves and where, who leaves
and which task is withdrawn, the Poisson schedule and the request mix.
A few hundred entities are too few for the law of large numbers: two
populations drawn at these sizes differ by 15-20 % in solve cost, which
would swamp any change the benchmark is meant to detect, while the same
population under different churn repeats within a few percent.

The churn shapes are deliberately different per workload, because each
one exists to load a different layer:

* :func:`solve_full_scenario` — task-side churn (withdraw + arrive) and
  a thin worker jitter on a mid-density instance: the solve dominates.
* :func:`sample_pool_scenario` — wide worker jitter on a sampling-heavy
  instance: the parallel sample fan-out dominates.
* :func:`drift_elastic_scenario` — a dense cohort marching across the
  unit square and *bouncing* at the edges over a large background fleet,
  plus worker arrive/leave and task replacement: index maintenance,
  shard routing/diffs/rebalance and WAL appends dominate.
* :func:`wire_scenario` — the same kind of population expressed as wire
  requests: registration, scripted verification rounds, a mixed
  open-loop stream (pings / worker arrive+leave / task submit+withdraw
  with consistent ids) and closed-loop ping chunks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import (
    ShardMap,
    TaskArrive,
    TaskWithdraw,
    WorkerArrive,
    WorkerLeave,
    WorkerUpdate,
)
from repro.geometry.points import Point
from repro.serve import protocol as proto

#: Replacement entities get ids from here up, so they never collide with
#: a generated population (whose ids start at 0).
FRESH_ID_BASE = 10**6
#: The frozen populations are drawn from this seed (see the module notes).
POPULATION_SEED = 11


@dataclass
class Scenario:
    """One direct-engine workload's inputs.

    Attributes:
        tasks / workers: the initial population, registered during set-up.
        script: one typed event batch per epoch, applied with
            ``apply_batch`` before that epoch's ``epoch()``.
        halo: the shard halo safe for every entity the script can
            introduce (sharded workloads only).
    """

    tasks: List[SpatialTask]
    workers: List[MovingWorker]
    script: List[list]
    halo: Optional[float] = None


def mid_density_config(num_tasks: int, num_workers: int) -> ExperimentConfig:
    """Enough valid pairs per task that greedy rounds and samples vary."""
    return ExperimentConfig.scaled_defaults(
        num_tasks=num_tasks, num_workers=num_workers
    ).with_updates(velocity_range=(0.05, 0.12), expiration_range=(0.4, 1.0))


def local_config(num_tasks: int, num_workers: int) -> ExperimentConfig:
    """Slow workers, short windows: tight reach, so shard halos stay small."""
    return ExperimentConfig(
        num_tasks=num_tasks,
        num_workers=num_workers,
        start_time_range=(0.0, 0.5),
        expiration_range=(0.5, 1.0),
        velocity_range=(0.02, 0.06),
        angle_range_max=math.pi / 4.0,
    )


def _moved(worker: MovingWorker, x: float, y: float) -> MovingWorker:
    return worker.moved_to(Point(float(x), float(y)), worker.depart_time)


def _jitter_updates(
    pool: List[MovingWorker], indices: Sequence[int], rng, sigma: float
) -> List[WorkerUpdate]:
    """Move ``pool[indices]`` by a Gaussian step (clipped to the square)."""
    steps = rng.normal(0.0, sigma, size=(len(indices), 2))
    ops = []
    for index, (dx, dy) in zip(indices, steps):
        worker = pool[index]
        moved = _moved(
            worker,
            min(1.0, max(0.0, worker.location.x + dx)),
            min(1.0, max(0.0, worker.location.y + dy)),
        )
        pool[index] = moved
        ops.append(WorkerUpdate(time=0.0, worker=moved))
    return ops


class _Replacer:
    """Withdraw-one / arrive-one churn over a live pool with fresh ids."""

    def __init__(self, pool: list, spares: list, id_field: str) -> None:
        self.pool = pool
        self.spares = spares
        self.id_field = id_field
        self.next_id = FRESH_ID_BASE
        self.used = 0

    def replace(self, index: int):
        """Pop ``pool[index]``; returns ``(gone, fresh)``."""
        gone = self.pool.pop(index)
        fresh = dataclasses.replace(
            self.spares[self.used % len(self.spares)],
            **{self.id_field: self.next_id},
        )
        self.next_id += 1
        self.used += 1
        self.pool.append(fresh)
        return gone, fresh


def _task_replacements(replacer: _Replacer, rng, count: int) -> list:
    """``count`` withdraw + arrive pairs; ``rng=None`` retires the oldest."""
    ops = []
    for _ in range(count):
        index = 0 if rng is None else int(rng.integers(0, len(replacer.pool)))
        gone, fresh = replacer.replace(index)
        ops.append(TaskWithdraw(time=0.0, task_id=gone.task_id))
        ops.append(TaskArrive(time=0.0, task=fresh))
    return ops


def solve_full_scenario(
    seed: int,
    epochs: int,
    num_tasks: int,
    num_workers: int,
    task_churn: int = 4,
    jitter_share: float = 0.05,
) -> Scenario:
    """Task replacement plus thin worker jitter on a mid-density instance.

    Tasks complete in posting order (the oldest is withdrawn, a spare
    arrives), so the live task set at epoch ``e`` is the same for every
    seed; the seed moves the workers.  Random withdrawal was tried first:
    at 100 tasks it made the solve cost drift by +-4 % from seed to seed.
    """
    config = mid_density_config(num_tasks, num_workers)
    rng = np.random.default_rng(POPULATION_SEED)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    spare_tasks = list(generate_tasks(config, rng))
    rng = np.random.default_rng(seed)
    replacer = _Replacer(list(tasks), spare_tasks, "task_id")
    pool = list(workers)
    moves = max(1, int(num_workers * jitter_share))
    script = []
    for _ in range(epochs):
        ops = _task_replacements(replacer, None, task_churn)
        ops += _jitter_updates(
            pool, rng.choice(len(pool), size=moves, replace=False), rng, 0.004
        )
        script.append(ops)
    return Scenario(tasks, workers, script)


def sample_pool_scenario(
    seed: int,
    epochs: int,
    num_tasks: int,
    num_workers: int,
    jitter_share: float = 0.30,
) -> Scenario:
    """Wide GPS jitter (30 % of the fleet per epoch), no lifecycle churn."""
    config = mid_density_config(num_tasks, num_workers)
    rng = np.random.default_rng(POPULATION_SEED)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    rng = np.random.default_rng(seed)
    pool = list(workers)
    moves = max(1, int(num_workers * jitter_share))
    script = [
        _jitter_updates(
            pool, rng.choice(len(pool), size=moves, replace=False), rng, 0.004
        )
        for _ in range(epochs)
    ]
    return Scenario(tasks, workers, script)


def drift_elastic_scenario(
    seed: int,
    epochs: int,
    num_tasks: int,
    num_workers: int,
    cohort: int,
    stride: float = 0.06,
    worker_churn: int = 40,
    task_churn: int = 6,
) -> Scenario:
    """A bouncing marching cohort over a large static background fleet.

    The first ``cohort`` workers start packed in a strip at the left
    edge; every epoch each takes one ``stride`` along x (plus a small
    y-jitter) and reflects at the edges, so the dense wavefront keeps
    crossing shard block boundaries for as long as the run lasts.
    ``worker_churn`` background workers leave and as many fresh ones
    arrive, and ``task_churn`` tasks are replaced, per epoch.
    """
    config = local_config(num_tasks, num_workers)
    rng = np.random.default_rng(POPULATION_SEED)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    start_x = rng.uniform(0.0, 0.12, size=cohort)
    for index in range(cohort):
        workers[index] = _moved(
            workers[index], start_x[index], workers[index].location.y
        )
    spare_tasks = list(
        generate_tasks(config.with_updates(num_tasks=2 * num_tasks), rng)
    )
    spare_workers = list(
        generate_workers(
            config.with_updates(num_workers=max(4, num_workers // 8)), rng
        )
    )
    halo = ShardMap.halo_bound(tasks + spare_tasks, workers + spare_workers)

    rng = np.random.default_rng(seed)
    pool = list(workers)
    worker_replacer = _Replacer(pool, spare_workers, "worker_id")
    task_replacer = _Replacer(list(tasks), spare_tasks, "task_id")
    heading = [1.0] * cohort
    lo, hi = 0.02, 0.98
    script = []
    for _ in range(epochs):
        ops = []
        wobble = rng.normal(0.0, 0.01, size=cohort)
        for index in range(cohort):
            worker = pool[index]
            x = worker.location.x + heading[index] * stride
            if x > hi:
                x, heading[index] = hi - (x - hi), -1.0
            elif x < lo:
                x, heading[index] = lo + (lo - x), 1.0
            moved = _moved(
                worker, x, min(1.0, max(0.0, worker.location.y + wobble[index]))
            )
            pool[index] = moved
            ops.append(WorkerUpdate(time=0.0, worker=moved))
        for _ in range(worker_churn):
            # The cohort occupies pool[:cohort] for the whole run: only
            # background workers leave, and arrivals append at the end.
            gone, fresh = worker_replacer.replace(
                int(rng.integers(cohort, len(pool)))
            )
            ops.append(WorkerLeave(time=0.0, worker_id=gone.worker_id))
            ops.append(WorkerArrive(time=0.0, worker=fresh))
        ops += _task_replacements(task_replacer, rng, task_churn)
        script.append(ops)
    return Scenario(tasks, workers, script, halo=halo)


# ---------------------------------------------------------------------- #
# Wire requests
# ---------------------------------------------------------------------- #


@dataclass
class WireScenario:
    """The wire workload's inputs, as typed requests in send order.

    Request ids are unique within each list and within each closed-loop
    chunk — all a pipelining client needs to correlate acks.

    Attributes:
        registration: task submissions then one ping per worker.
        rounds: the scripted verification rounds (awaited ping chunks;
            the client issues an ``epoch`` after each).
        stream: the open-loop fleet requests, in due order.
        due_s: each stream request's due offset in seconds (Poisson).
        chunks: closed-loop ping chunks, cycled by the client.
    """

    tasks: List[SpatialTask]
    workers: List[MovingWorker]
    registration: List[proto.Request]
    rounds: List[List[proto.Request]]
    stream: List[proto.Request]
    due_s: List[float]
    chunks: List[List[proto.Request]] = field(default_factory=list)


def wire_scenario(
    seed: int,
    num_tasks: int,
    num_workers: int,
    rate_hz: float,
    stream_seconds: float,
    rounds: int = 10,
    round_pings: int = 256,
    chunk_size: int = 128,
    num_chunks: int = 256,
    ping_share: float = 0.90,
    lifecycle_share: float = 0.05,
    extras: int = 8,
) -> WireScenario:
    """Registration, verification rounds, the mixed stream and the chunks.

    The stream is 90 % pings of registered workers (in-place, foldable),
    5 % worker lifecycle (an unknown id's first ping registers it; a
    later request deregisters it) and 5 % task lifecycle (submit, later
    withdraw).  Only entities the stream itself introduced ever leave,
    so the registered population — and with it every ping's validity —
    is independent of how the server batches the stream.  Each kind
    arrives until ``extras`` of it are live and then alternates leave /
    arrive (the seed picks who leaves), so the live population is the
    same size for every seed: a free random walk let it drift by tens of
    tasks, and the epoch cost with it.
    """
    config = local_config(num_tasks, num_workers)
    rng = np.random.default_rng(POPULATION_SEED)
    tasks = list(generate_tasks(config, rng))
    workers = list(generate_workers(config, rng))
    spare_tasks = list(generate_tasks(config, rng))
    spare_workers = list(
        generate_workers(config.with_updates(num_workers=512), rng)
    )
    rng = np.random.default_rng(seed)
    pool = list(workers)

    def ping(request_id: int) -> proto.WorkerPing:
        index = int(rng.integers(0, len(pool)))
        (op,) = _jitter_updates(pool, [index], rng, 0.01)
        return proto.WorkerPing(request_id, 0.0, op.worker)

    registration: List[proto.Request] = [
        proto.SubmitTask(k + 1, 0.0, task) for k, task in enumerate(tasks)
    ]
    registration += [
        proto.WorkerPing(len(tasks) + k + 1, 0.0, worker)
        for k, worker in enumerate(workers)
    ]
    round_requests = [
        [ping(k + 1) for k in range(round_pings)] for _ in range(rounds)
    ]

    due_s: List[float] = []
    clock = 0.0
    while True:
        clock += float(rng.exponential(1.0 / rate_hz))
        if clock >= stream_seconds:
            break
        due_s.append(clock)
    extra_workers: List[int] = []
    extra_tasks: List[int] = []
    next_worker = next_task = FRESH_ID_BASE
    stream: List[proto.Request] = []
    kinds = rng.random(len(due_s))
    for k, kind in enumerate(kinds):
        request_id = k + 1
        if kind < ping_share:
            stream.append(ping(request_id))
        elif kind < ping_share + lifecycle_share:
            if len(extra_workers) >= extras:
                gone = extra_workers.pop(int(rng.integers(0, len(extra_workers))))
                stream.append(proto.WorkerLeave(request_id, 0.0, gone))
            else:
                fresh = dataclasses.replace(
                    spare_workers[next_worker % len(spare_workers)],
                    worker_id=next_worker,
                )
                extra_workers.append(next_worker)
                next_worker += 1
                stream.append(proto.WorkerPing(request_id, 0.0, fresh))
        else:
            if len(extra_tasks) >= extras:
                gone = extra_tasks.pop(int(rng.integers(0, len(extra_tasks))))
                stream.append(proto.WithdrawTask(request_id, 0.0, gone))
            else:
                fresh_task = dataclasses.replace(
                    spare_tasks[next_task % len(spare_tasks)], task_id=next_task
                )
                extra_tasks.append(next_task)
                next_task += 1
                stream.append(proto.SubmitTask(request_id, 0.0, fresh_task))
    chunks = [
        [ping(k + 1) for k in range(chunk_size)] for _ in range(num_chunks)
    ]
    return WireScenario(
        tasks, workers, registration, round_requests, stream, due_s, chunks
    )
