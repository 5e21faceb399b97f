"""Shared factories for the test suite.

Beyond the single-entity factories (``make_task`` / ``make_worker``),
this module holds the scenario builders the engine-era test files used
to duplicate:

* :func:`make_pools` — seeded task/worker pools from the experiment
  generator (sized and tuned per call site).
* :func:`seed_population` — load an engine with a canonical random
  population.
* :class:`ScriptedChurn` / :func:`drive` — the canonical deterministic
  small-churn trace: every differential test family (durable replay,
  wire-vs-direct, kill-and-resume) consumes this one stream, so "same
  trace" always means the same bytes.
* :class:`MarchingChurn` / :class:`HotspotChurn` /
  :class:`OscillatingChurn` (``DRIFT_SCENARIOS``) — adversarial load
  drift traces for the elastic-shard differential tests.
* :func:`populate_small` — the two-entity population lifecycle tests use.
"""

import builtins
import math

import numpy as np
import pytest

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point


def make_task(
    task_id: int = 0,
    x: float = 0.5,
    y: float = 0.5,
    start: float = 0.0,
    end: float = 10.0,
    beta: float = 0.5,
) -> SpatialTask:
    """A task with innocuous defaults."""
    return SpatialTask(task_id, Point(x, y), start, end, beta)


def make_worker(
    worker_id: int = 0,
    x: float = 0.0,
    y: float = 0.0,
    velocity: float = 1.0,
    cone: AngleInterval = None,
    confidence: float = 0.9,
    depart_time: float = 0.0,
) -> MovingWorker:
    """A worker with innocuous defaults (full-circle cone)."""
    return MovingWorker(
        worker_id,
        Point(x, y),
        velocity,
        cone if cone is not None else AngleInterval.full_circle(),
        confidence,
        depart_time,
    )


def make_pools(
    seed,
    num_tasks=60,
    num_workers=120,
    velocity_range=None,
    expiration_range=None,
):
    """Seeded task/worker pools from the experiment generator.

    The optional range overrides serve call sites with special needs
    (e.g. the sharding tests' slow workers, which make a sub-unit halo
    provably safe).
    """
    from repro.datagen import ExperimentConfig, generate_tasks, generate_workers

    config = ExperimentConfig.scaled_defaults(
        num_tasks=num_tasks, num_workers=num_workers
    )
    updates = {}
    if velocity_range is not None:
        updates["velocity_range"] = velocity_range
    if expiration_range is not None:
        updates["expiration_range"] = expiration_range
    if updates:
        config = config.with_updates(**updates)
    rng = np.random.default_rng(seed)
    return list(generate_tasks(config, rng)), list(generate_workers(config, rng))


def seed_population(engine, num_tasks=10, num_workers=30, seed=7, end_lo=3.0):
    """Load an engine with a canonical random starting population."""
    rng = np.random.default_rng(seed)
    engine.add_tasks(
        [
            make_task(
                i,
                x=float(rng.uniform()),
                y=float(rng.uniform()),
                end=float(rng.uniform(end_lo, end_lo + 4.0)),
            )
            for i in range(num_tasks)
        ]
    )
    engine.add_workers(
        [
            make_worker(
                i,
                x=float(rng.uniform()),
                y=float(rng.uniform()),
                velocity=0.3,
                confidence=0.8,
            )
            for i in range(num_workers)
        ]
    )


class ScriptedChurn:
    """The canonical deterministic churn stream differential twins share.

    Step ``k`` adds worker ``1000 + k``, moves worker ``k`` on even
    steps, and adds task ``500 + k`` when ``k % 3 == 2`` — enough kinds
    of churn to exercise arrivals, in-place updates and task arrivals
    while staying bit-reproducible from the seed.
    """

    def __init__(self, seed=42):
        self.rng = np.random.default_rng(seed)

    def step(self, engine, k):
        """Apply step ``k``'s churn to ``engine`` (advances the RNG)."""
        engine.add_worker(
            make_worker(
                1000 + k,
                x=float(self.rng.uniform()),
                y=float(self.rng.uniform()),
                velocity=0.25,
                confidence=0.7,
                depart_time=float(k),
            )
        )
        if k % 2 == 0 and k in engine.workers:
            moved = engine.workers[k].moved_to(
                Point(float(self.rng.uniform()), float(self.rng.uniform())),
                float(k),
            )
            engine.update_worker(moved)
        if k % 3 == 2 and (500 + k) not in engine.tasks:
            engine.add_task(
                make_task(
                    500 + k,
                    x=float(self.rng.uniform()),
                    y=float(self.rng.uniform()),
                    start=float(k),
                    end=float(k) + 4.0,
                )
            )

    def events(self, engine_view, k):
        """Step ``k`` as typed events instead of engine calls.

        ``engine_view`` only needs ``workers``/``tasks`` mappings; the
        wire tests use this to send the identical trace through a server
        while a twin engine consumes :meth:`step` directly.
        """
        from repro.engine import events as ev

        out = [
            ev.WorkerArrive(
                time=float(k),
                worker=make_worker(
                    1000 + k,
                    x=float(self.rng.uniform()),
                    y=float(self.rng.uniform()),
                    velocity=0.25,
                    confidence=0.7,
                    depart_time=float(k),
                ),
            )
        ]
        if k % 2 == 0 and k in engine_view.workers:
            out.append(
                ev.WorkerUpdate(
                    time=float(k),
                    worker=engine_view.workers[k].moved_to(
                        Point(
                            float(self.rng.uniform()), float(self.rng.uniform())
                        ),
                        float(k),
                    ),
                )
            )
        if k % 3 == 2 and (500 + k) not in engine_view.tasks:
            out.append(
                ev.TaskArrive(
                    time=float(k),
                    task=make_task(
                        500 + k,
                        x=float(self.rng.uniform()),
                        y=float(self.rng.uniform()),
                        start=float(k),
                        end=float(k) + 4.0,
                    ),
                )
            )
        return out


def drive(engine, churn, epochs, start=0):
    """Run the scripted trace: churn + epoch per step, plans collected."""
    plans = []
    for k in range(start, epochs):
        churn.step(engine, k)
        result = engine.epoch(float(k))
        plans.append((sorted(result.dispatch.items()), result.mode))
    return plans


class MarchingChurn:
    """A worker cohort marching left-to-right across the unit square.

    Step 0 lands ``cohort`` workers near ``x = 0.04`` plus a lane of
    long-lived tasks; every later step advances each cohort worker by
    ``stride`` with a seeded y-jitter, and every third step drops a
    fresh task just ahead of the front.  The load mass crosses shard
    block boundaries as it marches, which is exactly what provokes the
    elastic engine's split/migrate decisions.
    """

    def __init__(self, seed=11, cohort=18, stride=0.09):
        self.rng = np.random.default_rng(seed)
        self.cohort = cohort
        self.stride = stride

    def step(self, engine, k):
        """Apply step ``k``'s churn to ``engine`` (advances the RNG)."""
        if k == 0:
            ys = self.rng.uniform(0.05, 0.95, size=self.cohort)
            engine.add_workers(
                [
                    make_worker(
                        2000 + i,
                        x=0.04,
                        y=float(ys[i]),
                        velocity=0.3,
                        confidence=0.8,
                    )
                    for i in range(self.cohort)
                ]
            )
            lane = self.rng.uniform(0.05, 0.95, size=(6, 2))
            engine.add_tasks(
                [
                    make_task(
                        800 + j,
                        x=float(lane[j, 0]),
                        y=float(lane[j, 1]),
                        end=40.0,
                    )
                    for j in range(6)
                ]
            )
            return
        jitter = self.rng.uniform(-0.04, 0.04, size=self.cohort)
        front = 0.0
        for i in range(self.cohort):
            worker = engine.workers[2000 + i]
            x = min(0.96, worker.location.x + self.stride)
            y = min(0.96, max(0.04, worker.location.y + float(jitter[i])))
            front = max(front, x)
            engine.update_worker(worker.moved_to(Point(x, y), float(k)))
        ahead = self.rng.uniform(0.04, 0.96)
        if k % 3 == 0:
            engine.add_task(
                make_task(
                    850 + k,
                    x=min(0.96, front + 0.05),
                    y=float(ahead),
                    start=float(k),
                    end=float(k) + 8.0,
                )
            )


class HotspotChurn:
    """Flash crowds: worker bursts pile onto one spot, then vanish.

    Every even step spawns a burst of ``burst`` workers tightly packed
    around a seeded hotspot (plus a task at its centre); each burst is
    removed wholesale ``life`` steps later.  Shard loads spike and drain
    abruptly — the scenario that exercises merge-of-drained-shards.
    """

    def __init__(self, seed=13, burst=10, life=3):
        self.rng = np.random.default_rng(seed)
        self.burst = burst
        self.life = life

    def step(self, engine, k):
        """Apply step ``k``'s churn to ``engine`` (advances the RNG)."""
        centre = self.rng.uniform(0.1, 0.9, size=2)
        spread = self.rng.uniform(-0.03, 0.03, size=(self.burst, 2))
        if k % 2 == 0:
            engine.add_workers(
                [
                    make_worker(
                        3000 + 100 * k + i,
                        x=float(centre[0] + spread[i, 0]),
                        y=float(centre[1] + spread[i, 1]),
                        velocity=0.3,
                        confidence=0.8,
                    )
                    for i in range(self.burst)
                ]
            )
            engine.add_task(
                make_task(
                    900 + k,
                    x=float(centre[0]),
                    y=float(centre[1]),
                    start=float(k),
                    end=float(k) + 6.0,
                )
            )
        expired = k - self.life
        if expired >= 0 and expired % 2 == 0:
            for i in range(self.burst):
                worker_id = 3000 + 100 * expired + i
                if worker_id in engine.workers:
                    engine.remove_worker(worker_id)


class OscillatingChurn:
    """A cohort sloshing between opposite corners every ``period`` steps.

    The whole population teleports its drift target between the lower
    left and upper right corners, so shard loads oscillate instead of
    trending — the adversarial case for a rebalancer that chases the
    current hot block (it must not thrash the topology into a bad
    state or break plan identity while doing so).
    """

    def __init__(self, seed=17, cohort=16, period=3):
        self.rng = np.random.default_rng(seed)
        self.cohort = cohort
        self.period = period

    def step(self, engine, k):
        """Apply step ``k``'s churn to ``engine`` (advances the RNG)."""
        offsets = self.rng.uniform(0.0, 0.25, size=(self.cohort, 2))
        if k == 0:
            engine.add_workers(
                [
                    make_worker(
                        4000 + i,
                        x=float(0.05 + offsets[i, 0]),
                        y=float(0.05 + offsets[i, 1]),
                        velocity=0.3,
                        confidence=0.8,
                    )
                    for i in range(self.cohort)
                ]
            )
            spots = self.rng.uniform(0.1, 0.9, size=(5, 2))
            engine.add_tasks(
                [
                    make_task(
                        950 + j,
                        x=float(spots[j, 0]),
                        y=float(spots[j, 1]),
                        end=40.0,
                    )
                    for j in range(5)
                ]
            )
            return
        corner = 0.05 if (k // self.period) % 2 == 0 else 0.70
        for i in range(self.cohort):
            worker = engine.workers[4000 + i]
            engine.update_worker(
                worker.moved_to(
                    Point(
                        float(corner + offsets[i, 0]),
                        float(corner + offsets[i, 1]),
                    ),
                    float(k),
                )
            )


DRIFT_SCENARIOS = {
    "marching": MarchingChurn,
    "hotspot": HotspotChurn,
    "oscillating": OscillatingChurn,
}


def populate_small(engine):
    """The two-entity population the lifecycle tests solve over."""
    engine.add_task(make_task(0, end=9.0))
    engine.add_worker(make_worker(0, x=0.2, y=0.5))


@pytest.fixture
def task_factory():
    return make_task


@pytest.fixture
def worker_factory():
    return make_worker


# --------------------------------------------------------------------- #
# Python 3.12's sum() on any interpreter
# --------------------------------------------------------------------- #

PLAIN_SUM = sum


def compensated_sum(iterable, start=0):
    """A Neumaier-compensated ``sum()`` over floats, as Python 3.12's is.

    Anything other than a start of ``0`` and all-``float`` items goes to
    the plain builtin, so the stand-in only changes float sums.
    """
    items = list(iterable)
    if start != 0 or not items or any(type(x) is not float for x in items):
        return PLAIN_SUM(items, start)
    total, compensation = 0.0 + items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def running_sum(iterable, start=0):
    """A left-to-right ``sum()``, as the builtin is up to Python 3.11."""
    total = start
    for x in iterable:
        total = total + x
    return total


@pytest.fixture(scope="class")
def compensated_builtin_sum():
    """Swap the builtin ``sum()`` for :func:`compensated_sum` for a class.

    From Python 3.12 on the builtin ``sum()`` of floats is compensated,
    so bitwise pins over code that sums with it must hold under both
    semantics.  A class using this fixture runs under 3.12's algorithm on
    any interpreter; the same cases run unpatched elsewhere.  Class scope
    keeps Hypothesis tests in the class free of function-scoped fixtures.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "sum", compensated_sum)
        yield
