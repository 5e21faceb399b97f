"""Differential churn equivalence: incremental state == from-scratch state.

Randomised add / remove / update / expire sequences drive an
:class:`AssignmentEngine`, and at every checkpoint three representations
are compared bit-for-bit against freshly built ground truth:

* the grid's incrementally cached pair set vs a from-scratch
  ``RdbscGrid.bulk_load`` retrieval vs the no-index brute-force scan
  (pairs *and* arrivals),
* the slot-stable worker slab vs a one-shot ``from_workers`` pack
  (every column),
* an engine epoch vs a fresh ``RdbscProblem`` + fresh solver run with the
  same seed (assignment edges and objective values).

Both backends are exercised; the suite carries the ``churn`` marker so it
can be selected (or deselected) on its own: ``pytest -m churn``.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.core.problem import RdbscProblem
from repro.engine import AssignmentEngine
from repro.fastpath.arrays import WorkerArrays
from repro.geometry.points import Point
from repro.index.grid import RdbscGrid, retrieve_pairs_without_index
from tests.conftest import make_pools

pytestmark = pytest.mark.churn

ETA = 0.125

WORKER_COLUMNS = (
    "ids", "xs", "ys", "velocities", "cone_los", "cone_widths",
    "confidences", "depart_times", "log_weights",
)


def pair_key(pairs):
    """Canonical, rounding-sensitive view of a pair list."""
    return sorted((p.task_id, p.worker_id, p.arrival) for p in pairs)


class ChurnDriver:
    """Applies one random op stream to an engine and a mirror of dicts."""

    def __init__(self, backend, seed):
        task_pool, worker_pool = make_pools(seed)
        self.engine = AssignmentEngine(
            solver=GreedySolver(), backend=backend, eta=ETA, rng=seed
        )
        self.rng = np.random.default_rng(seed + 1)
        self.now = 0.0
        self.task_pool = task_pool[20:]
        self.worker_pool = worker_pool[40:]
        self.tasks = {}
        self.workers = {}
        for task in task_pool[:20]:
            self._add_task(task)
        for worker in worker_pool[:40]:
            self._add_worker(worker)

    # -- mirrored ops ---------------------------------------------------- #

    def _add_task(self, task):
        self.tasks[task.task_id] = task
        self.engine.add_task(task)

    def _add_worker(self, worker):
        self.workers[worker.worker_id] = worker
        self.engine.add_worker(worker)

    def step(self):
        roll = int(self.rng.integers(0, 10))
        if roll == 0 and self.task_pool:
            self._add_task(self.task_pool.pop())
        elif roll == 1 and len(self.tasks) > 4:
            task_id = list(self.tasks)[int(self.rng.integers(0, len(self.tasks)))]
            del self.tasks[task_id]
            self.engine.withdraw_task(task_id)
        elif roll in (2, 3) and self.worker_pool:
            self._add_worker(self.worker_pool.pop())
        elif roll in (4, 5) and len(self.workers) > 8:
            worker_id = list(self.workers)[int(self.rng.integers(0, len(self.workers)))]
            del self.workers[worker_id]
            self.engine.remove_worker(worker_id)
        elif roll in (6, 7) and self.workers:
            # In-place update: position jitter (same cell or cross-cell),
            # fresh departure, sometimes a new confidence.
            worker_id = list(self.workers)[int(self.rng.integers(0, len(self.workers)))]
            worker = self.workers[worker_id]
            scale = 0.01 if roll == 6 else 0.2
            moved = worker.moved_to(
                Point(
                    float(np.clip(worker.location.x + self.rng.normal(0.0, scale), 0.0, 1.0)),
                    float(np.clip(worker.location.y + self.rng.normal(0.0, scale), 0.0, 1.0)),
                ),
                self.now,
            )
            if roll == 7:
                moved = dataclasses.replace(
                    moved, confidence=float(self.rng.uniform(0.5, 0.99))
                )
            self.workers[worker_id] = moved
            self.engine.update_worker(moved)
        elif roll == 8:
            self.now += float(self.rng.uniform(0.0, 0.05))
            expired = {
                t.task_id for t in self.tasks.values() if t.expired_at(self.now)
            }
            assert set(self.engine.expire_tasks(self.now)) == expired
            for task_id in expired:
                del self.tasks[task_id]
        # roll == 9: no-op step (quiet period)

    # -- ground truth ----------------------------------------------------- #

    def task_list(self):
        return list(self.tasks.values())

    def worker_list(self):
        return list(self.workers.values())


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("seed", [3, 17])
def test_incremental_pairs_match_fresh_builds(backend, seed):
    driver = ChurnDriver(backend, seed)
    driver.engine.epoch(driver.now)  # populate every cache entry
    for checkpoint in range(6):
        for _ in range(15):
            driver.step()
        incremental = pair_key(driver.engine.current_pairs())
        fresh_grid = RdbscGrid.bulk_load(
            driver.task_list(), driver.worker_list(), ETA, backend=backend
        )
        assert incremental == pair_key(fresh_grid.valid_pairs()), checkpoint
        assert incremental == pair_key(
            retrieve_pairs_without_index(driver.task_list(), driver.worker_list())
        ), checkpoint


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_slot_arrays_match_fresh_pack(backend):
    driver = ChurnDriver(backend, seed=11)
    for _ in range(80):
        driver.step()
    engine = driver.engine
    workers, warrays = engine.worker_slots.compact()
    assert {w.worker_id for w in workers} == set(driver.workers)
    fresh = WorkerArrays.from_workers(workers)
    for column in WORKER_COLUMNS:
        assert np.array_equal(
            getattr(warrays, column), getattr(fresh, column), equal_nan=True
        ), column


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize(
    "make_solver",
    [lambda: GreedySolver(), lambda: SamplingSolver(num_samples=12)],
    ids=["greedy", "sampling"],
)
def test_epoch_matches_fresh_problem_solve(backend, make_solver):
    seed = 29
    driver = ChurnDriver(backend, seed)
    driver.engine.solver = make_solver()
    for checkpoint in range(3):
        for _ in range(20):
            driver.step()
        # Expire on both sides first so the epoch itself is pure solve.
        expired = driver.engine.expire_tasks(driver.now)
        for task_id in expired:
            driver.tasks.pop(task_id, None)
        outcome = driver.engine.epoch(driver.now)
        fresh_problem = RdbscProblem(
            driver.task_list(),
            driver.worker_list(),
            driver.engine.validity,
            backend=backend,
        )
        fresh_result = make_solver().solve(fresh_problem, rng=seed)
        assert outcome.num_pairs == fresh_problem.num_pairs, checkpoint
        assert sorted(outcome.assignment.pairs()) == sorted(
            fresh_result.assignment.pairs()
        ), checkpoint
        assert outcome.objective == fresh_result.objective, checkpoint


def test_slot_reuse_and_generations():
    from repro.fastpath.arrays import WorkerSlots
    from tests.conftest import make_worker

    slots = WorkerSlots(capacity=2)
    a = slots.add(make_worker(0))
    b = slots.add(make_worker(1))
    assert slots.capacity == 2
    slots.add(make_worker(2))  # forces a grow
    assert slots.capacity == 4
    generation = slots.generations[a]
    slots.remove(0)
    assert slots.generations[a] == generation + 1
    # The freed slot is reused by the next arrival (LIFO free list).
    assert slots.add(make_worker(3)) == a
    assert slots.generations[a] == generation + 2
    assert sorted(slots.slot_of) == [1, 2, 3]
    with pytest.raises(ValueError):
        slots.add(make_worker(3))
    with pytest.raises(KeyError):
        slots.remove(99)
    assert b == slots.slot_of[1]


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_tcell_compaction_drops_dead_probes(backend):
    """Superset lists shed members that can only yield dead probes.

    One fast worker in a centre cell reaches tasks in many outlying cells;
    each outlying cell also hosts a slow resident worker, so removing the
    tasks leaves those cells alive — exactly the week-long-session leak
    the ROADMAP describes: the centre cell's tcell_list keeps probing
    task-less cells forever.  Compaction must rebuild the list tight while
    retrieval stays equivalent to a fresh build.
    """
    from tests.conftest import make_task, make_worker

    grid = RdbscGrid(0.1, backend=backend)
    tasks, workers = [], [make_worker(0, x=0.5, y=0.5, velocity=5.0)]
    spots = [(0.05, 0.05), (0.05, 0.55), (0.05, 0.95), (0.55, 0.05),
             (0.95, 0.05), (0.95, 0.55), (0.95, 0.95), (0.55, 0.95)]
    for k, (x, y) in enumerate(spots):
        tasks.append(make_task(k, x=x, y=y, end=20.0))
        workers.append(make_worker(100 + k, x=x, y=y, velocity=0.001))
    for t in tasks:
        grid.insert_task(t)
    for w in workers:
        grid.insert_worker(w)
    assert pair_key(grid.valid_pairs()) == pair_key(
        retrieve_pairs_without_index(tasks, workers)
    )
    # Retire every outlying task; the cells stay (slow residents).
    for t in tasks:
        grid.remove_task(t.task_id)
    centre = grid.cell_at(workers[0].location)
    stale_size = len(grid.tcell_list(centre))  # the superset, not yet compacted
    assert grid.valid_pairs() == []
    assert grid.stats["tcell_compactions"] > 0
    assert grid.stats["tcell_members_dropped"] > 0
    assert len(grid.tcell_list(centre)) < stale_size
    # Fresh task churn after compaction still retrieves exactly.
    late = make_task(50, x=0.05, y=0.55, end=30.0)
    grid.insert_task(late)
    assert pair_key(grid.valid_pairs()) == pair_key(
        retrieve_pairs_without_index([late], workers)
    )
    # Compaction converges: once a list is rebuilt tight, further
    # retrievals without churn must not keep rebuilding it.
    settled = grid.stats["tcell_compactions"]
    grid.valid_pairs()
    grid.valid_pairs()
    assert grid.stats["tcell_compactions"] == settled


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_compaction_preserves_churn_equivalence(backend, monkeypatch):
    """A long random churn session with compaction still matches fresh builds."""
    monkeypatch.setattr("repro.index.grid.COMPACT_STALE_RATIO", 0.3)
    driver = ChurnDriver(backend, seed=23)
    driver.engine.epoch(driver.now)
    for checkpoint in range(4):
        for _ in range(40):
            driver.step()
        incremental = pair_key(driver.engine.current_pairs())
        assert incremental == pair_key(
            RdbscGrid.bulk_load(
                driver.task_list(), driver.worker_list(), ETA, backend=backend
            ).valid_pairs()
        ), checkpoint
    # The lowered ratio made compaction fire during the session.
    assert driver.engine.grid.stats["tcell_compactions"] > 0
