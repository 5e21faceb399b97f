"""Hypothesis property tests: the grid index is exactly brute force.

The index's whole contract is *lossless* acceleration — for any instance
and any cell size, index-assisted retrieval must return exactly the valid
pairs the O(m*n) scan finds, before and after arbitrary churn.
"""

import copy
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.index.cell import GridCell
from repro.index.grid import RdbscGrid, retrieve_pairs_without_index

coords = st.floats(min_value=0.0, max_value=1.0)
angles = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def a_task(draw, task_id):
    start = draw(st.floats(min_value=0.0, max_value=5.0))
    return SpatialTask(
        task_id=task_id,
        location=Point(draw(coords), draw(coords)),
        start=start,
        end=start + draw(st.floats(min_value=0.0, max_value=3.0)),
        beta=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


@st.composite
def a_worker(draw, worker_id):
    return MovingWorker(
        worker_id=worker_id,
        location=Point(draw(coords), draw(coords)),
        velocity=draw(st.floats(min_value=0.0, max_value=1.0)),
        cone=AngleInterval(
            draw(angles), draw(st.floats(min_value=0.0, max_value=2 * math.pi))
        ),
        confidence=draw(st.floats(min_value=0.0, max_value=1.0)),
        depart_time=draw(st.floats(min_value=0.0, max_value=2.0)),
    )


@st.composite
def task_lists(draw, max_tasks=10):
    n = draw(st.integers(min_value=0, max_value=max_tasks))
    return [draw(a_task(i)) for i in range(n)]


@st.composite
def worker_lists(draw, max_workers=10):
    n = draw(st.integers(min_value=0, max_value=max_workers))
    return [draw(a_worker(j)) for j in range(n)]


def pair_set(pairs):
    return sorted((p.task_id, p.worker_id) for p in pairs)


class TestIndexEqualsBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(task_lists(), worker_lists(), st.sampled_from([0.07, 0.19, 0.5, 1.0]))
    def test_bulk_load_retrieval(self, tasks, workers, eta):
        grid = RdbscGrid.bulk_load(tasks, workers, eta)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, workers)
        )

    @settings(max_examples=25, deadline=None)
    @given(task_lists(), worker_lists(), st.data())
    def test_retrieval_after_churn(self, tasks, workers, data):
        grid = RdbscGrid.bulk_load(tasks, workers, 0.23)
        grid.build_all_tcell_lists()

        surviving_tasks = list(tasks)
        surviving_workers = list(workers)
        # Remove a random prefix of tasks and workers, then re-add half.
        n_task_removals = data.draw(
            st.integers(min_value=0, max_value=len(tasks)), label="task removals"
        )
        n_worker_removals = data.draw(
            st.integers(min_value=0, max_value=len(workers)), label="worker removals"
        )
        removed_tasks = tasks[:n_task_removals]
        removed_workers = workers[:n_worker_removals]
        for task in removed_tasks:
            grid.remove_task(task.task_id)
            surviving_tasks.remove(task)
        for worker in removed_workers:
            grid.remove_worker(worker.worker_id)
            surviving_workers.remove(worker)
        for task in removed_tasks[::2]:
            grid.insert_task(task)
            surviving_tasks.append(task)
        for worker in removed_workers[::2]:
            grid.insert_worker(worker)
            surviving_workers.append(worker)

        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(surviving_tasks, surviving_workers)
        )


def assert_derived_state_is_fresh(cell):
    """Aggregates of ``cell`` equal a cell rebuilt from its residents.

    Reads refresh the lazy pieces, so callers hand in a deep copy (stale
    flags included) and keep the live cell's laziness untouched.
    """
    fresh = GridCell(cell.cell_id, cell.row, cell.col, cell.origin, cell.side)
    for worker in cell.workers.values():
        fresh.add_worker(worker)
    for task in cell.tasks.values():
        fresh.add_task(task)
    assert (
        cell.v_max, cell.depart_min, cell.cone_union, cell.e_max, cell.s_min
    ) == (
        fresh.v_max, fresh.depart_min, fresh.cone_union, fresh.e_max, fresh.s_min
    )


class TestCellStateUnderChurn:
    """Lazy per-cell state is invisible, in every interleaving."""

    @settings(max_examples=40, deadline=None)
    @given(task_lists(6), worker_lists(8), st.data())
    def test_retrieval_exact_and_cells_stay_fresh(self, tasks, workers, data):
        grid = RdbscGrid.bulk_load(tasks, workers, 0.34)
        live_tasks = {task.task_id: task for task in tasks}
        live_workers = {worker.worker_id: worker for worker in workers}
        ops = ["add_worker", "add_task", "retrieve"]
        for step in range(data.draw(st.integers(1, 14), label="steps")):
            choices = ops + (["remove_task"] if live_tasks else []) + (
                ["remove_worker", "turn_worker", "move_worker"] if live_workers else []
            )
            op = data.draw(st.sampled_from(choices), label="op")
            if op == "add_worker":
                worker = data.draw(a_worker(100 + step))
                live_workers[worker.worker_id] = worker
                grid.insert_worker(worker)
            elif op == "add_task":
                task = data.draw(a_task(100 + step))
                live_tasks[task.task_id] = task
                grid.insert_task(task)
            elif op == "remove_task":
                task_id = data.draw(st.sampled_from(sorted(live_tasks)))
                del live_tasks[task_id]
                grid.remove_task(task_id)
            elif op == "remove_worker":
                worker_id = data.draw(st.sampled_from(sorted(live_workers)))
                del live_workers[worker_id]
                grid.remove_worker(worker_id)
            elif op in ("turn_worker", "move_worker"):
                worker_id = data.draw(st.sampled_from(sorted(live_workers)))
                worker = data.draw(a_worker(worker_id))
                if op == "turn_worker":  # same cell: the in-place replace path
                    worker = dataclasses.replace(
                        worker, location=live_workers[worker_id].location
                    )
                live_workers[worker_id] = worker
                grid.update_worker(worker)
            else:
                oracle = retrieve_pairs_without_index(
                    list(live_tasks.values()), list(live_workers.values())
                )
                assert sorted(map(dataclasses.astuple, grid.valid_pairs())) == sorted(
                    map(dataclasses.astuple, oracle)
                )
            for cell in grid.cells():
                assert_derived_state_is_fresh(copy.deepcopy(cell))
