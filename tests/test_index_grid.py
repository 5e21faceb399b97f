"""Tests for the RDB-SC-Grid index: correctness vs brute force, dynamics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import RdbscProblem
from repro.core.validity import ValidityRule
from repro.datagen import ExperimentConfig, generate_problem, generate_tasks, generate_workers
from repro.index.grid import RdbscGrid, retrieve_pairs_without_index
from tests.conftest import make_task, make_worker


def pair_set(pairs):
    return sorted((p.task_id, p.worker_id) for p in pairs)


def build_instance(seed, m=30, n=40):
    config = ExperimentConfig(
        num_tasks=m,
        num_workers=n,
        start_time_range=(0.0, 1.5),
        expiration_range=(0.5, 1.5),
        velocity_range=(0.05, 0.3),
        angle_range_max=math.pi,
    )
    import numpy as np

    rng = np.random.default_rng(seed)
    return generate_tasks(config, rng), generate_workers(config, rng)


class TestRetrievalCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("eta", [0.05, 0.13, 0.33, 1.0])
    def test_matches_brute_force(self, seed, eta):
        tasks, workers = build_instance(seed)
        grid = RdbscGrid.bulk_load(tasks, workers, eta)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, workers)
        )

    def test_waiting_validity_respected(self):
        tasks, workers = build_instance(7)
        rule = ValidityRule(allow_waiting=True)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.2, rule)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, workers, rule)
        )

    def test_problem_from_index_pairs(self):
        tasks, workers = build_instance(9)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.15)
        via_index = RdbscProblem(tasks, workers, precomputed_pairs=grid.valid_pairs())
        direct = RdbscProblem(tasks, workers)
        assert via_index.num_pairs == direct.num_pairs


class TestDynamicMaintenance:
    def test_worker_churn_preserves_correctness(self):
        tasks, workers = build_instance(11)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.12)
        grid.build_all_tcell_lists()
        removed = [w for w in workers[:10]]
        for worker in removed:
            grid.remove_worker(worker.worker_id)
        remaining = workers[10:]
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, remaining)
        )
        for worker in removed:
            grid.insert_worker(worker)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, workers)
        )

    def test_task_churn_preserves_correctness(self):
        tasks, workers = build_instance(13)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.12)
        grid.build_all_tcell_lists()
        for task in tasks[:8]:
            grid.remove_task(task.task_id)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks[8:], workers)
        )
        for task in tasks[:8]:
            grid.insert_task(task)
        assert pair_set(grid.valid_pairs()) == pair_set(
            retrieve_pairs_without_index(tasks, workers)
        )

    def test_duplicate_insert_rejected(self):
        tasks, workers = build_instance(15)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.2)
        with pytest.raises(ValueError):
            grid.insert_task(tasks[0])
        with pytest.raises(ValueError):
            grid.insert_worker(workers[0])

    def test_remove_unknown_raises(self):
        grid = RdbscGrid(0.25)
        with pytest.raises(KeyError):
            grid.remove_task(42)
        with pytest.raises(KeyError):
            grid.remove_worker(42)

    def test_empty_cells_dropped(self):
        grid = RdbscGrid(0.25)
        task = make_task(0, x=0.1, y=0.1)
        grid.insert_task(task)
        assert grid.num_cells == 1
        grid.remove_task(0)
        assert grid.num_cells == 0


class TestPruningStats:
    def test_pruning_happens_in_local_regime(self):
        config = ExperimentConfig(
            num_tasks=80,
            num_workers=80,
            start_time_range=(0.0, 1.0),
            expiration_range=(0.25, 0.5),
            velocity_range=(0.02, 0.08),
            angle_range_max=math.pi / 3,
        )
        problem = generate_problem(config, 3)
        grid = RdbscGrid.bulk_load(problem.tasks, problem.workers, 0.08)
        grid.build_all_tcell_lists()
        assert grid.stats["cells_pruned_time"] + grid.stats["cells_pruned_angle"] > 0

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            RdbscGrid(0.0)
        with pytest.raises(ValueError):
            RdbscGrid(1.5)


class TestRectDistanceCacheAndGroupScreen:
    """The cell-pair distance cache and the vectorised widening screen."""

    def test_cell_pair_distance_cached_and_exact(self):
        grid = RdbscGrid(0.125)
        a = grid.cell_at(make_task(0, x=0.1, y=0.1).location)
        b = grid.cell_at(make_task(1, x=0.9, y=0.6).location)
        first = grid.cell_pair_distance(a, b)
        assert first == a.min_distance_to(b)
        assert grid.cell_pair_distance(b, a) == first  # symmetric key
        assert len(grid._rect_dist) == 1
        grid.cell_pair_distance(a, a)
        assert grid.cell_pair_distance(a, a) == 0.0
        assert len(grid._rect_dist) == 2

    def test_group_widening_screen_preserves_retrieval(self):
        """Batched arrivals after the cached list exists: pairs still exact."""
        import numpy as np

        rng = np.random.default_rng(31)
        config = ExperimentConfig(
            num_tasks=40,
            num_workers=60,
            start_time_range=(0.0, 0.6),
            expiration_range=(0.3, 0.9),
            velocity_range=(0.02, 0.1),
            angle_range_max=math.pi / 2,
        )
        tasks = list(generate_tasks(config, rng))
        workers = list(generate_workers(config, rng))
        grid = RdbscGrid(0.1)
        for task in tasks:
            grid.insert_task(task)
        for worker in workers[:20]:
            grid.insert_worker(worker)
        grid.valid_pairs()  # materialise cached lists before the widening
        grid.insert_workers(workers[20:])  # one widening sweep per cell
        expected = retrieve_pairs_without_index(tasks, workers, grid.validity)
        got = grid.valid_pairs()
        assert sorted(
            (p.task_id, p.worker_id, p.arrival) for p in got
        ) == sorted((p.task_id, p.worker_id, p.arrival) for p in expected)
        # The cache fills as pruning probes run.
        assert grid._rect_dist

    def test_vectorised_screen_path_preserves_retrieval(self):
        """A widening sweep over a wide candidate set retrieves exactly."""
        import numpy as np

        rng = np.random.default_rng(37)
        tasks = [
            make_task(i, x=float(x), y=float(y), start=0.0, end=50.0)
            for i, (x, y) in enumerate(rng.uniform(0.0, 1.0, size=(240, 2)))
        ]
        grid = RdbscGrid(0.05)  # 20x20 cells: many task-holding candidates
        for task in tasks:
            grid.insert_task(task)
        anchor = make_worker(0, x=0.5, y=0.5, velocity=0.0)  # tiny tight list
        grid.insert_worker(anchor)
        grid.valid_pairs()  # materialise the cached list before the widening
        occupied = sum(1 for cell in grid.cells() if cell.tasks)
        assert occupied > 96  # wider than any benchmark workload's sweep
        movers = [
            make_worker(1 + i, x=0.5, y=0.5, velocity=0.5) for i in range(3)
        ]
        grid.insert_workers(movers)
        workers = [anchor] + movers
        expected = retrieve_pairs_without_index(tasks, workers, grid.validity)
        got = grid.valid_pairs()
        assert sorted(
            (p.task_id, p.worker_id, p.arrival) for p in got
        ) == sorted((p.task_id, p.worker_id, p.arrival) for p in expected)


class TestCellBlocks:
    """Cells pack their residents once per change, not once per probe."""

    @pytest.fixture
    def packs(self, monkeypatch):
        from repro.fastpath.arrays import TaskArrays, WorkerArrays

        counts = {"workers": 0, "tasks": 0}
        pack_workers, pack_tasks = WorkerArrays.from_workers, TaskArrays.from_tasks

        def counting_workers(cls, workers):
            counts["workers"] += 1
            return pack_workers(workers)

        def counting_tasks(cls, tasks):
            counts["tasks"] += 1
            return pack_tasks(tasks)

        monkeypatch.setattr(WorkerArrays, "from_workers", classmethod(counting_workers))
        monkeypatch.setattr(TaskArrays, "from_tasks", classmethod(counting_tasks))
        return counts

    @staticmethod
    def churn(grid, workers):
        """Retrieve once, then refresh six workers in place.

        Returns the number of distinct cells the refreshes touched.
        """
        import dataclasses

        grid.valid_pairs()
        turned = [
            dataclasses.replace(worker, depart_time=worker.depart_time + 0.01)
            for worker in workers[:6]
        ]
        touched = {grid._worker_cell[worker.worker_id] for worker in turned}
        grid.update_workers(turned)  # same location, so same cell
        return len(touched)

    def test_numpy_packs_once_per_changed_cell(self, packs):
        tasks, workers = build_instance(5)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.1, backend="numpy")
        touched = self.churn(grid, workers)
        packs.update(workers=0, tasks=0)
        first = grid.valid_pairs()
        assert 0 < packs["workers"] <= touched
        assert packs["tasks"] == 0  # task cells did not change

        packs.update(workers=0, tasks=0)
        assert grid.valid_pairs() == first  # no churn: streamed from the cache
        assert packs == {"workers": 0, "tasks": 0}

        for cell in grid.cells():
            if cell.workers:
                cell.worker_block()  # every worker cell clean
        packs.update(workers=0, tasks=0)
        grid.insert_task(make_task(1000, x=0.52, y=0.48, start=0.0, end=5.0))
        grid.valid_pairs()
        assert packs["workers"] == 0
        assert packs["tasks"] <= 1  # the one touched cell

    def test_python_backend_never_packs(self, packs):
        tasks, workers = build_instance(5)
        grid = RdbscGrid.bulk_load(tasks, workers, 0.1)
        self.churn(grid, workers)
        grid.valid_pairs()
        grid.insert_task(make_task(1000, x=0.52, y=0.48, start=0.0, end=5.0))
        grid.remove_worker(workers[0].worker_id)
        grid.valid_pairs()
        assert packs == {"workers": 0, "tasks": 0}
