"""Section 7.2 churn + periodic re-assignment through the engine front door."""

import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.datagen import ExperimentConfig, generate_tasks, generate_workers
from repro.engine import AssignmentEngine
from tests.conftest import make_task, make_worker


def seeded_population(seed=3, m=15, n=25):
    import numpy as np

    config = ExperimentConfig.scaled_defaults(num_tasks=m, num_workers=n)
    rng = np.random.default_rng(seed)
    return generate_tasks(config, rng), generate_workers(config, rng)


class TestChurn:
    def test_add_remove_task(self):
        engine = AssignmentEngine()
        task = make_task(0)
        engine.add_task(task)
        assert engine.num_tasks == 1
        assert engine.withdraw_task(0) == task
        assert engine.num_tasks == 0

    def test_duplicate_ids_rejected(self):
        engine = AssignmentEngine()
        engine.add_task(make_task(0))
        with pytest.raises(ValueError):
            engine.add_task(make_task(0))
        engine.add_worker(make_worker(0))
        with pytest.raises(ValueError):
            engine.add_worker(make_worker(0))

    def test_expire_tasks(self):
        engine = AssignmentEngine()
        engine.add_task(make_task(0, start=0.0, end=1.0))
        engine.add_task(make_task(1, start=0.0, end=5.0))
        expired = engine.expire_tasks(now=2.0)
        assert expired == [0]
        assert engine.num_tasks == 1
        assert engine.metrics.events["task_expire"] == 1

    def test_remove_task_frees_workers(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.epoch(now=0.0)
        assert engine.assignment_of(0) == 0
        engine.withdraw_task(0)
        assert engine.assignment_of(0) is None

    def test_remove_worker_clears_assignment(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.epoch(now=0.0)
        engine.remove_worker(0)
        assert engine.workers_on(0) == frozenset()

    def test_update_worker_relocates(self):
        engine = AssignmentEngine()
        worker = make_worker(0, x=0.1, y=0.1)
        engine.add_worker(worker)
        moved = worker.moved_to(worker.location.translated(0.5, 0.5), 1.0)
        engine.update_worker(moved)
        assert engine.num_workers == 1
        # An update is counted as such, not as a second arrival.
        assert engine.metrics.events == {"worker_arrive": 1, "worker_update": 1}


class TestReassignment:
    def test_reassign_produces_feasible_assignment(self):
        tasks, workers = seeded_population()
        engine = AssignmentEngine(solver=SamplingSolver(num_samples=20), rng=5)
        for task in tasks:
            engine.add_task(task)
        for worker in workers:
            engine.add_worker(worker)
        outcome = engine.epoch(now=0.0)
        assert outcome.num_tasks == len(tasks)
        assert outcome.num_workers == len(workers)
        problem = engine.current_problem()
        for task_id, worker_id in outcome.assignment.pairs():
            assert problem.is_valid_pair(task_id, worker_id)

    def test_index_pairs_match_direct_problem(self):
        from repro.core.problem import RdbscProblem

        tasks, workers = seeded_population(7)
        engine = AssignmentEngine()
        for task in tasks:
            engine.add_task(task)
        for worker in workers:
            engine.add_worker(worker)
        via_engine = engine.current_problem()
        direct = RdbscProblem(tasks, workers, engine.validity)
        assert via_engine.num_pairs == direct.num_pairs

    def test_reassign_after_churn(self):
        tasks, workers = seeded_population(9)
        engine = AssignmentEngine(solver=GreedySolver(), rng=1)
        for task in tasks[:10]:
            engine.add_task(task)
        for worker in workers:
            engine.add_worker(worker)
        engine.epoch(now=0.0)
        # Tasks complete, new ones arrive, a worker leaves.
        engine.withdraw_task(tasks[0].task_id)
        engine.add_task(tasks[10])
        engine.remove_worker(workers[0].worker_id)
        second = engine.epoch(now=0.0)
        assert engine.metrics.epochs == 2
        assert second.num_workers == len(workers) - 1

    def test_evaluate_current_drops_stale_pairs(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5, start=0.0, end=10.0))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5, confidence=0.9))
        engine.epoch(now=0.0)
        value_before = engine.evaluate_current()
        assert value_before.min_reliability == pytest.approx(0.9)
        # The assigned task vanishes behind the engine's back; evaluation
        # must not crash and must report the empty objective.
        engine.tasks.pop(0)
        engine.grid.remove_task(0)
        value_after = engine.evaluate_current()
        assert value_after.min_reliability == 0.0

    def test_stats_counters(self):
        engine = AssignmentEngine()
        engine.add_task(make_task(0))
        engine.add_worker(make_worker(0, x=0.45, y=0.5))
        result = engine.epoch(now=0.0)
        counters = engine.metrics.counters()
        assert counters["events"] == {"task_arrive": 1, "worker_arrive": 1}
        assert counters["epochs"] == 1
        assert counters["pairs_retrieved"] == result.num_pairs
