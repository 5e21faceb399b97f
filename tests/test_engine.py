"""Unit tests for the incremental assignment engine (events, scheduler,
epochs, metrics) and the expiry-boundary contract it shares with the
grid and the platform simulator."""

import math

import pytest

from repro.algorithms import GreedySolver
from repro.core.diversity import WorkerProfile
from repro.core.validity import ValidityRule
from repro.engine import (
    AssignmentEngine,
    EpochTick,
    EventQueue,
    ExpireTasks,
    TaskArrive,
    TaskWithdraw,
    WorkerArrive,
    WorkerLeave,
    WorkerUpdate,
    epoch_ticks,
)
from repro.geometry.points import Point
from repro.platform_sim.events import TaskRecord
from tests.conftest import make_task, make_worker, populate_small


class TestEventQueue:
    def test_time_order(self):
        queue = EventQueue()
        queue.push(TaskArrive(time=2.0, task=make_task(2)))
        queue.push(TaskArrive(time=1.0, task=make_task(1)))
        queue.push(TaskArrive(time=3.0, task=make_task(3)))
        assert [e.time for e in queue.drain()] == [1.0, 2.0, 3.0]

    def test_churn_before_epoch_at_equal_time(self):
        queue = EventQueue()
        queue.push(EpochTick(time=1.0))
        queue.push(WorkerArrive(time=1.0, worker=make_worker(0)))
        events = list(queue.drain())
        assert isinstance(events[0], WorkerArrive)
        assert isinstance(events[1], EpochTick)

    def test_fifo_within_equal_time(self):
        queue = EventQueue()
        for task_id in range(5):
            queue.push(TaskArrive(time=1.0, task=make_task(task_id)))
        assert [e.task.task_id for e in queue.drain()] == list(range(5))

    def test_pop_until_and_next_time(self):
        queue = EventQueue([TaskArrive(time=t, task=make_task(int(t))) for t in (1.0, 2.0, 3.0)])
        assert queue.next_time == 1.0
        drained = list(queue.pop_until(2.0))
        assert [e.time for e in drained] == [1.0, 2.0]
        assert queue.next_time == 3.0
        assert len(queue) == 1

    def test_epoch_ticks(self):
        ticks = epoch_ticks(0.5, 2.0)
        assert [t.time for t in ticks] == [0.0, 0.5, 1.0, 1.5, 2.0]
        with pytest.raises(ValueError):
            epoch_ticks(0.0, 1.0)

    def test_epoch_ticks_horizon_rounding(self):
        # 0.1 accumulates floating-point error; the final tick must survive.
        ticks = epoch_ticks(0.1, 0.3)
        assert len(ticks) == 4


class TestEventApplication:
    def test_each_event_kind(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.apply(TaskArrive(time=0.0, task=make_task(0, end=5.0)))
        engine.apply(TaskArrive(time=0.0, task=make_task(1, end=0.5)))
        engine.apply(WorkerArrive(time=0.0, worker=make_worker(0, x=0.4, y=0.5)))
        assert engine.num_tasks == 2 and engine.num_workers == 1
        engine.apply(WorkerUpdate(time=0.5, worker=make_worker(0, x=0.45, y=0.5)))
        assert engine.workers[0].location.x == pytest.approx(0.45)
        engine.apply(ExpireTasks(time=1.0))
        assert engine.num_tasks == 1  # task 1 (end 0.5) expired
        engine.apply(TaskWithdraw(time=1.0, task_id=0))
        engine.apply(WorkerLeave(time=1.0, worker_id=0))
        assert engine.num_tasks == 0 and engine.num_workers == 0
        counts = engine.metrics.events
        assert counts["task_arrive"] == 2
        assert counts["task_expire"] == 1
        assert counts["task_withdraw"] == 1
        assert counts["worker_update"] == 1
        assert counts["worker_leave"] == 1

    def test_unknown_event_rejected(self):
        engine = AssignmentEngine()
        with pytest.raises(TypeError):
            engine.apply(object())

    def test_process_returns_epoch_results(self):
        engine = AssignmentEngine(solver=GreedySolver())
        queue = EventQueue()
        queue.push(TaskArrive(time=0.0, task=make_task(0, x=0.5, y=0.5)))
        queue.push(WorkerArrive(time=0.0, worker=make_worker(0, x=0.4, y=0.5, velocity=0.5)))
        queue.push(EpochTick(time=0.0))
        queue.push(EpochTick(time=1.0))
        results = engine.process(queue)
        assert len(results) == 2
        assert results[0].dispatch == {0: 0}
        assert engine.assignment_of(0) == 0


class TestBatchedApplication:
    def _stream(self, seed=31):
        """A mixed-kind stream with same-instant bursts."""
        import numpy as np

        rng = np.random.default_rng(seed)
        events = []
        for k in range(12):
            events.append(TaskArrive(time=0.0, task=make_task(
                k, x=float(rng.uniform()), y=float(rng.uniform()), end=8.0)))
        for k in range(25):
            events.append(WorkerArrive(time=0.0, worker=make_worker(
                k, x=float(rng.uniform()), y=float(rng.uniform()), velocity=0.3)))
        events.append(EpochTick(time=0.0))
        for k in range(20):
            events.append(WorkerUpdate(time=1.0, worker=make_worker(
                k % 25, x=float(rng.uniform()), y=float(rng.uniform()),
                velocity=0.3, depart_time=1.0)))
        events.append(TaskWithdraw(time=1.0, task_id=3))
        events.append(ExpireTasks(time=1.0))
        events.append(EpochTick(time=1.0))
        return events

    def test_pop_instant_groups_per_time_with_churn_first(self):
        queue = EventQueue(self._stream())
        first = queue.pop_instant()
        assert {event.time for event in first} == {0.0}
        assert isinstance(first[-1], EpochTick)
        assert not any(isinstance(e, EpochTick) for e in first[:-1])
        second = queue.pop_instant()
        assert {event.time for event in second} == {1.0}
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop_instant()

    def test_drain_instants_equals_drain(self):
        events = self._stream()
        flat = [e for batch in EventQueue(events).drain_instants() for e in batch]
        assert flat == list(EventQueue(events).drain())

    def test_apply_batch_equals_per_event_application(self):
        """Batched per-instant application is behaviour-identical.

        Same-instant worker-update and task-arrive runs are grouped into
        single index calls (repeated ids split the run to stay
        last-wins); the resulting pair sets, assignments and objectives
        must match a per-event replay exactly.
        """
        events = self._stream()
        # A repeated id inside one instant forces a mid-run flush.
        events.insert(40, WorkerUpdate(time=1.0, worker=make_worker(
            2, x=0.9, y=0.9, velocity=0.3, depart_time=1.0)))
        batched = AssignmentEngine(solver=GreedySolver(), rng=5)
        sequential = AssignmentEngine(solver=GreedySolver(), rng=5)
        batched_results = batched.process(EventQueue(events))
        sequential_results = []
        for event in EventQueue(events).drain():
            outcome = sequential.apply(event)
            if outcome is not None:
                sequential_results.append(outcome)
        assert len(batched_results) == len(sequential_results) == 2
        for a, b in zip(batched_results, sequential_results):
            assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
            assert a.objective == b.objective
        assert sorted(
            (p.task_id, p.worker_id, p.arrival) for p in batched.current_pairs()
        ) == sorted(
            (p.task_id, p.worker_id, p.arrival) for p in sequential.current_pairs()
        )
        assert batched.workers[2].location.x == pytest.approx(
            sequential.workers[2].location.x
        )

    def test_batch_methods_validate_like_singles(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_tasks([make_task(0), make_task(1)])
        with pytest.raises(ValueError):
            engine.add_tasks([make_task(2), make_task(0)])
        assert engine.num_tasks == 3  # valid prefix registered, like singles
        with pytest.raises(KeyError):
            engine.update_workers([make_worker(9)])

    def test_duplicate_update_batch_rejected_before_mutation(self):
        """A repeated id in one update batch must raise, engine untouched.

        A cross-cell duplicate would otherwise desynchronise the grid's
        remove + insert bookkeeping (the first occurrence removes, the
        second KeyErrors mid-flight, and the worker's pairs vanish).
        """
        from repro.geometry.points import Point

        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.9, y=0.9, end=5.0))
        engine.add_worker(make_worker(1, x=0.1, y=0.1, velocity=2.0))
        moved = engine.workers[1].moved_to(Point(0.9, 0.9), 0.0)
        with pytest.raises(ValueError):
            engine.update_workers([moved, moved])
        assert engine.workers[1].location.x == pytest.approx(0.1)
        engine.update_worker(moved)  # engine and grid still in lock-step
        assert {p.worker_id for p in engine.current_pairs()} == {1}


class TestHeldWorkers:
    def _engine(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5, end=10.0))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.add_worker(make_worker(1, x=0.6, y=0.5, velocity=0.5))
        return engine

    def test_held_worker_is_solver_invisible_without_index_churn(self):
        engine = self._engine()
        engine.epoch(0.0)
        hits_before = engine.grid.stats["pair_cache_hits"]
        engine.hold_worker(0)
        result = engine.epoch(0.0)
        assert 0 not in result.dispatch
        assert result.dispatch == {1: 0}
        # No cache entries were invalidated by the hold.
        assert engine.grid.stats["pair_cache_misses"] == 2
        assert engine.grid.stats["pair_cache_hits"] > hits_before
        # Retrieval itself still sees the worker (state is intact).
        assert {p.worker_id for p in engine.current_pairs()} == {0, 1}

    def test_release_restores_visibility(self):
        engine = self._engine()
        engine.hold_worker(0)
        engine.release_worker(0)
        result = engine.epoch(0.0)
        assert set(result.dispatch) == {0, 1}
        assert engine.metrics.events["worker_hold"] == 1
        assert engine.metrics.events["worker_release"] == 1

    def test_hold_unknown_worker_raises(self):
        engine = self._engine()
        with pytest.raises(KeyError):
            engine.hold_worker(99)
        with pytest.raises(KeyError):
            engine.release_worker(99)

    def test_remove_clears_hold(self):
        engine = self._engine()
        engine.hold_worker(0)
        engine.remove_worker(0)
        assert 0 not in engine.held_workers

    def test_reanchor_skips_held_workers(self):
        engine = AssignmentEngine(
            solver=GreedySolver(),
            validity=ValidityRule(allow_waiting=True),
            reanchor_on_epoch=True,
        )
        engine.add_task(make_task(0, x=0.5, y=0.5, start=0.0, end=10.0))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.hold_worker(0)
        future_depart = 7.5  # post-trip availability owned by the holder
        engine.update_worker(
            engine.workers[0].moved_to(engine.workers[0].location, future_depart)
        )
        engine.epoch(2.0)
        assert engine.workers[0].depart_time == future_depart

    def test_hold_does_not_count_as_fallback_churn(self):
        engine = self._engine()
        engine.hold_worker(0)
        assert engine._delta.churn_size() == 3  # the initial adds only
        assert 0 in engine._delta.touched_workers()


class TestEpoch:
    def test_pinned_contributions_become_virtual_workers(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.45, y=0.5))
        engine.add_task(make_task(1, x=0.55, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.2))
        pinned = {0: [WorkerProfile(-99, 1.0, 2.0, 0.7)]}
        result = engine.epoch(0.0, pinned=pinned)
        # Virtual workers are solver bookkeeping: never dispatched, never
        # stored in the live assignment.
        assert all(worker_id >= 0 for worker_id in result.dispatch)
        assert result.num_workers == 2  # one real + one virtual
        assert not engine.assignment.is_assigned(-1)

    def test_virtual_workers_carry_the_committed_profile_on_one_pair(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.45, y=0.5))
        engine.add_task(make_task(1, x=0.55, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.2))
        pinned = {
            0: [WorkerProfile(-1, 1.25, 4.0, 0.65)],
            1: [WorkerProfile(-2, 2.0, 3.0, 0.8)],
        }
        problem, virtual_ids = engine.build_problem(pinned=pinned)
        assert len(virtual_ids) == 2
        # Each committed contribution is pinned to its own task only ...
        assert all(problem.degree(vid) == 1 for vid in virtual_ids)
        # ... and contributes exactly the committed angle/arrival/confidence.
        vid = next(v for v in virtual_ids if list(problem.candidate_tasks(v)) == [0])
        profile = problem.pair_profile(0, vid)
        assert profile.arrival == pytest.approx(4.0)
        assert profile.angle == pytest.approx(1.25, abs=1e-6)
        assert profile.confidence == pytest.approx(0.65)

    def test_pinned_expired_task_dropped(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5, end=10.0))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        pinned = {42: [WorkerProfile(-1, 0.5, 1.0, 0.9)]}  # unknown task
        result = engine.epoch(0.0, pinned=pinned)
        assert result.num_workers == 1

    def test_forbidden_pairs_never_dispatched(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        result = engine.epoch(0.0, forbidden={(0, 0)})
        assert result.dispatch == {}

    def test_reanchor_on_epoch(self):
        engine = AssignmentEngine(solver=GreedySolver(), reanchor_on_epoch=True)
        engine.add_worker(make_worker(0, x=0.4, y=0.5, depart_time=0.0))
        engine.add_task(make_task(0, x=0.5, y=0.5, start=0.0, end=10.0))
        engine.epoch(3.0)
        assert engine.workers[0].depart_time == 3.0

    def test_epoch_metrics_history(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.epoch(0.0)
        engine.epoch(0.0)
        assert engine.metrics.epochs == 2
        assert len(engine.metrics.history) == 2
        # Second epoch with zero churn: everything served from the cache.
        assert engine.metrics.history[1].cache_misses == 0
        assert engine.metrics.history[1].cache_hits > 0
        assert engine.metrics.cache_hit_rate() > 0.0

    def test_snapshot(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, x=0.5, y=0.5))
        engine.add_worker(make_worker(0, x=0.4, y=0.5, velocity=0.5))
        engine.epoch(0.0)
        snap = engine.snapshot()
        assert snap.num_tasks == 1 and snap.num_workers == 1
        assert snap.assignment.task_of(0) == 0
        engine.withdraw_task(0)
        # The snapshot is detached from further churn.
        assert snap.num_tasks == 1


class TestExpiryBoundary:
    """A task expiring exactly at ``now`` is *not* yet expired — the
    deadline is inclusive everywhere (validity, engine, grid
    pruning, simulator), pinned here."""

    def test_task_predicate(self):
        task = make_task(0, start=0.0, end=5.0)
        assert not task.expired_at(5.0)
        assert task.expired_at(math.nextafter(5.0, math.inf))

    def test_validity_accepts_arrival_at_deadline(self):
        # Worker arrives exactly at the deadline: distance 0.5, speed 0.1.
        task = make_task(0, x=0.5, y=0.5, start=0.0, end=5.0)
        worker = make_worker(0, x=0.0, y=0.5, velocity=0.1)
        assert ValidityRule().effective_arrival(worker, task) == pytest.approx(5.0)

    def test_engine_keeps_task_expiring_at_now(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, start=0.0, end=5.0))
        engine.add_task(make_task(1, start=0.0, end=4.0))
        assert engine.expire_tasks(5.0) == [1]
        assert engine.num_tasks == 1
        # The surviving task is still assignable by a worker arriving at
        # exactly its deadline.
        engine.add_worker(make_worker(0, x=0.0, y=0.5, velocity=0.1))
        result = engine.epoch(5.0)
        assert result.dispatch == {0: 0}

    def test_engine_expires_just_past_deadline(self):
        engine = AssignmentEngine(solver=GreedySolver())
        engine.add_task(make_task(0, start=0.0, end=5.0))
        assert engine.expire_tasks(5.0) == []
        assert engine.expire_tasks(5.0 + 1e-12) == [0]

    def test_simulator_record_matches(self):
        record = TaskRecord(make_task(0, start=0.0, end=5.0))
        assert record.open_at(5.0)
        assert not record.open_at(math.nextafter(5.0, math.inf))


class TestCloseLifecycle:
    """Engine-owned executor teardown: both engine classes must shut the
    pools they built, tolerate a second ``close()``, and refuse epochs
    afterwards with a clear error instead of submitting to dead pools."""

    def test_plain_engine_close_is_idempotent(self):
        engine = AssignmentEngine(solver=GreedySolver())
        populate_small(engine)
        engine.epoch(0.0)
        engine.close()
        engine.close()  # second close is a no-op, not an error

    def test_plain_engine_closes_owned_solve_executor(self):
        engine = AssignmentEngine(solver=GreedySolver(), solve_executor=2)
        populate_small(engine)
        executor = engine.solve_executor
        engine.close()
        assert executor._closed
        with pytest.raises(RuntimeError, match="already closed"):
            executor.pools()

    def test_plain_engine_epoch_after_close_raises(self):
        engine = AssignmentEngine(solver=GreedySolver())
        populate_small(engine)
        engine.close()
        with pytest.raises(RuntimeError, match="engine is closed"):
            engine.epoch(1.0)

    def test_sharded_engine_close_is_idempotent(self):
        from repro.engine import ElasticShardedAssignmentEngine

        engine = ElasticShardedAssignmentEngine(solver=GreedySolver(), num_shards=2)
        populate_small(engine)
        engine.epoch(0.0)
        engine.close()
        engine.close()

    def test_sharded_engine_closes_owned_solve_executor(self):
        # The regression: the sharded engine's close() used to release
        # only the shard executor, leaking the engine-built solve
        # executor's pinned worker processes.
        from repro.engine import ElasticShardedAssignmentEngine

        engine = ElasticShardedAssignmentEngine(
            solver=GreedySolver(), num_shards=2, solve_executor=2
        )
        populate_small(engine)
        executor = engine.solve_executor
        engine.close()
        assert executor._closed
        with pytest.raises(RuntimeError, match="already closed"):
            executor.pools()

    def test_sharded_engine_epoch_after_close_raises(self):
        from repro.engine import ElasticShardedAssignmentEngine

        engine = ElasticShardedAssignmentEngine(solver=GreedySolver(), num_shards=2)
        populate_small(engine)
        engine.close()
        with pytest.raises(RuntimeError, match="engine is closed"):
            engine.epoch(1.0)

    def test_shared_solve_executor_is_left_running(self):
        from repro.engine.parallel import ParallelSolveExecutor

        shared = ParallelSolveExecutor(processes=2)
        try:
            engine = AssignmentEngine(solver=GreedySolver(), solve_executor=shared)
            populate_small(engine)
            engine.close()
            assert not shared._closed  # caller-owned: caller closes it
        finally:
            shared.close()


class TestEpochReentrancy:
    """The engine is single-threaded: a second ``epoch()`` entered while
    one is mid-solve must raise instead of interleaving grid/RNG state."""

    def test_concurrent_epoch_raises(self):
        class ReentrantSolver(GreedySolver):
            """Calls back into ``epoch()`` from inside the solve."""

            def solve(self, problem, rng=None):
                if getattr(self, "_entered", False):
                    return super().solve(problem, rng=rng)
                self._entered = True
                with pytest.raises(RuntimeError, match="re-entered"):
                    self._engine.epoch(99.0)
                return super().solve(problem, rng=rng)

        solver = ReentrantSolver()
        engine = AssignmentEngine(solver=solver)
        solver._engine = engine
        populate_small(engine)
        result = engine.epoch(1.0)  # outer epoch still completes normally
        assert result.now == 1.0

    def test_guard_resets_after_failed_epoch(self):
        class ExplodingSolver(GreedySolver):
            """First solve raises; later solves succeed."""

            def solve(self, problem, rng=None):
                if not getattr(self, "_failed", False):
                    self._failed = True
                    raise ValueError("boom")
                return super().solve(problem, rng=rng)

        engine = AssignmentEngine(solver=ExplodingSolver())
        populate_small(engine)
        with pytest.raises(ValueError, match="boom"):
            engine.epoch(1.0)
        result = engine.epoch(2.0)  # the guard must not stay latched
        assert result.now == 2.0
