"""The parallel solve subsystem's determinism and equivalence contracts.

What is pinned here:

* **Substream determinism (satellite of the subsystem's contract)** —
  under :data:`repro.algorithms.sampling.SUBSTREAM_V1` the solved plan is
  bit-identical at executor pool sizes 0 (inline chunks), 1, 2 and 4 and
  to the serial no-executor path, on both backends, with seed-identity
  *across* backends; the contract is a recorded constant, not a knob.
* **Chunk-scorer equivalence** — :class:`SampleChunkScorer` produces the
  exact floats of :func:`repro.core.objectives.evaluate_assignment` for
  every drawn sample (the memo only skips recomputation).
* **Dead-pool recovery** — a SIGKILLed pinned child costs one inline
  re-score, not the epoch; the next fan-out runs on fresh processes.
* **Engine wiring** — engines (plain, sharded, warm) with a
  ``solve_executor`` reproduce the serial engines' epochs on a churn
  stream, and GREEDY under an executor is plain inline GREEDY that forks
  nothing; the differential classes carry the ``churn`` marker.

The golden fixture (``tests/fixtures/golden_small.json``) additionally
pins the substream contract's exact objectives.
"""

import os
import signal

import numpy as np
import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.algorithms.random_assign import draw_random_assignment
from repro.algorithms.sampling import SUBSTREAM_V1, substream_rng
from repro.core.objectives import evaluate_assignment
from repro.datagen import ExperimentConfig, generate_problem
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    ParallelSolveExecutor,
)
from repro.engine.durable import solver_config
from repro.engine.parallel import (
    PinnedWorkerPools,
    SampleChunkScorer,
    chunk_ranges,
    pack_problem,
    unpack_problem,
)
from tests.conftest import make_task, make_worker


def problem_for(seed=3, m=12, n=36, backend="python"):
    """A mid-density instance for the differential checks."""
    return generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=m, num_workers=n),
        seed,
        backend=backend,
    )


def plan_key(result):
    """Canonical (pairs, objective) view of a solver result."""
    return (sorted(result.assignment.pairs()), result.objective)


# --------------------------------------------------------------------- #
# Substream sampling determinism
# --------------------------------------------------------------------- #


class TestSubstreamContract:
    def test_substream_serial_is_deterministic(self):
        problem = problem_for()
        solver = SamplingSolver(num_samples=24)
        assert solver_config(solver)["rng_contract"] == SUBSTREAM_V1
        assert plan_key(solver.solve(problem, rng=5)) == plan_key(
            solver.solve(problem, rng=5)
        )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_inline_executor_matches_serial(self, backend):
        problem = problem_for(backend=backend)
        reference = SamplingSolver(num_samples=24, backend=backend).solve(
            problem, rng=5
        )
        with ParallelSolveExecutor(processes=0) as executor:
            solver = SamplingSolver(num_samples=24, backend=backend)
            executor.bind(solver)
            assert plan_key(solver.solve(problem, rng=5)) == plan_key(reference)

    def test_backends_seed_identical(self):
        problem = problem_for()
        a = SamplingSolver(num_samples=24, backend="python").solve(problem, rng=9)
        b = SamplingSolver(num_samples=24, backend="numpy").solve(problem, rng=9)
        assert plan_key(a) == plan_key(b)

    def test_unknown_contract_rejected(self):
        # The contract is a recorded constant, not a knob: asking for any
        # other draw order fails loudly instead of being ignored.
        with pytest.raises(TypeError, match="rng_contract"):
            SamplingSolver(rng_contract="shared-v0")

    def test_sample_i_depends_only_on_base_and_index(self):
        problem = problem_for()
        base = 123456789
        short = [
            draw_random_assignment(problem, substream_rng(base, index))
            for index in range(3)
        ]
        long = [
            draw_random_assignment(problem, substream_rng(base, index))
            for index in range(8)
        ]
        for a, b in zip(short, long):
            assert sorted(a.pairs()) == sorted(b.pairs())

    def test_warm_fresh_draws_match_full_solve_prefix(self):
        """Substream keeps the warm/full sample-identity contract."""
        from repro.algorithms.base import make_rng

        problem = problem_for()
        solver = SamplingSolver(num_samples=16)
        full, _ = solver.draw_scored_samples(problem, make_rng(7), 16)
        prefix, _ = solver.draw_scored_samples(problem, make_rng(7), 4)
        for a, b in zip(prefix, full):
            assert sorted(a.pairs()) == sorted(b.pairs())


@pytest.mark.churn
class TestSampleFanOutPoolSizes:
    @pytest.mark.parametrize("processes", [1, 2, 4])
    def test_pool_sizes_identical_to_serial(self, processes):
        problem = problem_for(seed=11)
        reference = SamplingSolver(num_samples=32).solve(problem, rng=3)
        with ParallelSolveExecutor(
            processes=processes, min_samples_per_process=4
        ) as executor:
            solver = SamplingSolver(num_samples=32)
            executor.bind(solver)
            assert plan_key(solver.solve(problem, rng=3)) == plan_key(reference)

    def test_numpy_backend_fans_out_identically(self):
        problem = problem_for(seed=13, backend="numpy")
        reference = SamplingSolver(num_samples=32, backend="numpy").solve(
            problem, rng=3
        )
        with ParallelSolveExecutor(
            processes=2, min_samples_per_process=4
        ) as executor:
            solver = SamplingSolver(num_samples=32, backend="numpy")
            executor.bind(solver)
            assert plan_key(solver.solve(problem, rng=3)) == plan_key(reference)
            assert executor.stats["samples_remote"] == 32


class TestDeadPoolRecovery:
    def test_killed_child_rescored_inline_then_fresh_pool(self):
        tasks = [make_task(i, x=0.1 * (i + 1), y=0.5, end=20.0) for i in range(6)]
        workers = [
            make_worker(i, x=0.1 * (i + 1), y=0.45, velocity=0.2) for i in range(9)
        ]
        executor = ParallelSolveExecutor(processes=2, min_samples_per_process=4)
        serial = AssignmentEngine(solver=SamplingSolver(num_samples=32), rng=4)
        fanned = AssignmentEngine(
            solver=SamplingSolver(num_samples=32), rng=4, solve_executor=executor
        )
        try:
            for engine in (serial, fanned):
                engine.add_tasks(tasks)
                engine.add_workers(workers)

            def epoch_matches():
                a, b = serial.epoch(0.0), fanned.epoch(0.0)
                assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
                assert a.objective == b.objective

            epoch_matches()
            assert executor.stats["chunks_fanned"] == 2
            dead = executor.pools().submit(0, os.getpid).result()
            os.kill(dead, signal.SIGKILL)
            epoch_matches()
            assert executor.stats["pool_failures"] == 1
            assert executor.stats["chunks_fanned"] == 2
            epoch_matches()
            assert executor.stats["pool_failures"] == 1
            assert executor.stats["chunks_fanned"] == 4
            fresh = executor.pools().submit(0, os.getpid).result()
            assert fresh != dead
        finally:
            fanned.close()
            serial.close()
            executor.close()


# --------------------------------------------------------------------- #
# Chunk scorer
# --------------------------------------------------------------------- #


class TestSampleChunkScorer:
    def test_scores_equal_evaluate_assignment(self):
        problem = problem_for(seed=7)
        scorer = SampleChunkScorer(problem)
        base = 424242
        block = scorer.score_range(base, 0, 20)
        for index in range(20):
            assignment = draw_random_assignment(problem, substream_rng(base, index))
            value = evaluate_assignment(problem, assignment)
            assert block[index, 0] == value.min_reliability
            assert block[index, 1] == value.total_std
        # The memo genuinely engaged and changed nothing above.
        assert scorer.memo_hits > 0

    def test_empty_candidate_table(self):
        problem = problem_for(seed=7)
        empty = unpack_problem(pack_problem(problem))
        # A problem whose workers all have degree zero scores (0, 0).
        no_pairs = type(problem)(
            list(problem.tasks), list(problem.workers), problem.validity,
            precomputed_pairs=[],
        )
        scorer = SampleChunkScorer(no_pairs)
        block = scorer.score_range(1, 0, 3)
        assert np.array_equal(block, np.zeros((3, 2)))
        assert empty.num_pairs == problem.num_pairs  # unrelated sanity

    def test_problem_wire_roundtrip(self):
        problem = problem_for(seed=9)
        rebuilt = unpack_problem(pack_problem(problem))
        assert sorted(
            (p.task_id, p.worker_id, p.arrival) for p in rebuilt.valid_pairs()
        ) == sorted(
            (p.task_id, p.worker_id, p.arrival) for p in problem.valid_pairs()
        )
        for worker in problem.workers:
            assert rebuilt.candidate_tasks(worker.worker_id) == (
                problem.candidate_tasks(worker.worker_id)
            )
            rebuilt_worker = rebuilt.workers_by_id[worker.worker_id]
            assert rebuilt_worker.log_confidence_weight == (
                worker.log_confidence_weight
            )
        for task_id, worker_id in (
            (p.task_id, p.worker_id) for p in problem.valid_pairs()
        ):
            assert rebuilt.pair_profile(task_id, worker_id) == (
                problem.pair_profile(task_id, worker_id)
            )


# --------------------------------------------------------------------- #
# Engine wiring
# --------------------------------------------------------------------- #


def mirror_engines(make_engine_pair, seed=29, steps=3, epoch_batches=4):
    """Drive serial and parallel engines through one churn stream."""
    from repro.geometry.points import Point

    from tests.conftest import make_pools

    tasks, workers = make_pools(seed, num_tasks=30, num_workers=60)
    serial, parallel = make_engine_pair()
    for engine in (serial, parallel):
        engine.add_tasks(tasks[:20])
        engine.add_workers(workers[:40])
    crng = np.random.default_rng(seed + 1)
    spare_tasks = tasks[20:]
    spare_workers = workers[40:]
    live = [w.worker_id for w in workers[:40]]
    for _ in range(epoch_batches):
        for _ in range(steps):
            roll = int(crng.integers(0, 3))
            if roll == 0 and spare_tasks:
                task = spare_tasks.pop()
                for engine in (serial, parallel):
                    engine.add_task(task)
            elif roll == 1 and spare_workers:
                worker = spare_workers.pop()
                live.append(worker.worker_id)
                for engine in (serial, parallel):
                    engine.add_worker(worker)
            else:
                worker_id = live[int(crng.integers(0, len(live)))]
                moved = serial.workers[worker_id].moved_to(
                    Point(float(crng.uniform()), float(crng.uniform())), 0.0
                )
                for engine in (serial, parallel):
                    engine.update_worker(moved)
        a = serial.epoch(0.0)
        b = parallel.epoch(0.0)
        assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
        assert a.objective == b.objective
        assert a.mode == b.mode
    return serial, parallel


@pytest.mark.churn
class TestEngineWiring:
    def test_engine_with_solve_executor_matches_serial(self):
        def build():
            return (
                AssignmentEngine(solver=SamplingSolver(num_samples=16), rng=2),
                AssignmentEngine(
                    solver=SamplingSolver(num_samples=16), rng=2, solve_executor=2
                ),
            )

        serial, parallel = mirror_engines(build)
        assert parallel.solve_executor is not None
        parallel.close()

    def test_sharded_engine_with_solve_executor(self):
        # GREEDY under a solve executor is plain inline GREEDY, on both
        # engines, for an owned (int) and a shared executor: the plans
        # equal the executor-less engine's and no process is ever forked.
        engines = [
            lambda executor: AssignmentEngine(
                solver=GreedySolver(), rng=2, solve_executor=executor
            ),
            lambda executor: ElasticShardedAssignmentEngine(
                solver=GreedySolver(), rng=2, num_shards=4, solve_executor=executor
            ),
        ]
        for make in engines:
            for executor in (2, ParallelSolveExecutor(processes=2)):

                def build():
                    serial = AssignmentEngine(solver=GreedySolver(), rng=2)
                    return serial, make(executor)

                serial, parallel = mirror_engines(build)
                assert parallel.solve_executor._pools is None
                assert parallel.solve_executor.stats["solves"] == 0
                parallel.close()
                parallel.solve_executor.close()

    def test_warm_mode_with_solve_executor(self):
        def build():
            return (
                AssignmentEngine(
                    solver=SamplingSolver(num_samples=16), rng=2, solve_mode="warm"
                ),
                AssignmentEngine(
                    solver=SamplingSolver(num_samples=16),
                    rng=2,
                    solve_mode="warm",
                    solve_executor=ParallelSolveExecutor(processes=0),
                ),
            )

        serial, parallel = mirror_engines(build, steps=2)
        assert parallel.metrics.warm_solves > 0
        parallel.close()

    def test_solver_swap_unbinds_previous_solver(self):
        first = SamplingSolver(num_samples=8)
        engine = AssignmentEngine(solver=first, rng=1, solve_executor=2)
        engine.add_task(make_task(0))
        engine.add_worker(make_worker(0, x=0.5, y=0.4))
        engine.epoch(0.0)
        assert first.executor is not None
        engine.solver = GreedySolver()
        engine.epoch(0.0)
        # The swapped-out solver no longer points at the engine's pools.
        assert first.executor is None
        engine.close()

    def test_close_unbinds_owned_executor(self):
        solver = SamplingSolver(num_samples=8)
        engine = AssignmentEngine(solver=solver, rng=1, solve_executor=2)
        engine.add_task(make_task(0))
        engine.add_worker(make_worker(0, x=0.5, y=0.4))
        engine.epoch(0.0)
        assert solver.executor is not None
        engine.close()
        assert solver.executor is None
        # The solver keeps working serially after the engine is gone.
        problem = problem_for()
        solver.solve(problem, rng=1)

    def test_simulator_pass_through(self):
        from repro.platform_sim.simulator import PlatformConfig, PlatformSimulator

        config = PlatformConfig(n_workers=6, n_sites=3, sim_minutes=6.0)
        serial = PlatformSimulator(config).run(
            SamplingSolver(num_samples=10), rng=11
        )
        fanned = PlatformSimulator(config, solve_executor=2).run(
            SamplingSolver(num_samples=10), rng=11
        )
        assert serial.min_reliability == fanned.min_reliability
        assert serial.total_std == fanned.total_std
        assert serial.dispatches == fanned.dispatches

    def test_session_pass_through(self):
        tasks = [make_task(i, x=0.1 * (i + 1), y=0.5, end=20.0) for i in range(6)]
        workers = [
            make_worker(i, x=0.1 * (i + 1), y=0.45, velocity=0.2) for i in range(9)
        ]
        plain = AssignmentEngine(solver=SamplingSolver(num_samples=12), rng=4)
        fanned = AssignmentEngine(
            solver=SamplingSolver(num_samples=12), rng=4, solve_executor=2
        )
        for engine in (plain, fanned):
            for task in tasks:
                engine.add_task(task)
            for worker in workers:
                engine.add_worker(worker)
        a = plain.epoch(0.0)
        b = fanned.epoch(0.0)
        assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
        assert a.objective == b.objective
        fanned.close()
        plain.close()


# --------------------------------------------------------------------- #
# Infrastructure pieces
# --------------------------------------------------------------------- #


class TestInfrastructure:
    def test_chunk_ranges(self):
        assert chunk_ranges(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        assert chunk_ranges(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert chunk_ranges(0, 4) == []
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)

    def test_pinned_pools_affinity(self):
        import os

        pools = PinnedWorkerPools(2)
        try:
            first = [pools.submit(0, os.getpid) for _ in range(2)]
            second = pools.submit(2, os.getpid)  # wraps to slot 0
            pids = {future.result() for future in first}
            assert len(pids) == 1
            assert second.result() in pids
        finally:
            pools.close()

    def test_pinned_pools_rejects_zero(self):
        with pytest.raises(ValueError):
            PinnedWorkerPools(0)

    def test_executor_rejects_negative_processes(self):
        with pytest.raises(ValueError):
            ParallelSolveExecutor(processes=-1)

    def test_closed_executor_refuses_pools(self):
        executor = ParallelSolveExecutor(processes=1)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.pools()
