"""The parallel solve subsystem's determinism and equivalence contracts.

What is pinned here:

* **The reference oracle** — :func:`reference_sampling_solve` is SAMPLING
  by the book: materialise every substream draw, score it with
  :func:`repro.core.objectives.evaluate_assignment`, keep the dominance
  winner.  ``SamplingSolver.solve`` with no executor, with an inline
  (``processes=0``) executor and with a 2-process pool must equal it in
  pairs and bit-exact objective, over Hypothesis-drawn small instances.
* **Substream determinism** — under
  :data:`repro.algorithms.sampling.SUBSTREAM_V1` the solved plan is
  bit-identical at executor pool sizes 0 (inline chunks), 1, 2 and 4 and
  to the no-executor path; the contract is a recorded constant, not a
  knob.
* **Chunk-scorer equivalence** — :class:`SampleChunkScorer` produces the
  exact floats of :func:`repro.core.objectives.evaluate_assignment` for
  every drawn sample (deduplicating per-task worker sets only skips
  recomputation), including three-word masks, certain and null workers,
  β at 0 and 1, K=1 and an empty candidate table.
* **Dead-pool recovery** — a SIGKILLed pinned child costs one inline
  re-score, not the epoch; the next fan-out runs on fresh processes.
* **Engine wiring** — engines (plain, sharded, warm) with a
  ``solve_executor`` reproduce the serial engines' epochs on a churn
  stream, and GREEDY under an executor is plain inline GREEDY that forks
  nothing; the differential classes carry the ``churn`` marker.

The golden fixture (``tests/fixtures/golden_small.json``) additionally
pins the substream contract's exact objectives.
"""

import builtins
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedySolver, SamplingSolver
from repro.algorithms.base import make_rng
from repro.algorithms.random_assign import (
    CandidateTable,
    draw_random_assignment,
    draw_random_assignment_batch,
)
from repro.algorithms import sampling
from repro.algorithms.sampling import (
    SUBSTREAM_V1,
    SampleChunkScorer,
    chunk_ranges,
    substream_base_seed,
    substream_rng,
)
from repro.core.objectives import evaluate_assignment
from repro.core.problem import RdbscProblem, ValidPair
from repro.datagen import ExperimentConfig, generate_problem
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    ParallelSolveExecutor,
)
from repro.engine.durable import solver_config
from repro.engine.parallel import (
    PinnedWorkerPools,
    pack_problem,
    unpack_problem,
)
from repro.skyline.dominance import best_index_by_dominance
from tests.conftest import compensated_sum, make_task, make_worker, running_sum


def reference_sample_scores(problem, rng, k):
    """The ``k`` substream samples, materialised, and their scores.

    Drawn one worker at a time and scored with ``evaluate_assignment`` —
    no candidate table, no grouping, no deduplication.
    """
    base = substream_base_seed(make_rng(rng))
    samples = [
        draw_random_assignment(problem, substream_rng(base, index))
        for index in range(k)
    ]
    values = [evaluate_assignment(problem, sample) for sample in samples]
    return samples, [(v.min_reliability, v.total_std) for v in values]


def reference_sampling_solve(problem, rng, k):
    """SAMPLING by the book, as ``(sorted pairs, objective)``."""
    samples, scores = reference_sample_scores(problem, rng, k)
    winner = samples[best_index_by_dominance(scores)]
    return sorted(winner.pairs()), evaluate_assignment(problem, winner)


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
        # ``backend`` builds the problem's pair graph; the solver has one
        # scoring path either way.
        problem = problem_for(backend=backend)
        reference = reference_sampling_solve(problem, 5, 24)
        solver = SamplingSolver(num_samples=24)
        assert plan_key(solver.solve(problem, rng=5)) == reference
        with ParallelSolveExecutor(processes=0) as executor:
            executor.bind(solver)
            assert plan_key(solver.solve(problem, rng=5)) == reference
            assert executor.stats["samples_inline"] == 24

    def test_backends_seed_identical(self):
        # The winner is re-drawn with the batched draw on a candidate
        # table; the oracle draws worker by worker.  Both must consume a
        # substream generator identically.
        problem = problem_for()
        table = CandidateTable.from_problem(problem)
        base = 987654321
        for index in range(40):
            scalar = draw_random_assignment(problem, substream_rng(base, index))
            batched = draw_random_assignment_batch(
                table, substream_rng(base, index)
            )
            assert sorted(scalar.pairs()) == sorted(batched.pairs())

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
        problem = problem_for()
        solver = SamplingSolver(num_samples=16)
        full = solver.scored_sample_pool(problem, make_rng(7), 16)
        prefix = solver.scored_sample_pool(problem, make_rng(7), 4)
        assert prefix.scores == full.scores[:4]
        for index in range(4):
            assert sorted(prefix.assignment(index).pairs()) == sorted(
                full.assignment(index).pairs()
            )


@st.composite
def sampling_cases(draw):
    """A small instance with a drawn edge set, a budget K and a seed.

    Task and worker ids are shuffled against list order, so the scorer's
    worker-id grouping and task-order accumulation both change bits when
    broken.  The edge set may be empty; with few tasks and many low-degree
    workers the same per-task coincidence recurs across samples.
    """
    unit = st.floats(min_value=0.0, max_value=1.0)
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    n_workers = draw(st.integers(min_value=1, max_value=12))
    task_ids = draw(st.permutations(range(n_tasks)))
    worker_ids = draw(st.permutations(range(n_workers)))
    tasks = [
        make_task(i, x=draw(unit), y=draw(unit), beta=draw(unit))
        for i in task_ids
    ]
    workers = [
        make_worker(
            j,
            x=draw(unit),
            y=draw(unit),
            # Low confidences keep a task's reliability 1 - exp(-R) far
            # enough from 1 that an ulp of R (its summation order) shows.
            confidence=draw(st.floats(min_value=0.01, max_value=0.35)),
        )
        for j in worker_ids
    ]
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n_tasks - 1), st.integers(0, n_workers - 1)
            ),
            max_size=n_tasks * n_workers,
        )
    )
    pairs = [
        ValidPair(t, w, draw(st.floats(min_value=0.0, max_value=10.0)))
        for t, w in sorted(edges)
    ]
    problem = RdbscProblem(tasks, workers, precomputed_pairs=pairs)
    k = draw(st.integers(min_value=1, max_value=12))
    return problem, k, draw(st.integers(min_value=0, max_value=2**32 - 1))


def shuffled_case(seed, n_tasks=3, n_workers=12, k=12):
    """A seeded ``sampling_cases``-shaped instance, half its pairs valid.

    Seeds 3 and 5 are cases where out-of-task-order accumulation and
    list-order (not worker-id-order) grouping both change score bits.
    """
    rng = np.random.default_rng(seed)
    tasks = [
        make_task(int(i), x=rng.uniform(), y=rng.uniform(), beta=rng.uniform())
        for i in rng.permutation(n_tasks)
    ]
    workers = [
        make_worker(
            int(j), x=rng.uniform(), y=rng.uniform(),
            confidence=rng.uniform(0.01, 0.35),
        )
        for j in rng.permutation(n_workers)
    ]
    pairs = [
        ValidPair(t, w, rng.uniform(0.0, 10.0))
        for t in range(n_tasks)
        for w in range(n_workers)
        if rng.uniform() < 0.5
    ]
    return RdbscProblem(tasks, workers, precomputed_pairs=pairs), k, seed


@pytest.fixture(scope="module")
def two_process_executor():
    with ParallelSolveExecutor(
        processes=2, min_samples_per_process=1
    ) as executor:
        yield executor


class TestReferenceOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=sampling_cases())
    @example(case=shuffled_case(3))
    @example(case=shuffled_case(5))
    def test_every_path_equals_reference(self, case, two_process_executor):
        # The winner's objective is re-scored by evaluate_assignment and
        # dominance compares with a tolerance, so an ulp-level scoring
        # drift could hide behind an equal plan: every sample's score is
        # compared bit for bit as well.
        problem, k, seed = case
        _, reference_scores = reference_sample_scores(problem, seed, k)
        reference = reference_sampling_solve(problem, seed, k)
        for executor in (None, ParallelSolveExecutor(processes=0),
                         two_process_executor):
            solver = SamplingSolver(num_samples=k, executor=executor)
            pool = solver.scored_sample_pool(problem, make_rng(seed), k)
            assert pool.scores == reference_scores
            result = solver.solve(problem, rng=seed)
            assert plan_key(result) == reference
            assert result.stats["samples"] == float(k)


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
        reference = SamplingSolver(num_samples=32).solve(problem, rng=3)
        with ParallelSolveExecutor(
            processes=2, min_samples_per_process=4
        ) as executor:
            solver = SamplingSolver(num_samples=32)
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


def oracle_block(problem, base, lo, hi):
    """``evaluate_assignment`` scores of substream samples ``lo..hi-1``."""
    values = [
        evaluate_assignment(
            problem, draw_random_assignment(problem, substream_rng(base, index))
        )
        for index in range(lo, hi)
    ]
    return np.asarray(
        [(v.min_reliability, v.total_std) for v in values], dtype=np.float64
    ).reshape(-1, 2)


def assert_bitwise(block, reference):
    """Equal bit patterns: also tells ``-0.0`` from ``+0.0``."""
    assert block.shape == reference.shape
    assert np.array_equal(block.view(np.int64), reference.view(np.int64))


@st.composite
def corner_cases(draw):
    """An instance mixing the scorer's float corner cases.

    Certain (confidence 1.0: infinite Eq. 8 weight) and null (0.0: weight
    ``-0.0``) workers, β exactly 0 or 1, and arrivals that often tie, so a
    task's profile order (not only its set) decides the E[STD] bits.
    """
    unit = st.floats(min_value=0.0, max_value=1.0)
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    n_workers = draw(st.integers(min_value=1, max_value=10))
    task_ids = draw(st.permutations(range(n_tasks)))
    worker_ids = draw(st.permutations(range(n_workers)))
    tasks = [
        make_task(
            i, x=draw(unit), y=draw(unit),
            beta=draw(st.sampled_from([0.0, 1.0]) | unit),
        )
        for i in task_ids
    ]
    workers = [
        make_worker(
            j, x=draw(unit), y=draw(unit),
            confidence=draw(
                st.sampled_from([0.0, 1.0])
                | st.floats(min_value=0.01, max_value=0.35)
            ),
        )
        for j in worker_ids
    ]
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, n_tasks - 1), st.integers(0, n_workers - 1)
            ),
            max_size=n_tasks * n_workers,
        )
    )
    arrival = st.sampled_from([1.0, 2.5, 4.0]) | st.floats(0.0, 10.0)
    pairs = [ValidPair(t, w, draw(arrival)) for t, w in sorted(edges)]
    problem = RdbscProblem(tasks, workers, precomputed_pairs=pairs)
    k = draw(st.integers(min_value=1, max_value=10))
    lo = draw(st.integers(min_value=0, max_value=3))
    return problem, lo, lo + k, draw(st.integers(0, 2**32 - 1))


def wide_task_case(seed, n_workers=140):
    """One task every worker can serve (three 62-bit mask words) + two more.

    The wide task's workers are unreliable (confidence 0.0 or at most
    0.01), so its ``R`` over a hundred-odd workers stays small enough that
    an ulp of it — its summation order — shows in the sample's minimum
    reliability; each of the other two tasks always holds a certain
    worker (``R = inf``).  Workers share a few spots and a few arrivals,
    so profiles tie in angle and arrival and their order decides E[STD].
    """
    rng = np.random.default_rng(seed)
    tasks = [make_task(int(i), x=rng.uniform(), y=rng.uniform(), beta=b)
             for i, b in zip(rng.permutation(3), (0.5, 0.0, 1.0))]
    spots = rng.uniform(size=(6, 2))
    workers = [
        make_worker(
            int(j), x=spots[j % 6, 0], y=spots[j % 6, 1],
            confidence=float(rng.choice([0.0, rng.uniform(0.001, 0.01)])),
        )
        for j in rng.permutation(n_workers)
    ]
    workers += [make_worker(n_workers + t, confidence=1.0) for t in (0, 1)]
    arrival = lambda: float(rng.integers(1, 4))
    pairs = [ValidPair(0, w, arrival()) for w in range(n_workers)]
    pairs += [ValidPair(t + 1, n_workers + t, arrival()) for t in (0, 1)]
    pairs += [
        ValidPair(t, w, arrival())
        for t in (1, 2)
        for w in range(n_workers)
        if rng.uniform() < 0.2
    ]
    return RdbscProblem(tasks, workers, precomputed_pairs=pairs)


class ScorerOracleCases:
    """The chunk scorer against the materialise-and-evaluate oracle.

    Run under the interpreter's builtin ``sum()`` by
    :class:`TestSampleChunkScorer`, and under the compensated ``sum()``
    of Python 3.12 on by :class:`TestSampleChunkScorerCompensatedSum`,
    so a host on either side of 3.12 checks both.
    """

    def test_scores_equal_evaluate_assignment(self):
        problem = problem_for(seed=7)
        scorer = SampleChunkScorer(problem)
        base = 424242
        assert_bitwise(scorer.score_range(base, 0, 20), oracle_block(problem, base, 0, 20))
        # Deduplication engaged (fewer rows scored than (sample, task)
        # groups) and changed nothing above.
        assert 0 < scorer.distinct_rows < scorer.groups

    # Both subclasses run this one Hypothesis test, which is what the
    # differing-executors health check warns about.
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(case=corner_cases())
    def test_corner_cases_equal_evaluate_assignment(self, case):
        problem, lo, hi, base = case
        block = SampleChunkScorer(problem).score_range(base, lo, hi)
        assert_bitwise(block, oracle_block(problem, base, lo, hi))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wide_task_three_mask_words(self, seed):
        problem = wide_task_case(seed)
        assert len(problem.candidate_workers(0)) > 2 * 62
        scorer = SampleChunkScorer(problem)
        block = scorer.score_range(seed, 0, 6)
        assert_bitwise(block, oracle_block(problem, seed, 0, 6))
        assert scorer.groups >= 6

    def test_blocked_range_equals_one_pass(self, monkeypatch):
        problem = problem_for(seed=5)
        whole = SampleChunkScorer(problem).score_range(11, 2, 30)
        monkeypatch.setattr(sampling, "_BLOCK_CELLS", 100)
        scorer = SampleChunkScorer(problem)
        assert_bitwise(scorer.score_range(11, 2, 30), whole)
        assert_bitwise(whole, oracle_block(problem, 11, 2, 30))
        assert 0 < scorer.distinct_rows <= scorer.groups

    def test_single_sample_and_certain_workers(self):
        # K=1, and every task holding a certain worker: min R is +inf,
        # so the reliability is exactly 1.0 as evaluate_assignment says.
        tasks = [make_task(i, x=0.2 * i, beta=b) for i, b in enumerate((0.0, 1.0))]
        workers = [make_worker(j, confidence=1.0) for j in range(3)]
        pairs = [ValidPair(t, w, 1.0 + w) for t in range(2) for w in range(3)]
        problem = RdbscProblem(tasks, workers, precomputed_pairs=pairs)
        for base in range(5):
            block = SampleChunkScorer(problem).score_range(base, 0, 1)
            assert_bitwise(block, oracle_block(problem, base, 0, 1))
            assert block[0, 0] == 1.0

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
        assert_bitwise(block, np.zeros((3, 2)))
        assert_bitwise(block, oracle_block(no_pairs, 1, 0, 3))
        assert scorer.groups == scorer.distinct_rows == 0
        assert empty.num_pairs == problem.num_pairs  # unrelated sanity


@pytest.mark.usefixtures("compensated_builtin_sum")
class TestSampleChunkScorerCompensatedSum(ScorerOracleCases):
    pass


class TestSampleChunkScorer(ScorerOracleCases):
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_r_is_the_builtin_sum_on_any_python(self, seed, monkeypatch):
        # evaluate_assignment's R is the builtin sum(), which compensates
        # from Python 3.12 on; the scorer must follow it, not a running
        # sum.  Score once under an explicit running sum (the builtin up
        # to 3.11) and once under a compensated one (the builtin from
        # 3.12), so the comparison has teeth on every interpreter.
        problem = wide_task_case(seed)
        monkeypatch.setattr(builtins, "sum", running_sum)
        plain = SampleChunkScorer(problem).score_range(seed, 0, 6)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        block = SampleChunkScorer(problem).score_range(seed, 0, 6)
        reference = oracle_block(problem, seed, 0, 6)
        monkeypatch.undo()
        assert_bitwise(block, reference)
        # The swap moved a minimum reliability, so the case has teeth.
        assert not np.array_equal(block.view(np.int64), plain.view(np.int64))

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
