"""Warm-start differential suite: repaired epochs vs paper-faithful solves.

Pins the ``solve_mode="warm"`` contract of
:class:`repro.engine.engine.AssignmentEngine` and the solvers in
:mod:`repro.solvers.incremental`:

* **Zero churn** — a warm epoch over an unchanged population reproduces
  the full solve bit-for-bit (GREEDY and SAMPLING, both backends).
* **GREEDY quality** — starting from the same previous plan, a warm
  epoch's objective is never Pareto-dominated by the full solve's on the
  pinned workloads (and is frequently better: the carried plan is a head
  start the cold solver does not have).
* **SAMPLING determinism** — warm epochs draw their fresh samples from
  the *same* RNG stream as a full solve (sample ``i`` is bit-identical
  for the same seed), and with ``fresh_fraction=1.0`` the warm pool is a
  superset of the full pool, so the warm winner is structurally never
  dominated.
* **Fallback boundary** — a churn delta exactly at the engine's
  ``warm_churn_threshold`` still repairs; one entity above it solves in
  full.
* **Mid-epoch churn** — warm repair stays feasible when an assigned
  worker leaves or an assigned task expires inside the epoch call.

Everything here carries the ``churn`` marker (``pytest -m churn``).
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.algorithms.base import make_rng
from repro.algorithms.random_assign import RandomSolver
from repro.core.problem import RdbscProblem
from repro.core.task import SpatialTask
from repro.engine import AssignmentEngine
from tests.conftest import make_pools as shared_make_pools
from repro.geometry.points import Point
from repro.skyline.dominance import best_index_by_dominance, dominates_tuple
from repro.solvers.incremental import (
    PreviousPlan,
    WarmStartGreedySolver,
    WarmStartSamplingSolver,
    candidate_signatures,
    warm_variant,
)

pytestmark = pytest.mark.churn


def make_pools(seed, num_tasks=40, num_workers=90):
    """This suite's default pool sizes over the shared generator."""
    return shared_make_pools(seed, num_tasks=num_tasks, num_workers=num_workers)


def filled_engine(tasks, workers, solver, mode, backend="python", rng=1, **kwargs):
    """An engine loaded with the initial population and one epoch solved."""
    engine = AssignmentEngine(
        solver=solver, backend=backend, rng=rng, solve_mode=mode, **kwargs
    )
    for task in tasks:
        engine.add_task(task)
    for worker in workers:
        engine.add_worker(worker)
    engine.epoch(0.0)
    return engine


def small_delta(engines, tasks_spare, workers_spare, crng, live_worker_ids):
    """Apply one identical small churn delta to every engine."""
    leave = live_worker_ids[int(crng.integers(0, len(live_worker_ids)))]
    arrive = workers_spare.pop()
    new_task = tasks_spare.pop()
    for engine in engines:
        engine.remove_worker(leave)
        engine.add_worker(arrive)
        engine.add_task(new_task)
    live_worker_ids.remove(leave)
    live_worker_ids.append(arrive.worker_id)


def objective_pair(result):
    return (result.objective.min_reliability, result.objective.total_std)


# --------------------------------------------------------------------- #
# Zero churn: warm epochs reproduce full solves exactly
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_zero_churn_warm_greedy_epoch_is_bit_identical(backend):
    tasks, workers = make_pools(5)
    full = filled_engine(tasks[:30], workers[:70], GreedySolver(), "full", backend)
    warm = filled_engine(tasks[:30], workers[:70], GreedySolver(), "warm", backend)
    result_full = full.epoch(0.0)
    result_warm = warm.epoch(0.0)
    assert result_warm.mode == "warm"
    assert result_full.mode == "full"
    assert sorted(result_warm.assignment.pairs()) == sorted(
        result_full.assignment.pairs()
    )
    # The assignment is bit-identical; the accumulated E[STD] may differ in
    # the final ulp because repair replays the pairs in canonical (sorted)
    # order while the cold solve accumulates in selection order.
    assert result_warm.objective.min_reliability == pytest.approx(
        result_full.objective.min_reliability, rel=1e-12, abs=1e-12
    )
    assert result_warm.objective.total_std == pytest.approx(
        result_full.objective.total_std, rel=1e-12, abs=1e-12
    )
    assert warm.metrics.warm_solves == 1
    assert warm.metrics.full_solves == 1  # the first epoch had no plan


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_zero_churn_warm_sampling_not_dominated(backend):
    """Sampling repairs draw fewer samples, so identity is not the claim —
    but with the carried plan in the pool the warm winner must never come
    out dominated by the full solve on the same engine seed."""
    tasks, workers = make_pools(5)
    solver = WarmStartSamplingSolver(
        SamplingSolver(num_samples=12), fresh_fraction=1.0
    )
    full = filled_engine(tasks[:30], workers[:70], solver, "full", backend)
    warm = filled_engine(tasks[:30], workers[:70], solver, "warm", backend)
    result_full = full.epoch(0.0)
    result_warm = warm.epoch(0.0)
    assert result_warm.mode == "warm"
    assert not dominates_tuple(
        objective_pair(result_full), objective_pair(result_warm)
    )


# --------------------------------------------------------------------- #
# GREEDY: warm objective is never dominated by the full solve
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("seed", [3, 7, 11, 23])
def test_warm_greedy_objective_not_worse_than_full(backend, seed):
    """From a shared plan, one churn step: warm >= full in dominance terms."""
    tasks, workers = make_pools(seed)
    crng = np.random.default_rng(seed + 500)
    warm_wins = 0
    for rep in range(3):
        initial_tasks = tasks[:32]
        initial_workers = workers[:75]
        full = filled_engine(initial_tasks, initial_workers, GreedySolver(), "full", backend)
        warm = filled_engine(initial_tasks, initial_workers, GreedySolver(), "warm", backend)
        live = [w.worker_id for w in initial_workers]
        small_delta(
            (full, warm), [tasks[32 + rep]], [workers[75 + rep]], crng, live
        )
        result_full = full.epoch(0.0)
        result_warm = warm.epoch(0.0)
        assert result_warm.mode == "warm", rep
        full_obj = objective_pair(result_full)
        warm_obj = objective_pair(result_warm)
        assert not dominates_tuple(full_obj, warm_obj), (rep, full_obj, warm_obj)
        if dominates_tuple(warm_obj, full_obj) or warm_obj == full_obj:
            warm_wins += 1
    # The carried plan is a genuine head start, not a tie machine: at least
    # one step per workload must equal or beat the cold solve outright.
    assert warm_wins >= 1


def test_warm_greedy_feasible_and_complete():
    """Every warm pair is a valid edge; every positive-degree worker lands."""
    tasks, workers = make_pools(13)
    warm = filled_engine(tasks[:32], workers[:75], GreedySolver(), "warm")
    live = [w.worker_id for w in workers[:75]]
    crng = np.random.default_rng(99)
    small_delta((warm,), [tasks[32]], [workers[75]], crng, live)
    result = warm.epoch(0.0)
    assert result.mode == "warm"
    problem = warm.current_problem()
    for task_id, worker_id in result.assignment.pairs():
        assert problem.is_valid_pair(task_id, worker_id)
    assigned = {worker_id for _, worker_id in result.assignment.pairs()}
    for worker in problem.workers:
        if problem.degree(worker.worker_id) > 0:
            assert worker.worker_id in assigned


# --------------------------------------------------------------------- #
# SAMPLING: same RNG stream, structurally never dominated
# --------------------------------------------------------------------- #


def _plan_from_full_solve(problem, solver, seed):
    result = solver.solve(problem, rng=seed)
    return PreviousPlan(
        assignment=result.assignment.copy(),
        signatures=candidate_signatures(problem),
        population=problem.num_tasks + problem.num_workers,
    )


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_warm_sampling_draws_identical_stream(backend):
    """Warm fresh samples == the first K' samples of a full solve."""
    tasks, workers = make_pools(17)
    problem = RdbscProblem(tasks[:24], workers[:50], backend=backend)
    base = SamplingSolver(num_samples=16)
    plan = _plan_from_full_solve(problem, base, seed=7)
    warm = WarmStartSamplingSolver(base, fresh_fraction=0.5)
    fresh_count = warm.fresh_sample_count(problem)
    assert fresh_count == 8

    # Replay the draw by hand on an equal generator: the warm pool must be
    # the carried candidate plus exactly these samples, and the warm result
    # their dominance winner.
    pool = base.scored_sample_pool(problem, make_rng(7), fresh_count)
    samples = [pool.assignment(i) for i in range(len(pool))]
    carried = warm.carried_candidate(problem, plan)
    from repro.core.objectives import evaluate_assignment

    carried_value = evaluate_assignment(problem, carried)
    pool_scores = [
        (carried_value.min_reliability, carried_value.total_std)
    ] + pool.scores
    expected_winner = ([carried] + samples)[best_index_by_dominance(pool_scores)]

    result = warm.warm_solve(problem, plan, rng=7)
    assert sorted(result.assignment.pairs()) == sorted(expected_winner.pairs())

    # And the full solver, on the same seed, draws a strict superset whose
    # first `fresh_count` samples are bit-identical to the warm draws.
    full_pool = base.scored_sample_pool(problem, make_rng(7), 16)
    for index, warm_sample in enumerate(samples):
        assert sorted(warm_sample.pairs()) == sorted(
            full_pool.assignment(index).pairs()
        )


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_warm_sampling_never_dominated_by_full(seed):
    """With fresh_fraction=1.0 the warm pool is a superset: structural >=."""
    tasks, workers = make_pools(seed)
    problem = RdbscProblem(tasks[:24], workers[:50])
    base = SamplingSolver(num_samples=12)
    plan = _plan_from_full_solve(problem, base, seed=seed)
    warm = WarmStartSamplingSolver(base, fresh_fraction=1.0)
    full_result = base.solve(problem, rng=seed + 1)
    warm_result = warm.warm_solve(problem, plan, rng=seed + 1)
    full_obj = (
        full_result.objective.min_reliability,
        full_result.objective.total_std,
    )
    warm_obj = (
        warm_result.objective.min_reliability,
        warm_result.objective.total_std,
    )
    assert not dominates_tuple(full_obj, warm_obj)


def test_warm_sampling_carried_candidate_assigns_every_degree_one_worker():
    """Pinned virtual workers (degree one) always land in the carried plan."""
    tasks, workers = make_pools(21)
    problem = RdbscProblem(tasks[:20], workers[:40])
    base = SamplingSolver(num_samples=6)
    plan = _plan_from_full_solve(problem, base, seed=3)
    warm = WarmStartSamplingSolver(base)
    carried = warm.carried_candidate(problem, plan)
    for worker in problem.workers:
        if problem.degree(worker.worker_id) > 0:
            assert carried.is_assigned(worker.worker_id)


# --------------------------------------------------------------------- #
# Fallback threshold boundary
# --------------------------------------------------------------------- #


def _boundary_engine(threshold):
    tasks, workers = make_pools(41, num_tasks=45, num_workers=60)
    engine = filled_engine(
        tasks[:30],
        workers[:50],
        GreedySolver(),
        "warm",
        warm_churn_threshold=threshold,
    )
    # Population recorded with the plan: 30 tasks + 50 workers.
    assert engine._plan is not None and engine._plan.population == 80
    return engine, workers[:50]


def _jitter(worker, now=0.0):
    return worker.moved_to(
        Point(min(worker.location.x + 0.005, 1.0), worker.location.y), now
    )


def test_fallback_threshold_boundary_at_cutoff():
    """Churn exactly at threshold * population still repairs warm."""
    engine, live_workers = _boundary_engine(threshold=0.1)
    for worker in live_workers[:8]:  # 8 / 80 == 0.1 exactly
        engine.update_worker(_jitter(worker))
    result = engine.epoch(0.0)
    assert result.mode == "warm"


def test_fallback_threshold_boundary_one_above_cutoff():
    """One churned entity past the cutoff falls back to a full solve."""
    engine, live_workers = _boundary_engine(threshold=0.1)
    for worker in live_workers[:9]:  # 9 / 80 > 0.1
        engine.update_worker(_jitter(worker))
    result = engine.epoch(0.0)
    assert result.mode == "full"


def test_repeated_churn_of_one_entity_counts_once():
    """Delta sets are id-based: jittering one worker twice is one entity."""
    engine, live_workers = _boundary_engine(threshold=0.0125)  # cutoff: 1 entity
    worker = live_workers[0]
    engine.update_worker(_jitter(worker))
    engine.update_worker(_jitter(_jitter(worker)))
    assert engine.epoch(0.0).mode == "warm"


# --------------------------------------------------------------------- #
# Mid-epoch churn: leaves and expiries
# --------------------------------------------------------------------- #


def test_warm_after_assigned_worker_leaves():
    tasks, workers = make_pools(47)
    engine = filled_engine(tasks[:30], workers[:70], GreedySolver(), "warm")
    assigned = next(
        worker_id
        for _, worker_id in sorted(engine.assignment.pairs())
    )
    engine.remove_worker(assigned)
    result = engine.epoch(0.0)
    assert result.mode == "warm"
    assert all(worker_id != assigned for _, worker_id in result.assignment.pairs())
    problem = engine.current_problem()
    for task_id, worker_id in result.assignment.pairs():
        assert problem.is_valid_pair(task_id, worker_id)


def test_warm_after_assigned_task_expires_mid_epoch():
    """A task expiring inside the epoch call is repaired away, still warm."""
    tasks, workers = make_pools(53)
    doomed = dataclasses.replace(tasks[0], start=0.0, end=0.5)
    engine = filled_engine(
        [doomed] + tasks[1:30], workers[:70], GreedySolver(), "warm"
    )
    had_workers = bool(engine.workers_on(doomed.task_id))
    result = engine.epoch(1.0)  # 1.0 > end: expiry happens inside epoch()
    assert doomed.task_id in result.expired
    assert result.mode == "warm"
    assert all(task_id != doomed.task_id for task_id, _ in result.assignment.pairs())
    if had_workers:
        # Freed workers were re-inserted, not dropped from the plan.
        problem = engine.current_problem()
        assigned = {worker_id for _, worker_id in result.assignment.pairs()}
        for worker in problem.workers:
            if problem.degree(worker.worker_id) > 0:
                assert worker.worker_id in assigned


# --------------------------------------------------------------------- #
# Warm variants and unsupported solvers
# --------------------------------------------------------------------- #


def test_warm_variant_factory():
    assert isinstance(warm_variant(GreedySolver()), WarmStartGreedySolver)
    assert isinstance(warm_variant(SamplingSolver()), WarmStartSamplingSolver)
    wrapped = WarmStartGreedySolver()
    assert warm_variant(wrapped) is wrapped
    assert warm_variant(RandomSolver()) is None


def test_unsupported_solver_always_solves_full():
    tasks, workers = make_pools(61)
    engine = filled_engine(tasks[:20], workers[:40], RandomSolver(), "warm")
    result = engine.epoch(0.0)
    assert result.mode == "full"
    assert engine.metrics.warm_solves == 0


def test_invalid_solve_mode_rejected():
    with pytest.raises(ValueError):
        AssignmentEngine(solve_mode="tepid")
    with pytest.raises(ValueError):
        WarmStartSamplingSolver(fresh_fraction=0.0)


# --------------------------------------------------------------------- #
# Widening cascade cap (dense candidate chains)
# --------------------------------------------------------------------- #


def _chain_problem(length=10):
    """A dense candidate *chain*: task ``i`` reaches workers ``i, i+1``.

    Built from precomputed pairs so the candidate graph is exact: one
    connected component spanning every entity, the regime where the old
    fixpoint widening would cascade from any single churned worker to the
    whole component.
    """
    from repro.core.worker import MovingWorker
    from repro.core.problem import ValidPair

    tasks = [
        SpatialTask(i, Point(0.05 + 0.09 * i, 0.6), 0.0, 10.0) for i in range(length)
    ]
    workers = [
        MovingWorker(i, Point(0.05 + 0.09 * i, 0.4), velocity=0.2)
        for i in range(length)
    ]
    pairs = [ValidPair(i, i, 1.0 + 0.1 * i) for i in range(length)]
    pairs += [ValidPair(i, i + 1, 1.5 + 0.1 * i) for i in range(length - 1)]
    return RdbscProblem(tasks, workers, precomputed_pairs=pairs)


def test_widening_cascade_capped_on_dense_chain():
    """One churned worker re-scores O(its tasks' candidates), not the chain."""
    problem = _chain_problem()
    from repro.core.assignment import Assignment

    plan_assignment = Assignment()
    for i in range(10):
        plan_assignment.assign(i, i)
    plan = PreviousPlan(
        assignment=plan_assignment,
        signatures=candidate_signatures(problem),
        population=20,
    )
    warm = WarmStartGreedySolver()
    result = warm.warm_solve(problem, plan, forced_dirty=frozenset({5}))
    # Worker 5 is dirty; its planned task t5 is hurt, freeing t5's
    # candidates {w5, w6} — and the cascade stops there instead of
    # chasing w6's task, w7's task, ... to the end of the chain.
    assert result.stats["dirty_workers"] == 2.0
    # The repaired-and-re-scored plan still serves every worker.
    assigned = {worker_id for _, worker_id in result.assignment.pairs()}
    assert assigned == set(range(10))
    for task_id, worker_id in result.assignment.pairs():
        assert problem.is_valid_pair(task_id, worker_id)


def test_widening_still_frees_candidates_of_churn_hit_tasks():
    """The cap keeps the property the widening exists for.

    A task whose planned worker *left* releases its remaining candidates
    for re-balancing (here ``t5`` frees ``w6``) — and only them: the
    cascade does not chase ``w6``'s other task down the chain.
    """
    from repro.core.assignment import Assignment
    from repro.core.problem import ValidPair
    from repro.core.worker import MovingWorker

    length = 10
    gone = 5
    tasks = [
        SpatialTask(i, Point(0.05 + 0.09 * i, 0.6), 0.0, 10.0)
        for i in range(length)
    ]
    workers = [
        MovingWorker(i, Point(0.05 + 0.09 * i, 0.4), velocity=0.2)
        for i in range(length)
        if i != gone  # worker 5 left the system since the previous epoch
    ]
    pairs = [ValidPair(i, i, 1.0 + 0.1 * i) for i in range(length) if i != gone]
    pairs += [
        ValidPair(i, i + 1, 1.5 + 0.1 * i)
        for i in range(length - 1)
        if i + 1 != gone
    ]
    problem = RdbscProblem(tasks, workers, precomputed_pairs=pairs)
    plan_assignment = Assignment()
    for i in range(length):
        plan_assignment.assign(i, i)  # the stale plan still names worker 5
    plan = PreviousPlan(
        assignment=plan_assignment,
        signatures=candidate_signatures(problem),
        population=2 * length,
    )
    result = WarmStartGreedySolver().warm_solve(problem, plan)
    # t5 lost its worker to churn; its surviving candidate w6 was freed
    # and re-scored (dirty count 1 — the cascade stopped at w6).
    assert result.stats["dirty_workers"] == 1.0
    assert result.assignment.task_of(6) in (5, 6)
    assigned = {worker_id for _, worker_id in result.assignment.pairs()}
    assert assigned == {i for i in range(length) if i != gone}
