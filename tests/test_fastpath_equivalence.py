"""Differential tests: the numpy fast path against the scalar reference.

Every batch kernel in :mod:`repro.fastpath` has a scalar twin that is the
semantic source of truth.  These tests sweep seeded random instances and
hand-built edge cases — zero velocity, expired deadlines, cones wrapping
across 0/2π, workers standing exactly on tasks, arrivals exactly on period
boundaries — and require the two backends to agree *exactly*: identical
valid-pair sets (arrivals included), identical solver assignments,
identical objectives, identical pruning decisions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedySolver, SamplingSolver
from repro.algorithms.pruning import CandidateBounds, prune_candidates
from repro.algorithms.random_assign import (
    CandidateTable,
    draw_random_assignment,
    draw_random_assignment_batch,
)
from repro.core.objectives import IncrementalEvaluator
from repro.core.problem import RdbscProblem
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.datagen import ExperimentConfig, generate_problem
from repro.fastpath import (
    TaskArrays,
    WorkerArrays,
    batch_delta_min_r,
    batch_effective_arrival,
    batch_valid_pairs,
    lemma43_prune_order,
)
from repro.geometry.angles import TWO_PI, AngleInterval
from repro.geometry.points import Point
from repro.index.grid import RdbscGrid, retrieve_pairs_without_index


def pair_set(pairs):
    return {(p.task_id, p.worker_id, p.arrival) for p in pairs}


def sparse_config(**overrides):
    """Paper-style Table 2 settings: narrow cones, local reach."""
    base = dict(
        num_tasks=24,
        num_workers=48,
        start_time_range=(0.0, 1.0),
        expiration_range=(0.5, 1.0),
        velocity_range=(0.0, 0.15),
        angle_range_max=math.pi / 6.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------- #
# Valid-pair retrieval
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("waiting", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_random_instances_identical_pairs(seed, waiting, dense):
    config = (
        ExperimentConfig.scaled_defaults(num_tasks=24, num_workers=48)
        if dense
        else sparse_config()
    )
    problem = generate_problem(config, seed)
    rule = ValidityRule(allow_waiting=waiting)
    scalar = retrieve_pairs_without_index(problem.tasks, problem.workers, rule)
    fast = batch_valid_pairs(problem.tasks, problem.workers, rule)
    assert pair_set(scalar) == pair_set(fast)


@pytest.mark.parametrize("backend", ["numpy"])
@pytest.mark.parametrize("seed", range(4))
def test_problem_backend_identical_graph(seed, backend):
    config = sparse_config()
    reference = generate_problem(config, seed)
    other = generate_problem(config, seed, backend=backend)
    assert pair_set(reference.valid_pairs()) == pair_set(other.valid_pairs())
    for worker in reference.workers:
        assert reference.candidate_tasks(worker.worker_id) == other.candidate_tasks(
            worker.worker_id
        )


def edge_case_instances():
    """Hand-built boundary instances; all coordinates exactly representable."""
    full = AngleInterval.full_circle()

    # 3-4-5 triangle: distance 5 exactly, so arrival boundaries are exact.
    origin = Point(0.0, 0.0)
    target = Point(3.0, 4.0)

    cases = {}
    cases["zero_velocity_off_task"] = (
        [SpatialTask(0, target, 0.0, 10.0)],
        [MovingWorker(0, origin, 0.0, full, 0.9)],
    )
    cases["zero_velocity_on_task"] = (
        [SpatialTask(0, origin, 0.0, 10.0)],
        [MovingWorker(0, origin, 0.0, full, 0.9)],
    )
    cases["already_expired"] = (
        [SpatialTask(0, target, 0.0, 1.0)],
        [MovingWorker(0, origin, 1.0, full, 0.9, depart_time=2.0)],
    )
    cases["arrival_exactly_at_deadline"] = (
        [SpatialTask(0, target, 0.0, 5.0)],
        [MovingWorker(0, origin, 1.0, full, 0.9)],
    )
    cases["arrival_exactly_at_start"] = (
        [SpatialTask(0, target, 5.0, 6.0)],
        [MovingWorker(0, origin, 1.0, full, 0.9)],
    )
    cases["early_arrival_needs_waiting"] = (
        [SpatialTask(0, target, 8.0, 9.0)],
        [MovingWorker(0, origin, 1.0, full, 0.9)],
    )
    # Cone wrapping across the positive x-axis: [7π/4, 9π/4] contains
    # bearing 0 and 2π-ε but not π/2.
    wrap = AngleInterval.from_bounds(7.0 * math.pi / 4.0, 9.0 * math.pi / 4.0)
    cases["cone_wraps_zero"] = (
        [
            SpatialTask(0, Point(1.0, 0.0), 0.0, 10.0),
            SpatialTask(1, Point(0.0, 1.0), 0.0, 10.0),
            SpatialTask(2, Point(1.0, -1.0), 0.0, 10.0),
        ],
        [MovingWorker(0, origin, 1.0, wrap, 0.9)],
    )
    cases["bearing_exactly_on_cone_edge"] = (
        [SpatialTask(0, Point(1.0, 1.0), 0.0, 10.0)],
        [MovingWorker(0, origin, 1.0, AngleInterval(math.pi / 4.0, 0.0), 0.9)],
    )
    cases["worker_exactly_on_task"] = (
        [SpatialTask(0, origin, 0.0, 10.0)],
        # Zero-width cone pointing away; coincidence must still pass.
        [MovingWorker(0, origin, 1.0, AngleInterval(math.pi, 0.0), 0.9)],
    )
    cases["mixed_population"] = (
        [
            SpatialTask(0, target, 0.0, 5.0),
            SpatialTask(1, origin, 2.0, 3.0),
            SpatialTask(2, Point(0.5, 0.5), 0.0, 0.0),
        ],
        [
            MovingWorker(0, origin, 1.0, full, 0.9),
            MovingWorker(1, origin, 0.0, full, 0.5),
            MovingWorker(2, target, 2.0, wrap, 1.0, depart_time=1.0),
        ],
    )
    return cases


@pytest.mark.parametrize("name", sorted(edge_case_instances()))
@pytest.mark.parametrize("waiting", [False, True])
def test_edge_cases_identical_pairs(name, waiting):
    tasks, workers = edge_case_instances()[name]
    rule = ValidityRule(allow_waiting=waiting)
    scalar = retrieve_pairs_without_index(tasks, workers, rule)
    fast = batch_valid_pairs(tasks, workers, rule)
    assert pair_set(scalar) == pair_set(fast)


def test_edge_case_expectations():
    """Spot-check the constructed boundaries actually exercise both sides."""
    cases = edge_case_instances()
    rule = ValidityRule()

    def pairs_of(name, rule=rule):
        tasks, workers = cases[name]
        return {(p.task_id, p.worker_id) for p in batch_valid_pairs(tasks, workers, rule)}

    assert pairs_of("zero_velocity_off_task") == set()
    assert pairs_of("zero_velocity_on_task") == {(0, 0)}
    assert pairs_of("already_expired") == set()
    assert pairs_of("arrival_exactly_at_deadline") == {(0, 0)}
    assert pairs_of("arrival_exactly_at_start") == {(0, 0)}
    assert pairs_of("early_arrival_needs_waiting") == set()
    assert pairs_of(
        "early_arrival_needs_waiting", ValidityRule(allow_waiting=True)
    ) == {(0, 0)}
    assert pairs_of("cone_wraps_zero") == {(0, 0), (2, 0)}
    assert pairs_of("bearing_exactly_on_cone_edge") == {(0, 0)}
    assert pairs_of("worker_exactly_on_task") == {(0, 0)}


def test_ulp_adverse_deadline_not_dropped():
    """A deadline pinned to ``math.hypot`` must survive the batch filter.

    ``sqrt(dx*dx + dy*dy)`` can land one ulp above ``math.hypot(dx, dy)``;
    with the task's period ending exactly at the scalar arrival, a strict
    vectorised filter would silently drop the pair the scalar rule
    accepts.  The slack-widened candidate filter must keep it.
    """
    dx, dy = 0.2604923103919594, 0.8050278270130223
    deadline = math.hypot(dx, dy)
    tasks = [SpatialTask(0, Point(dx, dy), 0.0, deadline)]
    workers = [MovingWorker(0, Point(0.0, 0.0), 1.0, AngleInterval.full_circle(), 0.9)]
    scalar = retrieve_pairs_without_index(tasks, workers)
    fast = batch_valid_pairs(tasks, workers)
    assert pair_set(scalar) == pair_set(fast)
    assert len(fast) == 1

    grid = RdbscGrid.bulk_load(tasks, workers, 0.5, backend="numpy")
    assert pair_set(grid.valid_pairs()) == pair_set(scalar)


def test_build_pairs_is_idempotent():
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=6, num_workers=12), 4
    )
    before = {
        w.worker_id: problem.candidate_tasks(w.worker_id) for w in problem.workers
    }
    pairs_before = pair_set(problem.valid_pairs())
    for backend in ("numpy", "python"):
        problem.build_pairs(backend)
        assert pair_set(problem.valid_pairs()) == pairs_before
        for worker in problem.workers:
            assert problem.candidate_tasks(worker.worker_id) == before[worker.worker_id]


def test_batch_matrix_shape_and_nan_mask():
    tasks, workers = edge_case_instances()["mixed_population"]
    matrix = batch_effective_arrival(
        TaskArrays.from_tasks(tasks), WorkerArrays.from_workers(workers)
    )
    assert matrix.shape == (3, 3)
    rule = ValidityRule()
    for i, task in enumerate(tasks):
        for j, worker in enumerate(workers):
            scalar = rule.effective_arrival(worker, task)
            if scalar is None:
                assert math.isnan(matrix[i, j])
            else:
                assert matrix[i, j] == pytest.approx(scalar, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------- #
# Grid index backend
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("exact_confirm", [True, False])
def test_grid_backend_identical_retrieval(seed, exact_confirm):
    problem = generate_problem(sparse_config(num_tasks=40, num_workers=80), seed)
    reference = RdbscGrid.bulk_load(
        problem.tasks, problem.workers, 0.125, problem.validity, exact_confirm
    )
    batched = RdbscGrid.bulk_load(
        problem.tasks,
        problem.workers,
        0.125,
        problem.validity,
        exact_confirm,
        backend="numpy",
    )
    assert pair_set(reference.valid_pairs()) == pair_set(batched.valid_pairs())


# --------------------------------------------------------------------- #
# Solver backends
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("use_pruning", [True, False])
def test_greedy_backend_identical(seed, use_pruning):
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=12, num_workers=30), seed
    )
    reference = GreedySolver(use_pruning=use_pruning).solve(problem)
    batched = GreedySolver(use_pruning=use_pruning, backend="numpy").solve(problem)
    assert sorted(reference.assignment.pairs()) == sorted(batched.assignment.pairs())
    assert reference.objective == batched.objective
    assert reference.stats == batched.stats


@pytest.mark.parametrize("seed", range(4))
def test_sampling_backend_identical(seed):
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=25), seed
    )
    reference = SamplingSolver(num_samples=40).solve(problem, rng=seed)
    batched = SamplingSolver(num_samples=40, backend="numpy").solve(problem, rng=seed)
    assert sorted(reference.assignment.pairs()) == sorted(batched.assignment.pairs())
    assert reference.objective == batched.objective


@pytest.mark.parametrize("seed", range(6))
def test_batch_draw_matches_scalar_stream(seed):
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=30), seed
    )
    table = CandidateTable.from_problem(problem)
    scalar = draw_random_assignment(problem, np.random.default_rng(seed))
    batched = draw_random_assignment_batch(table, np.random.default_rng(seed))
    assert sorted(scalar.pairs()) == sorted(batched.pairs())


def test_session_backend_identical():
    from repro.dynamic import CrowdsourcingSession

    problem = generate_problem(sparse_config(), 3)
    outcomes = []
    for backend in ("python", "numpy"):
        session = CrowdsourcingSession(
            SamplingSolver(num_samples=30), eta=0.25, rng=5, backend=backend
        )
        for task in problem.tasks:
            session.add_task(task)
        for worker in problem.workers:
            session.add_worker(worker)
        outcomes.append(session.reassign(now=0.0))
    first, second = outcomes
    assert first.num_pairs == second.num_pairs
    assert sorted(first.assignment.pairs()) == sorted(second.assignment.pairs())
    assert first.objective == second.objective


def test_backend_validation():
    with pytest.raises(ValueError):
        RdbscProblem([], [], backend="fortran")
    with pytest.raises(ValueError):
        GreedySolver(backend="fortran")
    with pytest.raises(ValueError):
        SamplingSolver(backend="fortran")
    with pytest.raises(ValueError):
        RdbscGrid(0.25, backend="fortran")


# --------------------------------------------------------------------- #
# Scoring / pruning kernels
# --------------------------------------------------------------------- #


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-4.0, max_value=4.0).map(lambda v: round(v, 1)),
            st.floats(min_value=0.0, max_value=2.0).map(lambda v: round(v, 1)),
            st.floats(min_value=0.0, max_value=2.0).map(lambda v: round(v, 1)),
        ),
        min_size=0,
        max_size=24,
    )
)
@settings(max_examples=200, deadline=None)
def test_lemma43_prune_matches_scalar(raw):
    """The vectorised sweep reproduces scalar pruning, ties included.

    Rounding the drawn floats to one decimal forces plenty of exact ties
    on ``Δmin_R`` and on the lower bounds — the hard part of the lemma.
    """
    candidates = [
        CandidateBounds(k, k, dr, min(lb, ub), max(lb, ub))
        for k, (dr, lb, ub) in enumerate(raw)
    ]
    scalar = prune_candidates(candidates)
    order = lemma43_prune_order(
        np.array([c.delta_min_r for c in candidates]),
        np.array([c.lb_delta_std for c in candidates]),
        np.array([c.ub_delta_std for c in candidates]),
    )
    assert [candidates[k] for k in order.tolist()] == scalar


@pytest.mark.parametrize("seed", range(4))
def test_batch_delta_min_r_matches_evaluator(seed):
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=8, num_workers=20), seed
    )
    evaluator = IncrementalEvaluator(problem)
    # Partially fill the evaluator so candidates hit every branch: empty
    # tasks, occupied tasks, the current-minimum task.
    rng = np.random.default_rng(seed)
    for worker in problem.workers[::3]:
        tasks = problem.candidate_tasks(worker.worker_id)
        if tasks:
            evaluator.apply(tasks[int(rng.integers(0, len(tasks)))], worker.worker_id)
    min_two = evaluator.min_two_r()
    pairs = [
        (task_id, worker.worker_id)
        for worker in problem.workers
        for task_id in problem.candidate_tasks(worker.worker_id)
    ]
    if not pairs:
        pytest.skip("degenerate instance with no valid pairs")
    task_r = np.array([evaluator.state_of(t).r_value for t, _ in pairs])
    task_has = np.array([bool(evaluator.state_of(t).profiles) for t, _ in pairs])
    weights = np.array(
        [problem.workers_by_id[w].log_confidence_weight for _, w in pairs]
    )
    batched = batch_delta_min_r(task_r, task_has, weights, *min_two)
    for k, (task_id, worker_id) in enumerate(pairs):
        assert batched[k] == evaluator.delta_min_r(task_id, worker_id, min_two)


# --------------------------------------------------------------------- #
# The resident candidate table (numpy GREEDY) vs the python reference loop
# --------------------------------------------------------------------- #


def _run_rounds(problem, solver, prefill=()):
    """``run_rounds`` from an evaluator seeded as ``WarmStartGreedySolver`` does."""
    evaluator = IncrementalEvaluator(problem)
    for task_id, worker_id in sorted(prefill):
        evaluator.apply(task_id, worker_id)
    unassigned = sorted(
        w.worker_id
        for w in problem.workers
        if problem.degree(w.worker_id) > 0
        and not evaluator.assignment.is_assigned(w.worker_id)
    )
    stats = solver.run_rounds(problem, evaluator, unassigned)
    return sorted(evaluator.assignment.pairs()), evaluator.value(), stats, unassigned


def _table_edge_problems():
    """Named instances exercising the table's boundary rows."""
    full = AngleInterval.full_circle()

    def worker(worker_id, x, y, velocity=1.0, confidence=0.9):
        return MovingWorker(worker_id, Point(x, y), velocity, full, confidence, 0.0)

    def task(task_id, x, y, end=10.0):
        return SpatialTask(task_id, Point(x, y), 0.0, end, 0.5)

    return {
        # Worker 2 is too slow to reach anything: degree 0.
        "degree_zero_worker": RdbscProblem(
            [task(0, 0.2, 0.2), task(1, 0.8, 0.8)],
            [worker(0, 0.3, 0.3), worker(1, 0.7, 0.6), worker(2, 0.5, 0.5, 1e-6)],
        ),
        "one_candidate": RdbscProblem([task(0, 0.5, 0.5)], [worker(0, 0.4, 0.4)]),
        # One task, equal confidences: every round is one Δmin_R tie group.
        "all_tied_single_task": RdbscProblem(
            [task(0, 0.5, 0.5)],
            [worker(k, 0.1 + 0.15 * k, 0.9 - 0.1 * k, 0.6, 0.8) for k in range(6)],
        ),
        # Equal confidences over empty tasks: the first round is all tied.
        "all_tied_first_round": RdbscProblem(
            [task(k, 0.2 + 0.3 * k, 0.5) for k in range(3)],
            [worker(k, 0.1 * k, 0.2 + 0.1 * k, 1.0, 0.7) for k in range(7)],
        ),
        # Task 0 is reachable by worker 0 only, who also reaches task 1:
        # committing worker 0 removes task 0's last live row.
        "last_row_dropped_with_worker": RdbscProblem(
            [task(0, 0.1, 0.1), task(1, 0.9, 0.9)],
            [worker(0, 0.5, 0.5), worker(1, 0.9, 0.8, 0.05), worker(2, 0.8, 0.9, 0.05)],
        ),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("use_pruning", [True, False])
@pytest.mark.parametrize("prefilled", [False, True])
def test_candidate_table_matrix_identical(seed, use_pruning, prefilled):
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=28), seed
    )
    prefill = ()
    if prefilled:
        plan = sorted(GreedySolver().solve(problem).assignment.pairs())
        prefill = plan[::2]
        assert prefill and len(prefill) < len(plan)
    reference = _run_rounds(problem, GreedySolver(use_pruning=use_pruning), prefill)
    table = _run_rounds(
        problem, GreedySolver(use_pruning=use_pruning, backend="numpy"), prefill
    )
    assert table == reference
    assert reference[2]["rounds"] > 0


@pytest.mark.parametrize("name", sorted(_table_edge_problems()))
@pytest.mark.parametrize("use_pruning", [True, False])
def test_candidate_table_edge_rows(name, use_pruning):
    problem = _table_edge_problems()[name]
    reference = GreedySolver(use_pruning=use_pruning).solve(problem)
    table = GreedySolver(use_pruning=use_pruning, backend="numpy").solve(problem)
    assert sorted(table.assignment.pairs()) == sorted(reference.assignment.pairs())
    assert table.objective == reference.objective
    assert table.stats == reference.stats
    assert len(reference.assignment) == sum(
        problem.degree(w.worker_id) > 0 for w in problem.workers
    )


def test_candidate_table_edge_problems_are_what_they_claim():
    problems = _table_edge_problems()
    assert problems["degree_zero_worker"].degree(2) == 0
    assert len(problems["one_candidate"].valid_pairs()) == 1
    last = problems["last_row_dropped_with_worker"]
    assert last.candidate_workers(0) == [0] and len(last.candidate_tasks(0)) == 2
    tied = problems["all_tied_single_task"]
    assert len({w.confidence for w in tied.workers}) == 1
    assert all(tied.degree(w.worker_id) == 1 for w in tied.workers)


def test_candidate_table_skips_degree_zero_unassigned():
    """``run_rounds`` handed a degree-0 worker leaves it, like the reference."""
    problem = _table_edge_problems()["degree_zero_worker"]
    outcomes = []
    for backend in ("python", "numpy"):
        evaluator = IncrementalEvaluator(problem)
        unassigned = [0, 1, 2]
        stats = GreedySolver(backend=backend).run_rounds(problem, evaluator, unassigned)
        outcomes.append((sorted(evaluator.assignment.pairs()), stats, unassigned))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][2] == [2]


@pytest.mark.parametrize("seed", range(3))
def test_candidate_table_bounds_work_is_o_delta(seed, monkeypatch):
    """Bounds are evaluated per changed row, never per round x candidate."""
    import repro.algorithms.pruning as pruning_module

    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=28), seed
    )
    evaluator = IncrementalEvaluator(problem)
    unassigned = sorted(
        w.worker_id for w in problem.workers if problem.degree(w.worker_id) > 0
    )
    calls = {"before": 0, "after": 0}
    real_bounds = pruning_module.expected_std_bounds

    def counting_bounds(task, profiles, beta=None):
        held = len(evaluator.state_of(task.task_id).profiles)
        calls["before" if len(profiles) == held else "after"] += 1
        return real_bounds(task, profiles, beta)

    commits = []
    real_apply = evaluator.apply

    def recording_apply(task_id, worker_id):
        commits.append((task_id, worker_id))
        real_apply(task_id, worker_id)

    monkeypatch.setattr(pruning_module, "expected_std_bounds", counting_bounds)
    monkeypatch.setattr(evaluator, "apply", recording_apply)
    initial_rows = sum(problem.degree(w) for w in unassigned)
    distinct_tasks = len({t for w in unassigned for t in problem.candidate_tasks(w)})
    stats = GreedySolver(backend="numpy").run_rounds(
        problem, evaluator, list(unassigned)
    )

    live = set(unassigned)
    refilled_rows = 0
    for task_id, worker_id in commits:
        live.discard(worker_id)
        refilled_rows += sum(task_id in problem.candidate_tasks(w) for w in live)
    assert len(commits) == stats["rounds"] == len(unassigned)
    assert calls["after"] == initial_rows + refilled_rows
    assert calls["before"] <= distinct_tasks + len(commits)
    # The reference loop pays one "before" per "after".
    assert calls["before"] < calls["after"]
