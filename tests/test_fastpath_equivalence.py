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
import warnings

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
from repro.core.problem import RdbscProblem, ValidPair
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
from repro.fastpath.kernels import FILTER_SLACK, _validity_mask
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


@pytest.mark.parametrize("slack", [0.0, FILTER_SLACK])
@pytest.mark.parametrize("waiting", [False, True])
def test_subnormal_velocity_is_unreachable_without_warning(slack, waiting):
    """``0.5 / 1e-310`` overflows to ``inf``: the intended "unreachable".

    The mask must agree with the scalar rule and raise no
    ``RuntimeWarning`` on the way.
    """
    tasks = [SpatialTask(0, Point(0.5, 0.0), 0.0, 10.0)]
    workers = [
        MovingWorker(0, Point(0.0, 0.0), 1e-310, AngleInterval.full_circle(), 0.9)
    ]
    rule = ValidityRule(allow_waiting=waiting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        valid, _ = _validity_mask(
            TaskArrays.from_tasks(tasks),
            WorkerArrays.from_workers(workers),
            waiting,
            slack,
        )
    assert valid.tolist() == [[rule.is_valid(workers[0], tasks[0])]]
    assert valid.tolist() == [[False]]


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
def test_grid_backend_identical_retrieval(seed):
    problem = generate_problem(sparse_config(num_tasks=40, num_workers=80), seed)
    reference = RdbscGrid.bulk_load(
        problem.tasks, problem.workers, 0.125, problem.validity
    )
    batched = RdbscGrid.bulk_load(
        problem.tasks, problem.workers, 0.125, problem.validity, backend="numpy"
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
    # SAMPLING has one scoring path; the problem's backend only builds the
    # pair graph, which must not change the solve.
    config = ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=25)
    reference = SamplingSolver(num_samples=40).solve(
        generate_problem(config, seed), rng=seed
    )
    batched = SamplingSolver(num_samples=40).solve(
        generate_problem(config, seed, backend="numpy"), rng=seed
    )
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
    from repro.engine import AssignmentEngine

    problem = generate_problem(sparse_config(), 3)
    outcomes = []
    for backend in ("python", "numpy"):
        engine = AssignmentEngine(
            SamplingSolver(num_samples=30), eta=0.25, rng=5, backend=backend
        )
        for task in problem.tasks:
            engine.add_task(task)
        for worker in problem.workers:
            engine.add_worker(worker)
        outcomes.append(engine.epoch(now=0.0))
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

    def recording_apply(task_id, worker_id, new_estd=None):
        commits.append((task_id, worker_id))
        real_apply(task_id, worker_id, new_estd)

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


# --------------------------------------------------------------------- #
# The numpy GREEDY's cross-solve memo: re-solves on one solver instance
# --------------------------------------------------------------------- #


def _count_kernel_calls(monkeypatch):
    """Count every exact / bounds ``E[STD]`` evaluation a solve can make."""
    import repro.algorithms.pruning as pruning_module
    import repro.core.objectives as objectives_module
    import repro.fastpath.diversity as diversity_module

    calls = {"bounds": 0, "expected_std": 0, "batch_expected_std": 0}

    def counted(name, module, attribute):
        real = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attribute, wrapper)

    counted("bounds", pruning_module, "expected_std_bounds")
    counted("expected_std", objectives_module, "expected_std")
    counted("batch_expected_std", diversity_module, "batch_expected_std")
    return calls


@pytest.mark.parametrize("use_pruning", [True, False])
def test_memo_resolve_of_unchanged_problem_evaluates_nothing(use_pruning, monkeypatch):
    """A re-solve of the same instance is answered from the memo alone.

    The second problem is rebuilt from the same tasks and workers, so its
    profiles are new objects: the memo must match them by value.
    """
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=28), 3
    )
    solver = GreedySolver(use_pruning=use_pruning, backend="numpy")
    calls = _count_kernel_calls(monkeypatch)
    first = solver.solve(problem)
    assert calls["expected_std"] + calls["batch_expected_std"] > 0
    assert (calls["bounds"] > 0) == use_pruning
    if not use_pruning:
        # The unpruned first round is one exact block over every row.
        assert calls["batch_expected_std"] > 0

    calls.update(bounds=0, expected_std=0, batch_expected_std=0)
    again = solver.solve(RdbscProblem(problem.tasks, problem.workers))
    assert calls == {"bounds": 0, "expected_std": 0, "batch_expected_std": 0}
    assert sorted(again.assignment.pairs()) == sorted(first.assignment.pairs())
    assert again.objective == first.objective
    assert again.stats == first.stats
    assert solver.estd_memo.misses and solver.estd_memo.hits
    if use_pruning:
        assert solver.bounds_memo.misses and solver.bounds_memo.hits


def _churned(problem, rng, next_task_id):
    """``problem`` after one epoch of churn: 3 workers jitter, one changes
    confidence, one task is replaced by a new one."""
    workers = list(problem.workers)
    for k in rng.choice(len(workers), size=3, replace=False).tolist():
        w = workers[k]
        dx, dy = rng.normal(0.0, 0.03, size=2).tolist()
        workers[k] = MovingWorker(
            w.worker_id, Point(w.location.x + dx, w.location.y + dy),
            w.velocity, w.cone, w.confidence, w.depart_time,
        )
    k = int(rng.integers(len(workers)))
    w = workers[k]
    workers[k] = MovingWorker(
        w.worker_id, w.location, w.velocity, w.cone,
        float(rng.uniform(0.5, 0.95)), w.depart_time,
    )
    tasks = list(problem.tasks)
    k = int(rng.integers(len(tasks)))
    old = tasks[k]
    tasks[k] = SpatialTask(
        next_task_id, Point(float(rng.uniform()), float(rng.uniform())),
        old.start, old.end, old.beta,
    )
    return RdbscProblem(tasks, workers, problem.validity)


def test_memo_holds_no_more_than_the_last_two_solves_touched():
    problem = generate_problem(
        ExperimentConfig.scaled_defaults(num_tasks=10, num_workers=28), 5
    )
    rng = np.random.default_rng(5)
    solver = GreedySolver(backend="numpy")
    touched = {"bounds": [], "E[STD]": []}
    for label, memo in (("bounds", solver.bounds_memo), ("E[STD]", solver.estd_memo)):
        solves = touched[label]
        real_rotate, real_get, real_put = memo.rotate, memo.get, memo.put

        def rotate(solves=solves, real_rotate=real_rotate):
            solves.append(set())
            real_rotate()

        def get(key, solves=solves, real_get=real_get):
            solves[-1].add(key)
            return real_get(key)

        def put(key, value, solves=solves, real_put=real_put):
            solves[-1].add(key)
            real_put(key, value)

        memo.rotate, memo.get, memo.put = rotate, get, put

    for step in range(10):
        if step:
            problem = _churned(problem, rng, next_task_id=100 + step)
        result = solver.solve(problem)
        fresh = GreedySolver(backend="numpy").solve(problem)
        assert sorted(result.assignment.pairs()) == sorted(fresh.assignment.pairs())
        assert (result.objective, result.stats) == (fresh.objective, fresh.stats)
        for label, memo in (("bounds", solver.bounds_memo), ("E[STD]", solver.estd_memo)):
            last_two = set().union(*touched[label][-2:])
            assert 0 < len(memo) <= len(last_two)
    assert len(touched["bounds"]) == 10
    assert solver.bounds_memo.hits and solver.estd_memo.hits


def _bits(values):
    return [float(value).hex() for value in np.ravel(np.asarray(values, dtype=float))]


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("period", [(0.0, 10.0), (0.0, 0.0)])
def test_memo_keys_may_ignore_the_sign_of_zero(beta, period):
    """Memo keys compare floats by value, so ``-0.0`` meets ``0.0``.

    That is only sound because no output the memo stores depends on the
    sign of a zero angle or arrival: the exact ``E[STD]`` (scalar and
    batched) and the Section 4.3 bounds carry identical bits either way.
    """
    from repro.algorithms.pruning import task_increase_bounds
    from repro.core.diversity import WorkerProfile
    from repro.core.expected import expected_std, expected_std_bounds
    from repro.fastpath import DiversitySlab, batch_expected_std

    task = SpatialTask(0, Point(0.0, 0.0), period[0], period[1], beta)
    sets = [
        [(0.0, 0.0, 0.8)],
        [(0.0, 0.0, 0.8), (0.0, 3.0, 0.5)],
        [(0.0, 0.0, 0.8), (1.0, 3.0, 0.5), (0.0, 10.0, 0.3)],
        [(0.0, 10.0, 0.95), (TWO_PI - 1e-12, 0.0, 0.5), (2.0, 0.0, 0.5)],
    ]

    def profiles(raw, flip):
        return [
            WorkerProfile(
                k,
                -0.0 if flip(k) and angle == 0.0 else angle,
                -0.0 if flip(k) and arrival == 0.0 else arrival,
                confidence,
            )
            for k, (angle, arrival, confidence) in enumerate(raw)
        ]

    variants = [lambda k: False, lambda k: True, lambda k: k % 2 == 1]
    for raw in sets:
        rows = [profiles(raw, flip) for flip in variants]
        scalar = [
            _bits([expected_std(task, row), *expected_std_bounds(task, row)])
            + _bits(task_increase_bounds(task, row[:-1], row[-1:]))
            for row in rows
        ]
        assert scalar[1:] == scalar[:-1]
        width = len(raw)
        slab = DiversitySlab(
            betas=np.full(len(rows), beta),
            starts=np.full(len(rows), period[0]),
            ends=np.full(len(rows), period[1]),
            counts=np.full(len(rows), width, dtype=np.int64),
            angles=np.array([[p.angle for p in row] for row in rows]),
            arrivals=np.array([[p.arrival for p in row] for row in rows]),
            confidences=np.array([[p.confidence for p in row] for row in rows]),
        )
        batched = _bits(batch_expected_std(slab))
        assert batched == [scalar[0][0]] * len(rows)


# Hand-placed geometry for the property test below.  Tasks sit on the
# x-axis (y == +0.0); a worker is placed relative to its anchor task:
_WORKER_OFFSETS = {
    "on": (0.0, 0.0),  # on the task: angle 0.0 by convention
    "east": (0.25, 0.0),  # bearing +0.0
    "east_neg": (0.25, -0.0),  # y == -0.0, so the bearing is atan2(-0.0, .) == -0.0
    "below_2pi": (0.25, -1e-12),  # bearing just below 2π
    "north": (0.0, 0.5),  # π/2, shared by every "north" worker
    "free_a": (-0.3, 0.45),
    "free_b": (0.1, -0.3),
}
_ARRIVALS = {
    "start": lambda s, e: s,
    "end": lambda s, e: e,
    "below_start": lambda s, e: s - 0.5,  # clamped up to the start
    "past_end": lambda s, e: e + 0.5,  # clamped down to the end
    "inside": lambda s, e: s + 0.37 * (e - s),
    "at_3": lambda s, e: 3.0,  # fixed: a period edit moves it inside or out
}
# Periods pairwise sharing a start or an end; the last has zero length.
_PERIODS = ((0.0, 10.0), (0.0, 4.0), (2.0, 10.0), (5.0, 5.0))
_BETAS = (0.0, 0.5, 1.0)
_CONFIDENCES = (0.3, 0.5, 0.8, 0.95)


def _draw_task(draw):
    return (draw(st.sampled_from(_BETAS)), draw(st.sampled_from(_PERIODS)))


def _draw_worker(draw, task_ids):
    anchor = draw(st.sampled_from(task_ids))
    others = draw(st.sets(st.sampled_from(task_ids), max_size=2))
    return {
        "anchor": anchor,
        "offset": draw(st.sampled_from(sorted(_WORKER_OFFSETS))),
        "confidence": draw(st.sampled_from(_CONFIDENCES)),
        "links": {
            task_id: draw(st.sampled_from(sorted(_ARRIVALS)))
            for task_id in sorted({anchor} | others)
        },
    }


def _memo_problem(tasks, workers):
    """Tasks ``{id: (beta, period)}`` at ``x = id``; workers as drawn."""
    task_objs = [
        SpatialTask(task_id, Point(float(task_id), 0.0), start, end, beta)
        for task_id, (beta, (start, end)) in sorted(tasks.items())
    ]
    worker_objs, pairs = [], []
    full = AngleInterval.full_circle()
    for worker_id, worker in sorted(workers.items()):
        dx, y = _WORKER_OFFSETS[worker["offset"]]
        location = Point(float(worker["anchor"]) + dx, y)
        worker_objs.append(
            MovingWorker(worker_id, location, 1.0, full, worker["confidence"], 0.0)
        )
        for task_id, arrival in worker["links"].items():
            start, end = tasks[task_id][1]
            pairs.append(ValidPair(task_id, worker_id, _ARRIVALS[arrival](start, end)))
    return RdbscProblem(task_objs, worker_objs, precomputed_pairs=pairs)


def test_memo_property_geometry_is_what_it_claims():
    tasks = {0: (0.5, (0.0, 10.0))}
    workers = {
        k: {"anchor": 0, "offset": offset, "confidence": 0.5, "links": {0: "start"}}
        for k, offset in enumerate(sorted(_WORKER_OFFSETS))
    }
    problem = _memo_problem(tasks, workers)
    angle = {
        workers[k]["offset"]: problem.pair_profile(0, k).angle for k in workers
    }
    assert math.copysign(1.0, angle["on"]) == 1.0 and angle["on"] == 0.0
    assert math.copysign(1.0, angle["east"]) == 1.0 and angle["east"] == 0.0
    assert math.copysign(1.0, angle["east_neg"]) == -1.0 and angle["east_neg"] == 0.0
    assert TWO_PI - 1e-9 < angle["below_2pi"] < TWO_PI
    assert angle["north"] == math.pi / 2.0


@pytest.mark.parametrize("use_pruning", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_memo_resolves_match_fresh_solvers(use_pruning, data):
    """Churned re-solves on one memo-carrying solver change nothing.

    Every step jitters workers (signed-zero and near-2π bearings, workers
    on their task, shared bearings), changes confidences and replaces
    tasks (same id with a new β / period, or a new id); after each, the
    memo solver's plan, objective and full stats equal a fresh numpy
    solver's and the python reference loop's.
    """
    draw = data.draw
    tasks = {task_id: _draw_task(draw) for task_id in range(draw(st.integers(1, 4)))}
    workers = {
        worker_id: _draw_worker(draw, sorted(tasks))
        for worker_id in range(draw(st.integers(1, 9)))
    }
    next_task_id = len(tasks)
    solver = GreedySolver(use_pruning=use_pruning, backend="numpy")
    for step in range(draw(st.integers(3, 5))):
        for _ in range(draw(st.integers(0, 3)) if step else 0):
            op = draw(st.sampled_from(["jitter", "confidence", "task_params", "task_new"]))
            if op == "jitter":
                worker = workers[draw(st.sampled_from(sorted(workers)))]
                worker["offset"] = draw(st.sampled_from(sorted(_WORKER_OFFSETS)))
            elif op == "confidence":
                worker = workers[draw(st.sampled_from(sorted(workers)))]
                worker["confidence"] = draw(st.sampled_from(_CONFIDENCES))
            elif op == "task_params":
                tasks[draw(st.sampled_from(sorted(tasks)))] = _draw_task(draw)
            else:
                gone = draw(st.sampled_from(sorted(tasks)))
                tasks[next_task_id] = _draw_task(draw)
                del tasks[gone]
                for worker in workers.values():
                    if worker["anchor"] == gone:
                        worker["anchor"] = next_task_id
                    if gone in worker["links"]:
                        worker["links"][next_task_id] = worker["links"].pop(gone)
                next_task_id += 1
        problem = _memo_problem(tasks, workers)
        result = solver.solve(problem)
        for other in (
            GreedySolver(use_pruning=use_pruning, backend="numpy").solve(problem),
            GreedySolver(use_pruning=use_pruning).solve(problem),
        ):
            assert sorted(result.assignment.pairs()) == sorted(other.assignment.pairs())
            assert result.objective == other.objective
            assert result.stats == other.stats
