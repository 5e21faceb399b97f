"""Golden regression: every solver must keep reproducing a pinned instance.

``tests/fixtures/golden_small.json`` records, for one small deterministic
instance, each solver's exact ``(min_rel, E[STD])`` objective.  The test
rebuilds the instance from its generator seed and re-solves; any drift in
the generators, the validity rule, the objective evaluation or a solver's
decision sequence shows up as a mismatch here — refactors (like the numpy
fast path) must leave every number alone.

Regenerate deliberately after a *intended* behaviour change with::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

import json
import math
from pathlib import Path

import pytest

from repro.algorithms import (
    DivideConquerSolver,
    GreedySolver,
    MaxTaskSolver,
    RandomSolver,
    SamplingSolver,
)
from repro.datagen import ExperimentConfig, generate_problem

FIXTURE = Path(__file__).parent / "fixtures" / "golden_small.json"

#: The pinned instance: scaled Table 2 defaults, small enough for every
#: solver (including D&C) to finish in milliseconds.
GOLDEN_TASKS = 8
GOLDEN_WORKERS = 16
GOLDEN_INSTANCE_SEED = 2026
GOLDEN_SOLVER_SEED = 7


def golden_problem(backend: str = "python"):
    config = ExperimentConfig.scaled_defaults(
        num_tasks=GOLDEN_TASKS, num_workers=GOLDEN_WORKERS
    )
    return generate_problem(config, GOLDEN_INSTANCE_SEED, backend=backend)


def golden_solvers():
    """Fresh solver instances, keyed as in the fixture.

    ``"SAMPLING"`` / ``"SAMPLING-numpy"`` pin the substream contract's
    draw order — the fixture for the pool-size-independent plans the
    parallel solve subsystem relies on — so a drift in it shows up here.
    SAMPLING has one scoring path, so both keys hold the same solver; the
    ``-numpy`` key survives from when the solver took a backend and keeps
    the fixture byte-identical.
    """
    return {
        "GREEDY": GreedySolver(),
        "GREEDY-numpy": GreedySolver(backend="numpy"),
        "SAMPLING": SamplingSolver(num_samples=64),
        "SAMPLING-numpy": SamplingSolver(num_samples=64),
        "D&C": DivideConquerSolver(
            gamma=4, base_solver=SamplingSolver(num_samples=64)
        ),
        "MAX-TASK": MaxTaskSolver(),
        "RANDOM": RandomSolver(),
    }


def solve_all(backend: str = "python"):
    problem = golden_problem(backend)
    out = {}
    for name, solver in golden_solvers().items():
        result = solver.solve(problem, rng=GOLDEN_SOLVER_SEED)
        out[name] = {
            "min_rel": result.objective.min_reliability,
            "estd": result.objective.total_std,
        }
    return out


def golden_dstd(backend: str = "python"):
    """Exact ΔE[STD] sums over every valid pair, scalar and batched.

    Two evaluator depths are pinned: the empty evaluator (every row is a
    single appended profile) and the evaluator after the GREEDY plan
    (rows with real base profiles).  The batched kernel must carry the
    exact bits of the scalar per-pair calls, so one number pins both.
    """
    from repro.core.objectives import IncrementalEvaluator
    from repro.fastpath import batch_delta_estd

    problem = golden_problem(backend)
    pairs = sorted(
        (task_id, worker.worker_id)
        for worker in problem.workers
        for task_id in problem.candidate_tasks(worker.worker_id)
    )
    out = {"num_pairs": len(pairs)}
    plan = GreedySolver().solve(problem, rng=GOLDEN_SOLVER_SEED)
    for key, assigned in (("empty", []), ("after_greedy", sorted(plan.assignment.pairs()))):
        evaluator = IncrementalEvaluator(problem)
        for task_id, worker_id in assigned:
            evaluator.apply(task_id, worker_id)
        scalar = [evaluator.delta_estd(t, w) for t, w in pairs]
        batched = batch_delta_estd(problem, evaluator, pairs)
        for k in range(len(pairs)):
            assert batched[k] == scalar[k], (key, pairs[k])
        total = 0.0
        for value in scalar:
            total += value
        out[key] = total
    return out


@pytest.fixture(scope="module")
def fixture_data():
    with FIXTURE.open() as handle:
        return json.load(handle)


def test_fixture_describes_this_instance(fixture_data):
    meta = fixture_data["instance"]
    assert meta["num_tasks"] == GOLDEN_TASKS
    assert meta["num_workers"] == GOLDEN_WORKERS
    assert meta["seed"] == GOLDEN_INSTANCE_SEED
    problem = golden_problem()
    assert problem.num_pairs == meta["num_pairs"]


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_solvers_reproduce_golden_objectives(fixture_data, backend):
    expected = fixture_data["solvers"]
    actual = solve_all(backend)
    assert sorted(actual) == sorted(expected)
    for name, values in expected.items():
        got = actual[name]
        assert math.isclose(got["min_rel"], values["min_rel"], rel_tol=1e-9, abs_tol=1e-12), (
            name,
            got,
            values,
        )
        assert math.isclose(got["estd"], values["estd"], rel_tol=1e-9, abs_tol=1e-12), (
            name,
            got,
            values,
        )


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_dstd_reproduces_golden_sums(fixture_data, backend):
    expected = fixture_data["dstd"]
    actual = golden_dstd(backend)
    assert actual["num_pairs"] == expected["num_pairs"]
    # Exact equality: the fixture floats round-trip bit-exactly through
    # JSON repr, and golden_dstd already asserted batched == scalar bits.
    assert actual["empty"] == expected["empty"]
    assert actual["after_greedy"] == expected["after_greedy"]


def regenerate() -> None:
    problem = golden_problem()
    payload = {
        "instance": {
            "num_tasks": GOLDEN_TASKS,
            "num_workers": GOLDEN_WORKERS,
            "seed": GOLDEN_INSTANCE_SEED,
            "solver_seed": GOLDEN_SOLVER_SEED,
            "num_pairs": problem.num_pairs,
        },
        "solvers": solve_all(),
        "dstd": golden_dstd(),
    }
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
