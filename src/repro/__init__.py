"""repro — reproduction of "Reliable Diversity-Based Spatial Crowdsourcing
by Moving Workers" (Cheng et al., PVLDB 8(10), 2015).

The package implements the paper's full stack:

* the RDB-SC problem model with its reliability and expected
  spatial/temporal diversity objectives (:mod:`repro.core`),
* the GREEDY, SAMPLING, divide-and-conquer and G-TRUTH solvers
  (:mod:`repro.algorithms`),
* the cost-model-based grid index for dynamic maintenance, with a
  persistent valid-pair cache for incremental retrieval
  (:mod:`repro.index`),
* the event-driven incremental assignment engine, the library's online
  front door and the platform simulator's core (:mod:`repro.engine`),
* NumPy batch kernels behind the ``backend="numpy"`` flags of the
  problem, index, solvers and engine, plus a slot-stable worker slab
  for per-event updates (:mod:`repro.fastpath`),
* Table-2 synthetic workload generators and substitutes for the paper's
  real datasets (:mod:`repro.datagen`),
* a gMission-style platform simulator with the incremental updating
  strategy (:mod:`repro.platform_sim`),
* the experiment harness regenerating every figure (:mod:`repro.experiments`).

Quickstart::

    from repro import GreedySolver, generate_problem
    from repro.datagen import ExperimentConfig

    problem = generate_problem(ExperimentConfig.scaled_defaults(), seed=7)
    result = GreedySolver().solve(problem, rng=7)
    print(result.objective)
"""

from repro.algorithms import (
    DivideConquerSolver,
    ExhaustiveSolver,
    GreedySolver,
    GroundTruthSolver,
    LocalSearchSolver,
    MaxTaskSolver,
    RandomSolver,
    SamplePlan,
    SamplingSolver,
    Solver,
    SolverResult,
)
from repro.core import (
    Assignment,
    MovingWorker,
    ObjectiveValue,
    RdbscProblem,
    SpatialTask,
    ValidityRule,
    evaluate_assignment,
)
from repro.datagen import ExperimentConfig, generate_problem
from repro.engine import AssignmentEngine

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "AssignmentEngine",
    "DivideConquerSolver",
    "ExhaustiveSolver",
    "ExperimentConfig",
    "GreedySolver",
    "GroundTruthSolver",
    "LocalSearchSolver",
    "MaxTaskSolver",
    "MovingWorker",
    "ObjectiveValue",
    "RandomSolver",
    "RdbscProblem",
    "SamplePlan",
    "SamplingSolver",
    "Solver",
    "SolverResult",
    "SpatialTask",
    "ValidityRule",
    "evaluate_assignment",
    "generate_problem",
    "__version__",
]
