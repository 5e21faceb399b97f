"""The bi-objective value of an assignment and incremental evaluation.

RDB-SC maximises two things at once (Definition 4): the minimum reliability
over (non-empty) tasks and the total expected spatial/temporal diversity.
:func:`evaluate_assignment` scores a finished assignment;
:class:`IncrementalEvaluator` maintains the score while a solver adds
workers one at a time, answering "what would assigning (t, w) change?" in
amortised ``O(r^2)`` for the touched task instead of re-scoring everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.diversity import WorkerProfile
from repro.core.expected import expected_std
from repro.core.problem import RdbscProblem
from repro.core.reliability import log_to_reliability

#: Tolerance for dominance comparisons; keeps floating-point ties honest.
DOMINANCE_EPS = 1e-12


@dataclass(frozen=True, order=True)
class ObjectiveValue:
    """The pair the paper optimises: ``(min reliability, total E[STD])``.

    ``min_reliability`` is in probability units (Eq. 1), ``total_std`` is
    the Eq. 7 sum.  Ordering is lexicographic and exists only for stable
    sorting; preference between strategies is the *dominance* relation.
    """

    min_reliability: float
    total_std: float


def dominates(a: ObjectiveValue, b: ObjectiveValue) -> bool:
    """Pareto dominance: ``a`` is at least as good everywhere, better somewhere."""
    if a.min_reliability < b.min_reliability - DOMINANCE_EPS:
        return False
    if a.total_std < b.total_std - DOMINANCE_EPS:
        return False
    return (
        a.min_reliability > b.min_reliability + DOMINANCE_EPS
        or a.total_std > b.total_std + DOMINANCE_EPS
    )


@dataclass
class TaskState:
    """Cached per-task quantities used during incremental evaluation.

    Attributes:
        profiles: the assigned workers' views of this task.
        r_value: the log-domain reliability ``R = sum -ln(1 - p)``.
        estd: the task's current ``E[STD]``.
    """

    profiles: List[WorkerProfile] = field(default_factory=list)
    r_value: float = 0.0
    estd: float = 0.0


def evaluate_assignment(
    problem: RdbscProblem,
    assignment: Assignment,
    include_empty: bool = False,
) -> ObjectiveValue:
    """Score a complete assignment from scratch.

    Diversity uses the polynomial expected-STD reduction; reliability is the
    minimum over non-empty tasks unless ``include_empty`` (see
    :func:`repro.core.reliability.min_reliability` for why).
    """
    total_std = 0.0
    min_r = math.inf
    any_assigned = False
    for task in problem.tasks:
        worker_ids = assignment.workers_for(task.task_id)
        if not worker_ids:
            if include_empty:
                min_r = 0.0
            continue
        any_assigned = True
        workers = [problem.workers_by_id[w] for w in sorted(worker_ids)]
        profiles = [
            problem.pair_profile(task.task_id, w.worker_id) for w in workers
        ]
        total_std += expected_std(task, profiles)
        r_value = sum(w.log_confidence_weight for w in workers)
        min_r = min(min_r, r_value)
    if not any_assigned:
        return ObjectiveValue(0.0, 0.0)
    if math.isinf(min_r) and min_r > 0:
        min_rel = 1.0
    else:
        min_rel = log_to_reliability(max(min_r, 0.0))
    return ObjectiveValue(min_rel, total_std)


class IncrementalEvaluator:
    """Maintains objective values while workers are assigned one by one.

    Supports the GREEDY inner loop (Figure 3) and the D&C merge: querying
    the effect of a candidate assignment without mutating, then committing
    the chosen one.  Only additions are supported — the paper's solvers
    never retract an assignment mid-run (the merge step works on copies).
    """

    def __init__(self, problem: RdbscProblem) -> None:
        self.problem = problem
        self.assignment = Assignment()
        self._states: Dict[int, TaskState] = {}
        self.total_std = 0.0

    # -- queries ---------------------------------------------------------

    def state_of(self, task_id: int) -> TaskState:
        """Current cached state of a task (empty state if unassigned)."""
        return self._states.get(task_id, TaskState())

    def min_r(self) -> float:
        """Minimum log-domain reliability over non-empty tasks.

        ``inf`` when nothing is assigned yet (so that the first assignment
        registers as a drop to its own value rather than a rise from 0 —
        callers translating to probability units should map ``inf`` of an
        empty evaluator to 0).
        """
        if not self._states:
            return math.inf
        return min(state.r_value for state in self._states.values())

    def value(self) -> ObjectiveValue:
        """Current objective value in the paper's reporting units."""
        if not self._states:
            return ObjectiveValue(0.0, 0.0)
        return ObjectiveValue(log_to_reliability(self.min_r()), self.total_std)

    def min_two_r(self) -> Tuple[float, float]:
        """The smallest and second-smallest task ``R`` (inf-padded).

        With these two values, the effect of any single assignment on the
        minimum is an O(1) computation — the greedy inner loop depends on
        that (see :meth:`delta_min_r`).
        """
        best = math.inf
        second = math.inf
        for state in self._states.values():
            if state.r_value < best:
                second = best
                best = state.r_value
            elif state.r_value < second:
                second = state.r_value
        return best, second

    def delta_min_r(
        self, task_id: int, worker_id: int, min_two: Optional[Tuple[float, float]] = None
    ) -> float:
        """Change of the minimum log-reliability if the pair were assigned.

        O(1) given ``min_two`` (pass :meth:`min_two_r` when querying many
        pairs in one round).  Can be negative: opening a brand-new task
        whose lone reliability becomes the new minimum drags it down.
        """
        worker = self.problem.workers_by_id[worker_id]
        state = self._states.get(task_id)
        best, second = min_two if min_two is not None else self.min_two_r()
        if state is None:
            new_r = worker.log_confidence_weight
            new_min = min(best, new_r)
        else:
            new_r = state.r_value + worker.log_confidence_weight
            if state.r_value == best:
                new_min = min(new_r, second)
            else:
                new_min = best
        if math.isinf(best):
            # First assignment overall: treat the old minimum as 0 so the
            # delta rewards opening the first task.
            return new_min
        return new_min - best

    def estd_after(self, task_id: int, worker_id: int) -> float:
        """The touched task's ``E[STD]`` if the pair were assigned, no mutation.

        Costs ``O(r^2)`` for the task's current worker count ``r``.
        """
        state = self._states.get(task_id)
        profiles = list(state.profiles) if state else []
        profiles.append(self.problem.pair_profile(task_id, worker_id))
        return expected_std(self.problem.tasks_by_id[task_id], profiles)

    def delta_estd(self, task_id: int, worker_id: int) -> float:
        """Exact ``E[STD]`` increase of the touched task, no mutation.

        Always non-negative (Lemma 4.2): :meth:`estd_after` minus the
        task's current ``E[STD]``.
        """
        state = self._states.get(task_id)
        return self.estd_after(task_id, worker_id) - (state.estd if state else 0.0)

    def delta_if_assigned(self, task_id: int, worker_id: int) -> Tuple[float, float]:
        """``(delta min-R, delta E[STD])`` of assigning the pair, no mutation.

        Convenience wrapper over :meth:`delta_min_r` and :meth:`delta_estd`.
        """
        return (
            self.delta_min_r(task_id, worker_id),
            self.delta_estd(task_id, worker_id),
        )

    # -- mutation --------------------------------------------------------

    def apply(
        self, task_id: int, worker_id: int, new_estd: Optional[float] = None
    ) -> None:
        """Commit the assignment of ``worker_id`` to ``task_id``.

        ``new_estd`` is the task's post-commit ``E[STD]`` when the caller
        already holds it (a memoised :meth:`estd_after` of this very pair,
        so the bits are the same); it is computed here otherwise.
        """
        worker = self.problem.workers_by_id[worker_id]
        state = self._states.setdefault(task_id, TaskState())
        state.profiles.append(self.problem.pair_profile(task_id, worker_id))
        state.r_value += worker.log_confidence_weight
        if new_estd is None:
            new_estd = expected_std(self.problem.tasks_by_id[task_id], state.profiles)
        self.total_std += new_estd - state.estd
        state.estd = new_estd
        self.assignment.assign(task_id, worker_id)
