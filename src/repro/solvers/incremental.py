"""Warm-start GREEDY and SAMPLING: repair the previous epoch's plan.

Under the Section 7.2 operating mode the engine re-solves every
``t_interval`` even when only a handful of entities churned in between —
after PR 2 made event *application* amortised-O(delta), from-scratch
solver time dominates long-lived sessions.  The previous epoch's
assignment is a near-feasible starting plan whenever churn is small, so
the warm-start solvers here reuse it instead of recomputing:

1. **Diff** — compare each worker's current candidate set (task ids and
   effective arrivals) against the previous epoch's
   (:func:`candidate_signatures` / :func:`dirty_workers`); a worker whose
   set is unchanged would be scored on exactly the same numbers as last
   time.
2. **Repair** — drop plan entries touching dead or invalidated pairs
   (:func:`repair_assignment`); everything else carries over verbatim.
3. **Re-insert** — re-score only the dirty workers:
   :class:`WarmStartGreedySolver` runs the ordinary greedy rounds over
   just those workers on top of the repaired plan, and
   :class:`WarmStartSamplingSolver` enters the repaired plan as an extra
   candidate next to freshly drawn samples.

The :class:`repro.engine.engine.AssignmentEngine` drives this behind
``solve_mode="warm"``, falling back to a full solve whenever the epoch's
churn fraction exceeds its ``warm_churn_threshold`` (repairing a mostly
invalidated plan costs more than solving cold) — see the engine docs and
``docs/ARCHITECTURE.md`` for the epoch lifecycle.  Equivalence and
quality are pinned by ``tests/test_warmstart.py``; the speedup is
recorded by ``benchmarks/bench_warmstart.py`` into
``BENCH_warmstart.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algorithms.base import RngLike, Solver, SolverResult, make_rng
from repro.algorithms.greedy import GreedySolver
from repro.algorithms.sampling import SamplingSolver
from repro.core.assignment import Assignment
from repro.core.objectives import IncrementalEvaluator, evaluate_assignment
from repro.core.problem import RdbscProblem
from repro.skyline.dominance import best_index_by_dominance

#: A worker's candidate signature: its valid (task id, effective arrival)
#: pairs in canonical (sorted) order.  Two epochs in which a worker has the
#: same signature would score that worker on exactly the same numbers.
Signature = Tuple[Tuple[int, float], ...]


@dataclass
class EpochDelta:
    """Accumulated churn between two consecutive epochs.

    The engine notes every state change here as it applies events; at the
    next epoch tick the delta decides between warm repair and full-solve
    fallback, then :meth:`clear` resets it for the next interval.  Entity
    ids are kept as sets so an entity churned repeatedly within one
    interval counts once.
    """

    workers_arrived: Set[int] = field(default_factory=set)
    workers_left: Set[int] = field(default_factory=set)
    workers_updated: Set[int] = field(default_factory=set)
    #: Workers touched only by the engine's own per-epoch re-anchor sweep
    #: (departure pulled to ``now``, position unchanged).  They are forced
    #: dirty — their arrivals drift, so the warm solvers must re-score
    #: them — but they are *endogenous clock bookkeeping*, not external
    #: churn: every clocked deployment re-anchors its idle frontier every
    #: epoch, and counting that against ``warm_churn_threshold`` would
    #: push warm mode into permanent fallback regardless of how quiet the
    #: actual workload is.
    workers_reanchored: Set[int] = field(default_factory=set)
    #: Workers *held* since the previous epoch (dispatched in-flight, see
    #: :meth:`repro.engine.engine.AssignmentEngine.hold_worker`).  A hold
    #: is plan-entry fulfilment, not invalidation: the previous epoch
    #: chose the worker for exactly the task it is now travelling to, the
    #: contribution re-enters the next epoch as a pinned profile, and no
    #: other entry's validity changes — so holds are forced dirty (their
    #: candidates vanish) but do not count toward the fallback fraction.
    #: The *release* at trip completion is ordinary update churn.
    workers_held: Set[int] = field(default_factory=set)
    tasks_arrived: Set[int] = field(default_factory=set)
    tasks_removed: Set[int] = field(default_factory=set)

    def churn_size(self) -> int:
        """Distinct externally churned entities since the previous epoch.

        Re-anchor-only workers are excluded (see ``workers_reanchored``);
        a worker that also arrived or was externally updated in the same
        interval still counts once.
        """
        workers = self.workers_arrived | self.workers_left | self.workers_updated
        tasks = self.tasks_arrived | self.tasks_removed
        return len(workers) + len(tasks)

    def churn_fraction(self, population: int) -> float:
        """Churn size relative to the previous epoch's live population."""
        return self.churn_size() / max(1, population)

    def touched_workers(self) -> Set[int]:
        """Workers the delta names directly (arrived, updated, re-anchored).

        Updated workers are forced dirty even when their candidate
        *signature* is unchanged: an in-place confidence refresh moves no
        arrival, yet can change which task the worker should serve.
        Re-anchored and held workers are forced dirty too — arrivals
        moved with the clock, or candidates vanished into a hold — even
        though neither counts as churn.
        """
        return (
            self.workers_arrived
            | self.workers_updated
            | self.workers_reanchored
            | self.workers_held
        )

    def clear(self) -> None:
        """Reset all sets (called by the engine after each epoch)."""
        self.workers_arrived.clear()
        self.workers_left.clear()
        self.workers_updated.clear()
        self.workers_reanchored.clear()
        self.workers_held.clear()
        self.tasks_arrived.clear()
        self.tasks_removed.clear()


@dataclass(frozen=True)
class PreviousPlan:
    """What one epoch hands the next: the plan and its scoring context.

    Attributes:
        assignment: the epoch's solved assignment over *real* workers
            (virtual pinned workers are regenerated per epoch and excluded).
        signatures: per-worker candidate signatures of the solved
            sub-instance, for the next epoch's dirty diff.
        population: live entity count (tasks + real workers) at solve
            time — the denominator of the churn-fraction fallback test.
    """

    assignment: Assignment
    signatures: Dict[int, Signature]
    population: int


def candidate_signatures(
    problem: RdbscProblem, exclude: FrozenSet[int] = frozenset()
) -> Dict[int, Signature]:
    """Each worker's canonical (task id, arrival) candidate signature.

    O(pairs) over the problem's already-canonicalised candidate lists.
    Workers in ``exclude`` (the engine passes its per-epoch virtual worker
    ids) are left out, as are zero-degree workers — a worker with no valid
    task has the empty signature implicitly, so arrivals into and out of
    degree zero still diff as changes.
    """
    signatures: Dict[int, Signature] = {}
    for worker in problem.workers:
        worker_id = worker.worker_id
        if worker_id in exclude:
            continue
        candidates = problem.candidate_tasks(worker_id)
        if not candidates:
            continue
        signatures[worker_id] = tuple(
            (task_id, problem.arrival(task_id, worker_id)) for task_id in candidates
        )
    return signatures


def dirty_workers(
    problem: RdbscProblem,
    plan: PreviousPlan,
    signatures: Optional[Dict[int, Signature]] = None,
    forced: FrozenSet[int] = frozenset(),
) -> Set[int]:
    """Workers whose scoring context changed since the previous epoch.

    A worker is dirty when its candidate signature differs from the plan's
    (it is new, a task in its reach arrived/expired/was withdrawn, it
    moved, or a forbidden-pair filter changed its edges) or when the
    engine forces it (``forced`` — in-place updates such as confidence
    refreshes, which can leave every arrival untouched).  Clean workers
    would be re-scored on exactly the same numbers as last epoch, so the
    warm solvers leave their plan entries in place.
    """
    current = signatures if signatures is not None else candidate_signatures(problem)
    dirty: Set[int] = {
        worker_id
        for worker_id, signature in current.items()
        if plan.signatures.get(worker_id) != signature
    }
    for worker_id in forced:
        if worker_id in problem.workers_by_id:
            dirty.add(worker_id)
    return dirty


def repair_assignment(
    problem: RdbscProblem,
    previous: Assignment,
    dirty: FrozenSet[int] = frozenset(),
) -> Assignment:
    """The previous plan with dead and invalidated entries dropped.

    Keeps every (task, worker) entry whose endpoints are still live, whose
    edge is still valid in ``problem``, and whose worker is not in
    ``dirty``; iteration is in sorted pair order so the repaired plan is
    independent of the previous assignment's insertion history.
    """
    repaired = Assignment()
    for task_id, worker_id in sorted(previous.pairs()):
        if worker_id in dirty:
            continue
        if worker_id not in problem.workers_by_id:
            continue
        if not problem.is_valid_pair(task_id, worker_id):
            continue
        repaired.assign(task_id, worker_id)
    return repaired


class WarmStartSolver(Solver):
    """Base class: a solver that can repair a previous epoch's plan.

    Wraps a one-shot base solver.  :meth:`solve` simply delegates to the
    base (a warm-start solver is a drop-in :class:`Solver`, and the
    engine's full-solve fallback uses exactly this path); subclasses add
    :meth:`warm_solve`, which additionally receives the previous plan.
    """

    def __init__(self, base: Solver) -> None:
        self.base = base
        self.name = f"WARM+{base.name}"

    def solve(self, problem: RdbscProblem, rng: RngLike = None) -> SolverResult:
        """Cold solve: delegate to the wrapped base solver."""
        return self.base.solve(problem, rng=rng)

    def warm_solve(
        self,
        problem: RdbscProblem,
        plan: PreviousPlan,
        forced_dirty: FrozenSet[int] = frozenset(),
        rng: RngLike = None,
        log_weights: Optional[Dict[int, float]] = None,
        signatures: Optional[Dict[int, Signature]] = None,
    ) -> SolverResult:
        """Solve ``problem`` starting from the previous epoch's plan.

        Args:
            problem: the current epoch's sub-instance.
            plan: the previous epoch's plan and candidate signatures.
            forced_dirty: worker ids the caller knows changed even if their
                signatures did not (in-place updates).
            rng: seed/generator, as for :meth:`solve`.
            log_weights: optional Eq. 8 weight map for workers that must be
                re-scored (the engine gathers it from the packed slot
                slabs on the numpy backend); ignored by solvers that do
                not score with it.
            signatures: the problem's :func:`candidate_signatures`, when
                the caller already computed them (the engine shares one
                pass per epoch between the dirty diff here and the next
                plan it stores); computed on demand when omitted.
        """
        raise NotImplementedError


class WarmStartGreedySolver(WarmStartSolver):
    """GREEDY warm start: repair the plan, re-run rounds on dirty workers.

    The repaired previous plan is loaded into the incremental evaluator as
    if those rounds had already been played, then the ordinary greedy
    round loop (:meth:`repro.algorithms.greedy.GreedySolver.run_rounds` —
    same scoring, same Lemma 4.3 pruning, same backend kernels) runs over
    only the workers whose candidate sets changed.  With zero churn the
    result is bit-identical to a full solve; under small churn it touches
    O(dirty) workers instead of O(n).

    One *widening* pass keeps quality honest: a task that lost one of its
    planned workers to the churn (the worker left, or its pair was
    invalidated) is re-balanced by also re-scoring that task's remaining
    candidate workers — without it the frozen plan could leave a churn-hit
    task under-served while the full solve would have re-covered it.  The
    pass is capped by objective contribution: only tasks whose coverage
    the *churn* took count as hurt, so losses the widening itself inflicts
    (a freed worker's other entries) do not propagate — the freed workers
    are in the re-scoring pool anyway — and a dense instance's candidate
    component is never chased transitively.  The widened set stays
    O(delta * per-task candidates), not O(n).

    Args:
        base: the full GREEDY solver used for scoring and for cold solves.
    """

    def __init__(self, base: Optional[GreedySolver] = None) -> None:
        super().__init__(base if base is not None else GreedySolver())

    def warm_solve(
        self,
        problem: RdbscProblem,
        plan: PreviousPlan,
        forced_dirty: FrozenSet[int] = frozenset(),
        rng: RngLike = None,
        log_weights: Optional[Dict[int, float]] = None,
        signatures: Optional[Dict[int, Signature]] = None,
    ) -> SolverResult:
        """Repair the previous plan and greedily re-insert dirty workers."""
        if signatures is None:
            signatures = candidate_signatures(problem)
        dirty = dirty_workers(problem, plan, signatures, forced_dirty)
        # Widen to the tasks whose reliability actually dropped: a task
        # that lost planned coverage *to the churn itself* (its worker
        # left, its pair was invalidated, or the worker is dirty) releases
        # its remaining candidates for re-scoring, so greedy can
        # re-balance it.  The widening is deliberately **capped at one
        # pass**: a task that loses a worker only because this widening
        # freed it has not lost reliability to churn — the freed worker
        # sits in the greedy pool and can be re-inserted anywhere,
        # including right back.  The earlier fixpoint propagation chased
        # those self-inflicted losses transitively and could touch a dense
        # instance's whole candidate component on one churned worker; the
        # cap keeps the re-scored set at O(churn * per-task candidates)
        # (pinned by the dense-chain regression test).
        repaired = repair_assignment(problem, plan.assignment, frozenset(dirty))
        hurt_tasks = {
            task_id
            for task_id, worker_id in plan.assignment.pairs()
            if task_id in problem.tasks_by_id
            and repaired.task_of(worker_id) != task_id
        }
        widened = set(dirty)
        for task_id in hurt_tasks:
            widened.update(problem.candidate_workers(task_id))
        if widened != dirty:
            dirty = widened
            repaired = repair_assignment(problem, plan.assignment, frozenset(dirty))
        evaluator = IncrementalEvaluator(problem)
        for task_id, worker_id in sorted(repaired.pairs()):
            evaluator.apply(task_id, worker_id)
        unassigned = sorted(
            worker.worker_id
            for worker in problem.workers
            if problem.degree(worker.worker_id) > 0
            and not evaluator.assignment.is_assigned(worker.worker_id)
        )
        base = self.base
        assert isinstance(base, GreedySolver)
        stats = base.run_rounds(problem, evaluator, unassigned, log_weights)
        stats["warm"] = 1.0
        stats["kept_pairs"] = float(len(repaired))
        stats["dirty_workers"] = float(len(dirty))
        return SolverResult(
            assignment=evaluator.assignment,
            objective=evaluator.value(),
            stats=stats,
        )


class WarmStartSamplingSolver(WarmStartSolver):
    """SAMPLING warm start: carry the repaired plan, draw fewer samples.

    The previous plan — repaired against the current pair graph and
    completed so that every positive-degree worker is assigned, as in any
    member of the Section 5.1 population — enters the pool as candidate
    zero next to ``ceil(K * fresh_fraction)`` freshly drawn samples; the
    dominance-rank winner is returned.  The fresh draws consume the RNG
    stream exactly as a full solve does, so for the same seed sample ``i``
    is bit-identical between warm and full mode (the differential suite
    pins this) — and with ``fresh_fraction=1.0`` the warm pool is a strict
    superset of the full pool, so the warm winner is never Pareto-dominated
    by the full winner.

    Args:
        base: the full SAMPLING solver (sample-size plan, backend).
        fresh_fraction: fraction of the full sample budget drawn fresh per
            warm epoch, in (0, 1]; the carried plan covers the rest of the
            quality.
        min_fresh: lower bound on fresh draws, so heavy-churn epochs just
            under the engine's fallback threshold still explore.
    """

    def __init__(
        self,
        base: Optional[SamplingSolver] = None,
        fresh_fraction: float = 0.25,
        min_fresh: int = 4,
    ) -> None:
        super().__init__(base if base is not None else SamplingSolver())
        if not 0.0 < fresh_fraction <= 1.0:
            raise ValueError(f"fresh_fraction must be in (0, 1], got {fresh_fraction}")
        if min_fresh < 1:
            raise ValueError(f"min_fresh must be at least 1, got {min_fresh}")
        self.fresh_fraction = fresh_fraction
        self.min_fresh = min_fresh

    def carried_candidate(
        self, problem: RdbscProblem, plan: PreviousPlan
    ) -> Assignment:
        """The repaired-and-completed previous plan.

        Entries touching dead or invalidated pairs are dropped; workers
        left unassigned by the repair (new arrivals, workers whose task
        expired, pinned virtual workers) then deterministically take their
        first candidate task, so the carried candidate assigns every
        positive-degree worker — a feasible member of the sample
        population that consumes no randomness.
        """
        carried = repair_assignment(problem, plan.assignment)
        for worker in problem.workers:
            worker_id = worker.worker_id
            if carried.is_assigned(worker_id):
                continue
            candidates = problem.candidate_tasks(worker_id)
            if candidates:
                carried.assign(candidates[0], worker_id)
        return carried

    def fresh_sample_count(self, problem: RdbscProblem) -> int:
        """Fresh draws for a warm epoch: the budget scaled by the fraction."""
        full = self.base.resolve_sample_count(problem)
        return min(full, max(self.min_fresh, math.ceil(full * self.fresh_fraction)))

    def warm_solve(
        self,
        problem: RdbscProblem,
        plan: PreviousPlan,
        forced_dirty: FrozenSet[int] = frozenset(),
        rng: RngLike = None,
        log_weights: Optional[Dict[int, float]] = None,
        signatures: Optional[Dict[int, Signature]] = None,
    ) -> SolverResult:
        """Pick the dominance winner among carried plan + fresh samples."""
        from repro.engine.profile import phase

        base = self.base
        assert isinstance(base, SamplingSolver)
        generator = make_rng(rng)
        carried = self.carried_candidate(problem, plan)
        fresh = self.fresh_sample_count(problem)
        sample_pool = base.scored_sample_pool(problem, generator, fresh)
        with phase("select"):
            carried_value = evaluate_assignment(problem, carried)
            pool_scores = [
                (carried_value.min_reliability, carried_value.total_std)
            ] + list(sample_pool.scores)
            best = best_index_by_dominance(pool_scores)
            winner = carried if best == 0 else sample_pool.assignment(best - 1)
            objective = evaluate_assignment(problem, winner)
        return SolverResult(
            assignment=winner,
            objective=objective,
            stats={
                "warm": 1.0,
                "samples": float(fresh),
                "carried_won": float(best == 0),
            },
        )


def warm_variant(solver: Solver) -> Optional[WarmStartSolver]:
    """The warm-start wrapper for a solver, if one exists.

    Already-wrapped solvers pass through unchanged; GREEDY and SAMPLING
    get their dedicated wrappers with default knobs.  ``None`` signals the
    engine that this solver has no warm path and every epoch must solve in
    full (RANDOM, D&C, exhaustive, ...).
    """
    if isinstance(solver, WarmStartSolver):
        return solver
    if isinstance(solver, GreedySolver):
        return WarmStartGreedySolver(solver)
    if isinstance(solver, SamplingSolver):
        return WarmStartSamplingSolver(solver)
    return None
