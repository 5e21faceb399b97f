"""The RDB-SC sampling algorithm (Figure 5, Section 5).

Each sample is a full assignment drawn from the Section 5.1 population:
every worker independently picks one of its valid tasks uniformly (one bold
edge per worker node in Figure 4).  ``K`` samples are scored on
``(min reliability, total E[STD])`` and the winner is the sample with the
best dominance rank — the skyline member dominating the most other samples,
exactly the paper's [22]-style tie-break for when no sample dominates all
others.

**Determinism contract.**  How the ``K`` draws consume randomness is an
explicit, versioned contract (:data:`SUBSTREAM_V1`, recorded in durable
logs so a log written under any other draw order fails its restore-time
fingerprint check): a solve draws **one** base seed from the caller's
generator and then gives sample ``i`` its *own* child generator, spawned
deterministically as ``SeedSequence(base, spawn_key=(i,))``.  Sample
``i`` therefore depends only on ``(base, i)`` — never on how many samples
preceded it, which process drew it, or how a pool chunked the batch — so
the solved plan is bit-identical at every pool size (serial, and fanned
out across any number of executor processes).  This is the contract the
parallel solve subsystem (:mod:`repro.engine.parallel`) requires.

Scoring is one path, :class:`SampleChunkScorer`: it derives each
sample's per-worker choices from the sample's child generator in one
bounded-``integers`` call over the flattened candidate table (the exact
draw :func:`repro.algorithms.random_assign.draw_random_assignment`
makes), and scores them bit-identically to
:func:`repro.core.objectives.evaluate_assignment` without materialising
an :class:`Assignment`.  The solver runs it inline; an attached
:class:`repro.engine.parallel.ParallelSolveExecutor` runs the same
:meth:`SampleChunkScorer.score_range` on contiguous index ranges in its
pool processes.  Only the winner is ever materialised, re-drawn by index.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import RngLike, Solver, SolverResult, make_rng
from repro.algorithms.random_assign import (
    CandidateTable,
    draw_random_assignment_batch,
)
from repro.algorithms.sample_size import SamplePlan
from repro.core.assignment import Assignment
from repro.core.expected import expected_std
from repro.core.problem import RdbscProblem
from repro.core.reliability import log_to_reliability
from repro.skyline.dominance import best_index_by_dominance

#: The substream determinism contract (see the module docstring): one base
#: seed per solve, per-sample child generators, pool-size-independent plans.
SUBSTREAM_V1 = "substream-v1"

#: Exclusive upper bound of the base-seed draw — the full non-negative
#: ``int64`` range, so one ``integers`` call advances the caller's stream
#: by exactly one bounded draw.
_BASE_SEED_BOUND = 2**63


def substream_base_seed(generator: np.random.Generator) -> int:
    """Draw the solve's base seed: one bounded integer off the stream.

    The single draw is the only randomness the substream contract consumes
    from the caller's generator, so a persistent generator still yields
    fresh (but reproducible) sample sets epoch after epoch, while warm and
    full solves starting from equal generator state derive the same base —
    and therefore bit-identical samples.
    """
    return int(generator.integers(0, _BASE_SEED_BOUND))


def substream_rng(base_seed: int, index: int) -> np.random.Generator:
    """Sample ``index``'s child generator under :data:`SUBSTREAM_V1`.

    ``SeedSequence(base, spawn_key=(i,))`` is exactly the ``i``-th child
    ``SeedSequence(base).spawn()`` would produce, without materialising the
    siblings — any process can mint any sample's generator independently.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    )


class SampleChunkScorer:
    """Scores population draws bit-identically to ``evaluate_assignment``.

    Built once per (problem, chunk): pre-sorts the candidate table by
    worker id, and groups each sample's choices per task with one stable
    argsort instead of a per-worker Python loop.  Per-task evaluations —
    the Eq. 8 reliability sum and the ``O(r^2)`` ``E[STD]`` reduction,
    both over the task's chosen workers in ascending worker-id order,
    exactly as :func:`repro.core.objectives.evaluate_assignment` gathers
    them — are memoised per (task, chosen worker set): across a chunk of
    samples the same coincidence is scored once.  The memo only skips
    recomputation of identical inputs, and the per-task terms are
    accumulated in the problem's task order, so every score is
    bit-identical to the serial evaluation.
    """

    def __init__(self, problem: RdbscProblem) -> None:
        self.problem = problem
        self.table = CandidateTable.from_problem(problem)
        # Candidate-table rows re-ordered by ascending worker id: group
        # members then come out already in evaluate_assignment's order.
        order = np.argsort(self.table.worker_ids, kind="stable")
        self._degrees = self.table.degrees
        self._offsets_sorted = self.table.offsets[order]
        self._choice_order = order
        self._worker_ids_sorted = self.table.worker_ids[order]
        self._flat_tasks = self.table.flat_tasks
        self._task_rank = {
            task.task_id: rank for rank, task in enumerate(problem.tasks)
        }
        self._memo: Dict[Tuple[int, bytes], Tuple[float, float]] = {}
        self.evaluations = 0
        self.memo_hits = 0

    def _task_value(self, task_id: int, worker_ids: np.ndarray) -> Tuple[float, float]:
        """Memoised ``(R, E[STD])`` of one task's chosen worker set."""
        key = (task_id, worker_ids.tobytes())
        cached = self._memo.get(key)
        self.evaluations += 1
        if cached is not None:
            self.memo_hits += 1
            return cached
        problem = self.problem
        ids = worker_ids.tolist()
        r_value = sum(
            problem.workers_by_id[worker_id].log_confidence_weight
            for worker_id in ids
        )
        estd = expected_std(
            problem.tasks_by_id[task_id],
            [problem.pair_profile(task_id, worker_id) for worker_id in ids],
        )
        self._memo[key] = (r_value, estd)
        return r_value, estd

    def score_choices(self, choices: np.ndarray) -> Tuple[float, float]:
        """Score one sample given its per-table-row candidate choices.

        ``choices`` is the bounded-integers vector drawn against the
        candidate table's degree bounds — exactly what
        :func:`repro.algorithms.random_assign.draw_random_assignment_batch`
        consumes — so drawing and scoring agree on the sample's edges.
        """
        if self._worker_ids_sorted.shape[0] == 0:
            return (0.0, 0.0)
        picked = self._flat_tasks[
            self._offsets_sorted + choices[self._choice_order]
        ]
        group = np.argsort(picked, kind="stable")
        picked_sorted = picked[group]
        boundaries = np.flatnonzero(np.diff(picked_sorted)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [picked_sorted.shape[0]]))
        per_task: List[Tuple[int, float, float]] = []
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            task_id = int(picked_sorted[lo])
            r_value, estd = self._task_value(
                task_id, self._worker_ids_sorted[group[lo:hi]]
            )
            per_task.append((self._task_rank[task_id], r_value, estd))
        # Accumulate in the problem's task order: the same left-to-right
        # float additions evaluate_assignment performs.
        per_task.sort()
        total_std = 0.0
        min_r = math.inf
        for _, r_value, estd in per_task:
            total_std += estd
            min_r = min(min_r, r_value)
        if math.isinf(min_r) and min_r > 0:
            min_rel = 1.0
        else:
            min_rel = log_to_reliability(max(min_r, 0.0))
        return (min_rel, total_std)

    def score_range(self, base_seed: int, lo: int, hi: int) -> np.ndarray:
        """Score substream samples ``lo..hi-1``; returns a ``(hi-lo, 2)`` block."""
        out = np.empty((hi - lo, 2))
        degrees = self._degrees
        for index in range(lo, hi):
            generator = substream_rng(base_seed, index)
            if degrees.shape[0]:
                choices = generator.integers(0, degrees)
            else:
                choices = np.empty(0, dtype=np.int64)
            out[index - lo] = self.score_choices(choices)
        return out


def chunk_ranges(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``count`` sample indices into ``chunks`` contiguous ranges.

    Near-even, deterministic, order-preserving — the merge is a plain
    concatenation in range order.  Empty ranges are dropped.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be positive, got {chunks}")
    bounds = [count * chunk // chunks for chunk in range(chunks + 1)]
    return [
        (lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


class SamplePool:
    """Scores for a drawn sample batch, with on-demand materialisation.

    Scoring never builds an assignment (a fan-out ships only a K x 2 score
    block back from its processes), so the pool re-draws a sample locally
    when a caller asks for one: one batched draw from the sample's
    substream generator on a candidate table built on first use.

    Args:
        scores: per-sample ``(min reliability, total E[STD])`` pairs, in
            sample-index order.
        problem: the instance the samples were drawn on.
        base_seed: the solve's :func:`substream_base_seed`.
    """

    def __init__(
        self,
        scores: List[Tuple[float, float]],
        problem: RdbscProblem,
        base_seed: int,
    ) -> None:
        self.scores = scores
        self._problem = problem
        self._base_seed = base_seed
        self._table: Optional[CandidateTable] = None

    def __len__(self) -> int:
        return len(self.scores)

    def assignment(self, index: int) -> Assignment:
        """The sample at ``index``, re-drawn from its substream."""
        if self._table is None:
            self._table = CandidateTable.from_problem(self._problem)
        return draw_random_assignment_batch(
            self._table, substream_rng(self._base_seed, index)
        )


class SamplingSolver(Solver):
    """Draw K random assignments; keep the dominance-rank winner.

    Args:
        plan: the (epsilon, delta) sample-size plan; ignored when
            ``num_samples`` pins the count explicitly.
        num_samples: fixed sample count override.
        executor: optional sample fan-out executor (duck-typed to
            :class:`repro.engine.parallel.ParallelSolveExecutor`); when
            set, the substream sample batch is scored through it instead
            of inline.  The engine attaches this via its
            ``solve_executor`` knob.
    """

    name = "SAMPLING"

    def __init__(
        self,
        plan: Optional[SamplePlan] = None,
        num_samples: Optional[int] = None,
        executor=None,
    ) -> None:
        self.plan = plan if plan is not None else SamplePlan()
        self.num_samples = num_samples
        self.executor = executor

    def resolve_sample_count(self, problem: RdbscProblem) -> int:
        """The number of samples this solver would draw for ``problem``."""
        if self.num_samples is not None:
            if self.num_samples < 1:
                raise ValueError("num_samples must be at least 1")
            return self.num_samples
        return self.plan.resolve(problem.log_population_size())

    def solve(self, problem: RdbscProblem, rng: RngLike = None) -> SolverResult:
        generator = make_rng(rng)
        k = self.resolve_sample_count(problem)
        pool = self.scored_sample_pool(problem, generator, k)
        best = best_index_by_dominance(pool.scores)
        return self._finish(problem, pool.assignment(best), {"samples": float(k)})

    def scored_sample_pool(
        self,
        problem: RdbscProblem,
        generator: np.random.Generator,
        count: int,
    ) -> SamplePool:
        """Draw and score ``count`` samples under :data:`SUBSTREAM_V1`.

        The core of :meth:`solve`, shared with the warm-start wrapper
        (:class:`repro.solvers.incremental.WarmStartSamplingSolver`) so
        warm and full solves consume randomness identically: for equal
        generator state, sample ``i`` here is bit-identical to sample
        ``i`` of :meth:`solve` — inline and at any executor pool size.
        """
        base_seed = substream_base_seed(generator)
        if self.executor is not None:
            scores = self.executor.scored_sample_chunks(problem, base_seed, count)
        else:
            block = SampleChunkScorer(problem).score_range(base_seed, 0, count)
            scores = [tuple(row) for row in block.tolist()]
        return SamplePool(scores, problem, base_seed)
