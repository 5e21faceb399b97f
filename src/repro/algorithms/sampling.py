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
makes), and scores a whole index range in one vector pass — each
distinct (task, chosen worker set) of the range once, through the batched
E[STD] slab kernel — bit-identically to
:func:`repro.core.objectives.evaluate_assignment` without materialising
an :class:`Assignment`.  The solver runs it inline; an attached
:class:`repro.engine.parallel.ParallelSolveExecutor` runs the same
:meth:`SampleChunkScorer.score_range` on contiguous index ranges in its
pool processes.  Only the winner is ever materialised, re-drawn by index.
The dominance rank of ``K`` scores is a numpy matrix
(:func:`repro.skyline.dominance.best_index_by_dominance`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import RngLike, Solver, SolverResult, make_rng
from repro.algorithms.random_assign import (
    CandidateTable,
    draw_random_assignment_batch,
)
from repro.algorithms.sample_size import SamplePlan
from repro.core.assignment import Assignment
from repro.core.problem import RdbscProblem
from repro.core.reliability import log_to_reliability
from repro.fastpath.diversity import DiversitySlab, batch_expected_std
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


#: Bits used per mask word: a task's candidate pairs, in worker-id order,
#: set bits ``slot % 62`` of word ``slot // 62``, so any task degree
#: encodes in ``ceil(degree / 62)`` non-negative ``int64`` words.
_MASK_BITS = 62

#: Rough cell budget of one scoring block's ``(samples, tasks x mask
#: words)`` and ``(samples, workers)`` matrices: a range is scored in
#: blocks of at most this many cells (one block at engine-sized K).  The
#: largest temporaries are the E[STD] slab's per-row term matrices, which
#: grow with the block's distinct rows; measured peak RSS growth for a
#: 10 000-sample range is ~15 MiB on ``sample_pool``'s 110 x 211 problems
#: and ~65 MiB on a dense 60 x 524 instance (every task ~9 members per
#: sample).  Samples are scored independently, so blocking cannot change
#: a bit.
_BLOCK_CELLS = 1 << 18


class SampleChunkScorer:
    """Scores population draws bit-identically to ``evaluate_assignment``.

    Built once per (problem, chunk).  The per-pair columns (profile angle,
    arrival and confidence, the worker's ``log_confidence_weight``) are
    laid out task-major, each task's candidates in ascending worker id —
    the order :func:`repro.core.objectives.evaluate_assignment` gathers a
    task's chosen workers in.  :meth:`score_range` then scores a whole
    index range in one vector pass:

    1. every sample's choices (one bounded-``integers`` call on its own
       substream generator, the draw the winner is later re-made with)
       are stacked into a ``(samples, workers)`` matrix of flat pairs;
    2. each (sample, task) group becomes a bitmask over the task's
       candidate slots, and the ``(task, mask)`` rows are deduplicated
       with :func:`numpy.unique` — across a range the same coincidence
       recurs many times and is scored once;
    3. the distinct rows are scored as one
       :class:`~repro.fastpath.diversity.DiversitySlab` through the
       bitwise :func:`~repro.fastpath.diversity.batch_expected_std`
       (each row's members read off its first group's draws), and each
       row's Eq. 8 sum ``R`` is the builtin ``sum()`` of its weights, as
       in ``evaluate_assignment``;
    4. the rows are scattered back into ``(samples, tasks)`` matrices in
       the problem's task order, where ``total E[STD]`` is again a
       sequential ``cumsum`` (absent tasks add an exact ``+0.0``) and the
       minimum ``R`` goes through ``math``'s ``exp`` as the scalar does.

    ``groups`` and ``distinct_rows`` count the (sample, task) groups of
    the last range and the rows actually scored for them.  A range larger
    than :data:`_BLOCK_CELLS` allows is scored block by block.
    """

    def __init__(self, problem: RdbscProblem) -> None:
        table = CandidateTable.from_problem(problem)
        self._degrees = table.degrees
        self._offsets = table.offsets
        self._num_tasks = len(problem.tasks)
        rank_of = {task.task_id: rank for rank, task in enumerate(problem.tasks)}
        # Flat table entry -> its task's rank and its worker id.
        pair_workers = np.repeat(table.worker_ids, table.degrees)
        pair_ranks = np.asarray(
            [rank_of[task_id] for task_id in table.flat_tasks.tolist()],
            dtype=np.int64,
        )
        # Task-major order: by task rank, then worker id.  An entry's slot
        # is its position among its task's candidates.
        by_task = np.lexsort((pair_workers, pair_ranks))
        task_degrees = np.bincount(pair_ranks, minlength=self._num_tasks)
        task_starts = np.cumsum(task_degrees) - task_degrees
        slots = np.empty(by_task.shape[0], dtype=np.int64)
        slots[by_task] = np.arange(by_task.shape[0]) - task_starts[pair_ranks[by_task]]
        self._pair_ranks = pair_ranks
        self._pair_positions = task_starts[pair_ranks] + slots
        self._pair_words = slots // _MASK_BITS
        self._pair_bits = np.left_shift(1, slots % _MASK_BITS, dtype=np.int64)
        self._words = max(1, -(-int(task_degrees.max(initial=0)) // _MASK_BITS))
        # Task-major per-pair and per-task columns.
        worker_ids = pair_workers[by_task].tolist()
        profiles = [
            problem.pair_profile(task_id, worker_id)
            for task_id, worker_id in zip(
                table.flat_tasks[by_task].tolist(), worker_ids
            )
        ]
        self._angles = np.asarray([p.angle for p in profiles], dtype=np.float64)
        self._arrivals = np.asarray([p.arrival for p in profiles], dtype=np.float64)
        self._confidences = np.asarray(
            [p.confidence for p in profiles], dtype=np.float64
        )
        self._weights = np.asarray(
            [
                problem.workers_by_id[worker_id].log_confidence_weight
                for worker_id in worker_ids
            ],
            dtype=np.float64,
        )
        self._betas = np.asarray([t.beta for t in problem.tasks], dtype=np.float64)
        self._starts = np.asarray([t.start for t in problem.tasks], dtype=np.float64)
        self._ends = np.asarray([t.end for t in problem.tasks], dtype=np.float64)
        self.groups = 0
        self.distinct_rows = 0

    def score_range(self, base_seed: int, lo: int, hi: int) -> np.ndarray:
        """Score substream samples ``lo..hi-1``; returns a ``(hi-lo, 2)`` block."""
        out = np.zeros((max(hi - lo, 0), 2))
        self.groups = self.distinct_rows = 0
        if not self._degrees.shape[0]:
            return out
        per_sample = self._num_tasks * self._words + self._degrees.shape[0]
        step = max(1, _BLOCK_CELLS // per_sample)
        for start in range(lo, hi, step):
            stop = min(hi, start + step)
            out[start - lo : stop - lo] = self._score_block(base_seed, start, stop)
        return out

    def _score_block(self, base_seed: int, lo: int, hi: int) -> np.ndarray:
        """One vector pass over samples ``lo..hi-1`` (at least one)."""
        count = hi - lo
        out = np.empty((count, 2))
        degrees = self._degrees
        pairs = self._offsets + np.stack(
            [substream_rng(base_seed, i).integers(0, degrees) for i in range(lo, hi)]
        )
        num_tasks, words = self._num_tasks, self._words
        cells = (np.arange(count)[:, None] * num_tasks + self._pair_ranks[pairs]).ravel()
        pairs = pairs.ravel()
        masks = np.zeros((count * num_tasks, words), dtype=np.int64)
        np.bitwise_or.at(
            masks, (cells, self._pair_words[pairs]), self._pair_bits[pairs]
        )
        present = np.flatnonzero(masks.any(axis=1))
        ranks = present % num_tasks
        keys = np.column_stack((ranks, masks[present]))
        # One opaque byte string per row: np.unique sorts these far faster
        # than it sorts rows with axis=0; the order is irrelevant here.
        row_bytes = np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))
        _, firsts, inverse = np.unique(
            keys.view(row_bytes).reshape(-1), return_index=True, return_inverse=True
        )
        num_rows = firsts.shape[0]
        self.groups += int(present.shape[0])
        self.distinct_rows += num_rows
        # Each distinct row's members are the draws of its first (sample,
        # task) group, so the masks are never decoded back into slots.
        row_of_cell = np.full(count * num_tasks, -1)
        row_of_cell[present[firsts]] = np.arange(num_rows)
        entry_rows = row_of_cell[cells]
        members = np.flatnonzero(entry_rows >= 0)
        r_values, estds = self._score_rows(
            ranks[firsts],
            entry_rows[members],
            self._pair_positions[pairs[members]],
        )
        samples = present // num_tasks
        r_matrix = np.full((count, num_tasks), np.inf)
        s_matrix = np.zeros((count, num_tasks))
        r_matrix[samples, ranks] = r_values[inverse]
        s_matrix[samples, ranks] = estds[inverse]
        # Task-order accumulation: cumsum is sequential (np.sum is
        # pairwise and would change bits); absent tasks add +0.0.
        out[:, 1] = np.cumsum(s_matrix, axis=1)[:, -1]
        # R >= 0 (weights are >= 0), so evaluate_assignment's clamp
        # at 0.0 is a no-op; log_to_reliability maps +inf (a certain
        # worker) to 1.0 and everything else through math.exp.
        out[:, 0] = [log_to_reliability(r) for r in r_matrix.min(axis=1).tolist()]
        return out

    def _score_rows(
        self, ranks: np.ndarray, row_of: np.ndarray, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(R, E[STD])`` of each distinct row.

        ``ranks`` holds each row's task rank; ``row_of`` and ``positions``
        list the rows' members (any order) as (row, task-major position).
        """
        num_rows = ranks.shape[0]
        # By row, then position: each row's workers in ascending worker id.
        order = np.lexsort((positions, row_of))
        row_of, positions = row_of[order], positions[order]
        counts = np.bincount(row_of, minlength=num_rows)
        ends = np.cumsum(counts)
        firsts = ends - counts
        col = np.arange(row_of.shape[0]) - firsts[row_of]
        width = int(counts.max())
        angles = np.zeros((num_rows, width))
        arrivals = np.zeros((num_rows, width))
        confidences = np.zeros((num_rows, width))
        angles[row_of, col] = self._angles[positions]
        arrivals[row_of, col] = self._arrivals[positions]
        confidences[row_of, col] = self._confidences[positions]
        # Eq. 8's R with the builtin sum() evaluate_assignment uses, over
        # the same floats in the same order: equal bits on every Python
        # (3.12's sum() compensates, a plain running sum does not).
        weights = self._weights[positions].tolist()
        r_values = np.asarray(
            [sum(weights[a:b]) for a, b in zip(firsts.tolist(), ends.tolist())],
            dtype=np.float64,
        )
        estds = batch_expected_std(
            DiversitySlab(
                betas=self._betas[ranks],
                starts=self._starts[ranks],
                ends=self._ends[ranks],
                counts=counts,
                angles=angles,
                arrivals=arrivals,
                confidences=confidences,
            )
        )
        return r_values, estds


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
        from repro.engine.profile import phase

        generator = make_rng(rng)
        k = self.resolve_sample_count(problem)
        pool = self.scored_sample_pool(problem, generator, k)
        with phase("select"):
            best = best_index_by_dominance(pool.scores)
            return self._finish(
                problem, pool.assignment(best), {"samples": float(k)}
            )

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
        from repro.engine.profile import phase

        base_seed = substream_base_seed(generator)
        with phase("sample_score"):
            if self.executor is not None:
                scores = self.executor.scored_sample_chunks(
                    problem, base_seed, count
                )
            else:
                block = SampleChunkScorer(problem).score_range(base_seed, 0, count)
                scores = [tuple(row) for row in block.tolist()]
        return SamplePool(scores, problem, base_seed)
