"""The parallel solve subsystem: sample fan-out and shard-batched scoring.

PR 4 scaled the *index* side out — per-shard sub-grids, fanned-out epoch
maintenance — but the per-epoch **solve** stayed one serial global pass:
SAMPLING drew every sample from one RNG stream and GREEDY scored every
candidate in one loop.  This module parallelises the solve where it
decomposes honestly:

* **Sample fan-out.**  Under the substream determinism contract
  (:data:`repro.algorithms.sampling.SUBSTREAM_V1`) sample ``i`` depends
  only on ``(base seed, i)``, so independent sample evaluations partition
  freely.  :class:`ParallelSampleExecutor` ships the epoch sub-instance
  once per process — packed into flat arrays via :mod:`repro.fastpath.
  arrays`, not pickled object graphs — fans contiguous sample-index
  chunks across pinned worker processes, and merges the returned score
  blocks in sample-index order.  Each chunk is scored by
  :class:`SampleChunkScorer`, a bit-identical twin of
  :func:`repro.core.objectives.evaluate_assignment` that additionally
  memoises per-(task, chosen worker set) evaluations — repeated
  coincidences across a chunk's samples are scored once.  Plans are
  bit-identical at every pool size, and to the serial substream path.
* **Shard-batched greedy scoring.**  GREEDY stays globally coupled (every
  round scores against the global minimum reliability), but within one
  round the ``Δmin_R`` candidate scoring is embarrassingly parallel.
  :class:`ShardBatchedScorer` partitions a round's candidates per shard
  (via the engine's :class:`~repro.engine.sharding.ShardMap`, or into
  contiguous chunks without one), evaluates each batch through the
  element-wise :func:`repro.fastpath.kernels.batch_delta_min_r` kernel —
  inline, or across the process pool for large rounds — and scatters the
  results back into candidate order *before* the global argmax, so the
  committed plan is bit-identical to the serial greedy.

Both faces share one set of pinned single-worker process pools
(:class:`PinnedWorkerPools`, generalised from the per-shard pools of
:mod:`repro.engine.sharding`), owned by the umbrella
:class:`ParallelSolveExecutor` — the object the engines accept through
their ``solve_executor=`` knob and bind to GREEDY / SAMPLING solvers
(including their warm-start wrappers, whose dirty-worker re-scoring and
fresh draws run through the same attached executor).

Throughput is recorded by ``benchmarks/bench_parallel_solve.py`` into
``BENCH_parallel_solve.json``; the determinism contract is pinned by
``tests/test_parallel.py`` and the golden fixture.
"""

from __future__ import annotations

import math
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.greedy import GreedySolver
from repro.algorithms.random_assign import CandidateTable
from repro.algorithms.sampling import SamplingSolver, substream_rng
from repro.core.problem import RdbscProblem
from repro.core.reliability import log_to_reliability
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.fastpath.arrays import (
    TaskArrays,
    WorkerArrays,
    pack_pairs,
    unpack_pairs,
)
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.solvers.incremental import WarmStartSolver


# --------------------------------------------------------------------- #
# Pinned process pools (generalised from the per-shard pools)
# --------------------------------------------------------------------- #


class PinnedWorkerPools:
    """``count`` single-worker process pools with stable task affinity.

    One ``ProcessPoolExecutor(max_workers=1)`` per slot: work submitted to
    slot ``i`` always lands in the same OS process, so per-process state —
    a shard's sub-grid, a chunk scorer's unpacked problem — has process
    affinity for the pools' lifetime.  This is the per-shard pool pattern
    of :class:`repro.engine.elastic.ProcessResidentExecutor`, shared with
    the solve fan-out.

    Args:
        count: number of pinned slots (and processes).
        initializer: optional per-process initializer.
        initargs_per_slot: optional per-slot initializer arguments (one
            tuple per slot); omitted slots initialise with no arguments.
    """

    def __init__(
        self,
        count: int,
        initializer=None,
        initargs_per_slot: Optional[Sequence[tuple]] = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self._pools = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=initializer,
                initargs=(
                    initargs_per_slot[slot]
                    if initargs_per_slot is not None
                    else ()
                ),
            )
            for slot in range(count)
        ]

    def __len__(self) -> int:
        return len(self._pools)

    def submit(self, slot: int, fn, *args):
        """Submit work to the pinned process at ``slot`` (mod the count)."""
        return self._pools[slot % len(self._pools)].submit(fn, *args)

    def close(self) -> None:
        """Shut every pinned worker process down."""
        for pool in self._pools:
            pool.shutdown()


# --------------------------------------------------------------------- #
# Problem wire format
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ProblemWire:
    """A sub-instance packed for cheap transport to a worker process.

    Tasks, workers and valid pairs travel as flat ``float64``/``int64``
    columns (the :mod:`repro.fastpath.arrays` packing) instead of pickled
    object graphs — per-object pickle overhead dominates otherwise.
    Column values are copied bit-exactly, so the rebuilt problem's
    arrivals, profiles and weights equal the original's.
    """

    task_columns: Tuple[np.ndarray, ...]
    worker_columns: Tuple[np.ndarray, ...]
    pairs: Tuple[np.ndarray, np.ndarray, np.ndarray]
    validity: ValidityRule


def pack_problem(problem: RdbscProblem) -> ProblemWire:
    """Pack a problem's entities and valid-pair graph into flat arrays."""
    tasks = TaskArrays.from_tasks(problem.tasks)
    workers = WorkerArrays.from_workers(problem.workers)
    return ProblemWire(
        task_columns=(
            tasks.ids,
            tasks.xs,
            tasks.ys,
            tasks.starts,
            tasks.ends,
            tasks.betas,
        ),
        worker_columns=(
            workers.ids,
            workers.xs,
            workers.ys,
            workers.velocities,
            workers.cone_los,
            workers.cone_widths,
            workers.confidences,
            workers.depart_times,
        ),
        pairs=pack_pairs(problem.valid_pairs()),
        validity=problem.validity,
    )


def unpack_problem(wire: ProblemWire) -> RdbscProblem:
    """Rebuild the packed sub-instance, bit-identically.

    Entity attributes and pair arrivals are reconstructed from the exact
    float columns :func:`pack_problem` copied, and the problem
    canonicalises candidate order itself, so solvers observe exactly the
    original instance.
    """
    ids, xs, ys, starts, ends, betas = wire.task_columns
    tasks = [
        SpatialTask(int(i), Point(x, y), start, end, beta)
        for i, x, y, start, end, beta in zip(
            ids.tolist(),
            xs.tolist(),
            ys.tolist(),
            starts.tolist(),
            ends.tolist(),
            betas.tolist(),
        )
    ]
    wids, wxs, wys, vels, los, widths, confs, departs = wire.worker_columns
    workers = [
        MovingWorker(
            int(i), Point(x, y), velocity, AngleInterval(lo, width), conf, depart
        )
        for i, x, y, velocity, lo, width, conf, depart in zip(
            wids.tolist(),
            wxs.tolist(),
            wys.tolist(),
            vels.tolist(),
            los.tolist(),
            widths.tolist(),
            confs.tolist(),
            departs.tolist(),
        )
    ]
    return RdbscProblem(
        tasks,
        workers,
        wire.validity,
        precomputed_pairs=unpack_pairs(wire.pairs),
    )


# --------------------------------------------------------------------- #
# Chunked sample scoring
# --------------------------------------------------------------------- #


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
        from repro.core.expected import expected_std

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


def _score_chunk_remote(
    wire: ProblemWire, base_seed: int, lo: int, hi: int
) -> np.ndarray:
    """Worker-process entry: rebuild the instance, score one index range."""
    return SampleChunkScorer(unpack_problem(wire)).score_range(base_seed, lo, hi)


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


class ParallelSampleExecutor:
    """Fans independent substream sample evaluations across processes.

    Each solve ships the packed sub-instance (:func:`pack_problem`) to
    every participating process once, fans the sample indices out as
    contiguous chunks, and concatenates the returned score blocks in
    chunk order — sample ``i``'s score lands at position ``i`` regardless
    of the pool size, and equals the serial substream evaluation bitwise
    (each sample is keyed by ``(base seed, i)`` alone).  With
    ``processes=0`` the same chunked scoring runs inline — the
    deterministic reference executor, and the configuration that still
    buys the chunk scorer's memoisation without any IPC.

    Args:
        pools: pinned worker pools shared with the owning
            :class:`ParallelSolveExecutor` (``None`` for inline scoring).
        min_samples_per_process: fan out only when every participating
            process would receive at least this many samples; smaller
            batches score inline (shipping a problem per process costs
            more than it saves).
    """

    def __init__(
        self,
        pools: Optional[PinnedWorkerPools] = None,
        min_samples_per_process: int = 8,
    ) -> None:
        self.pools = pools
        self.min_samples_per_process = min_samples_per_process
        #: Lifetime counters: solves routed, chunks fanned out, samples
        #: scored inline vs remotely.
        self.stats: Dict[str, int] = {
            "solves": 0,
            "chunks_fanned": 0,
            "samples_remote": 0,
            "samples_inline": 0,
        }

    def _processes_for(self, count: int) -> int:
        if self.pools is None:
            return 0
        usable = min(len(self.pools), count // max(1, self.min_samples_per_process))
        return usable if usable >= 2 else 0

    def scored_sample_chunks(
        self, problem: RdbscProblem, base_seed: int, count: int
    ) -> List[Tuple[float, float]]:
        """Scores for samples ``0..count-1``, in sample-index order."""
        self.stats["solves"] += 1
        processes = self._processes_for(count)
        if processes == 0:
            self.stats["samples_inline"] += count
            scorer = SampleChunkScorer(problem)
            block = scorer.score_range(base_seed, 0, count)
            return [tuple(row) for row in block.tolist()]
        wire = pack_problem(problem)
        ranges = chunk_ranges(count, processes)
        futures = [
            self.pools.submit(slot, _score_chunk_remote, wire, base_seed, lo, hi)
            for slot, (lo, hi) in enumerate(ranges)
        ]
        self.stats["chunks_fanned"] += len(futures)
        self.stats["samples_remote"] += count
        scores: List[Tuple[float, float]] = []
        for future in futures:
            scores.extend(tuple(row) for row in future.result().tolist())
        return scores


# --------------------------------------------------------------------- #
# Shard-batched greedy round scoring
# --------------------------------------------------------------------- #


def _round_chunk_remote(
    task_r: np.ndarray,
    task_has: np.ndarray,
    weights: np.ndarray,
    best: float,
    second: float,
) -> np.ndarray:
    """One batch through the ``Δmin_R`` kernel (inline or in a worker process)."""
    from repro.fastpath.kernels import batch_delta_min_r

    return batch_delta_min_r(task_r, task_has, weights, best, second)


def _dstd_chunk_remote(
    betas: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    counts: np.ndarray,
    angles: np.ndarray,
    arrivals: np.ndarray,
    confidences: np.ndarray,
    old_estd: np.ndarray,
) -> np.ndarray:
    """One slab batch through the ``ΔE[STD]`` kernel (inline or remote).

    The kernel is row-independent, so evaluating sliced slab rows and
    subtracting the sliced ``old_estd`` produces exactly the bits of a
    whole-slab evaluation, in this process or a worker.
    """
    from repro.fastpath.diversity import DiversitySlab, batch_expected_std

    slab = DiversitySlab(
        betas=betas,
        starts=starts,
        ends=ends,
        counts=counts,
        angles=angles,
        arrivals=arrivals,
        confidences=confidences,
    )
    return batch_expected_std(slab) - old_estd


class ShardBatchedScorer:
    """Per-round greedy scoring in shard batches, merged before argmax.

    The greedy round loop stays globally coupled — each round's winner is
    the dominance argmax over *all* candidates — but the candidate scoring
    itself partitions freely.  The solver hands over the round's arrays
    plus a per-candidate batch key (:meth:`batch_keys`): candidates are
    batched by the worker's owning shard (the same cell-block partition
    the sharded engine routes churn by) or, without a shard map, into
    contiguous chunks; each batch
    runs through :func:`repro.fastpath.kernels.batch_delta_min_r` (and,
    for the post-pruning exact evaluations,
    :func:`repro.fastpath.diversity.batch_expected_std` over sliced slab
    rows), and results are scattered back into the candidate order before
    the argmax.
    The kernel is element-wise, so the merged scores — and therefore the
    committed plan — are bit-identical to the serial greedy at every batch
    count and pool size.

    Args:
        pools: pinned worker pools shared with the owning
            :class:`ParallelSolveExecutor`; ``None`` scores every batch
            inline (the partition-and-merge architecture without IPC).
        shard_map: optional :class:`repro.engine.sharding.ShardMap`-like
            router (``shard_of_point``/``num_shards``) that assigns each
            candidate's worker to a batch.
        min_pairs_per_process: a batch goes to the pool only when it
            individually holds at least this many candidates (and at
            least one other batch does too — a lone remote batch has
            nothing to overlap with); smaller batches, and typical whole
            rounds, score inline.
        min_dstd_per_process: the same gate for exact ``ΔE[STD]`` slab
            batches (:meth:`round_delta_estd`), lower because each row
            costs an O(r^2) reduction rather than one ``Δmin_R`` formula.
    """

    def __init__(
        self,
        pools: Optional[PinnedWorkerPools] = None,
        shard_map=None,
        min_pairs_per_process: int = 4096,
        min_dstd_per_process: int = 512,
    ) -> None:
        self.pools = pools
        self.shard_map = shard_map
        self.min_pairs_per_process = min_pairs_per_process
        self.min_dstd_per_process = min_dstd_per_process
        # Worker->shard routing for the problem currently being solved;
        # held through a weakref so a finished epoch's sub-instance is not
        # kept alive between solves (the cache only ever hits within one).
        self._shard_cache: Tuple[Optional[weakref.ref], Dict[int, int]] = (
            None,
            {},
        )
        #: Lifetime counters: rounds scored, batches evaluated, batches
        #: that went through the process pools.
        self.stats: Dict[str, int] = {
            "rounds": 0,
            "batches": 0,
            "batches_remote": 0,
            "dstd_rounds": 0,
            "dstd_batches": 0,
            "dstd_batches_remote": 0,
        }

    def batch_keys(
        self, problem: RdbscProblem, worker_ids: np.ndarray
    ) -> Optional[np.ndarray]:
        """Per-candidate batch key: the owning shard of each row's worker.

        ``None`` without a multi-shard map (batches are then contiguous
        chunks).  The resident greedy table asks once per solve for its
        whole worker column and slices the answer per round; the routing
        itself is cached per problem.
        """
        if self.shard_map is None or self.shard_map.num_shards <= 1:
            return None
        reference, cache = self._shard_cache
        if reference is None or reference() is not problem:
            cache = {
                worker.worker_id: self.shard_map.shard_of_point(worker.location)
                for worker in problem.workers
            }
            self._shard_cache = (weakref.ref(problem), cache)
        ids = worker_ids.tolist()
        return np.fromiter((cache[w] for w in ids), dtype=np.intp, count=len(ids))

    def _batches(self, n: int, keys: Optional[np.ndarray]) -> List[np.ndarray]:
        """Candidate index batches, in deterministic batch order."""
        if keys is not None:
            return [np.flatnonzero(keys == key) for key in np.unique(keys).tolist()]
        chunks = len(self.pools) if self.pools is not None else 1
        return [
            np.arange(lo, hi, dtype=np.intp)
            for lo, hi in chunk_ranges(n, max(1, chunks))
        ]

    def _fan_out(
        self,
        stat: str,
        threshold: int,
        chunk_fn,
        columns: Sequence[np.ndarray],
        scalars: Tuple[float, ...],
        keys: Optional[np.ndarray],
    ) -> np.ndarray:
        """``chunk_fn(*column slices, *scalars)`` per batch, merged in order.

        Only a batch that individually carries at least ``threshold``
        candidates — enough to amortise its IPC round-trip — goes to the
        pool (a skewed shard partition ships its one big batch and scores
        the small ones inline); with no second remote-worthy batch there
        is nothing to overlap, so everything stays inline.
        """
        n = columns[0].shape[0]
        self.stats[stat + "rounds"] += 1
        batches = self._batches(n, keys)
        self.stats[stat + "batches"] += len(batches)
        remote = (
            [indices for indices in batches if indices.shape[0] >= threshold]
            if self.pools is not None and len(batches) > 1
            else []
        )
        if len(remote) < 2:
            remote = []
        remote_ids = {id(indices) for indices in remote}
        futures = [
            (
                indices,
                self.pools.submit(
                    slot, chunk_fn, *(column[indices] for column in columns), *scalars
                ),
            )
            for slot, indices in enumerate(remote)
        ]
        self.stats[stat + "batches_remote"] += len(futures)
        out = np.empty(n)
        for indices in batches:
            if id(indices) not in remote_ids:
                out[indices] = chunk_fn(
                    *(column[indices] for column in columns), *scalars
                )
        for indices, future in futures:
            out[indices] = future.result()
        return out

    def round_delta_min_r(
        self,
        task_r: np.ndarray,
        task_has: np.ndarray,
        weights: np.ndarray,
        best: float,
        second: float,
        keys: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``Δmin_R`` for every candidate, batch-evaluated then merged."""
        return self._fan_out(
            "",
            self.min_pairs_per_process,
            _round_chunk_remote,
            (task_r, task_has, weights),
            (best, second),
            keys,
        )

    def round_delta_estd(
        self, slab, old_estd: np.ndarray, keys: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Exact ``ΔE[STD]`` for a candidate block, batched then merged.

        The greedy solver packs the block's padded profile slab
        (:func:`repro.fastpath.diversity.pack_delta_slab`) and hands it
        here with the block's batch keys; batches follow the same
        shard/chunk partition and two-remote-batches gate as
        :meth:`round_delta_min_r`, with :attr:`min_dstd_per_process` as
        the threshold.  The kernel is row-independent, so every partition
        — inline, remote, or any mix — returns bits identical to one
        whole-slab evaluation.
        """
        columns = (
            slab.betas,
            slab.starts,
            slab.ends,
            slab.counts,
            slab.angles,
            slab.arrivals,
            slab.confidences,
            old_estd,
        )
        return self._fan_out(
            "dstd_", self.min_dstd_per_process, _dstd_chunk_remote, columns, (), keys
        )


# --------------------------------------------------------------------- #
# The engine-facing umbrella
# --------------------------------------------------------------------- #


class ParallelSolveExecutor:
    """Owns the solve fan-out: pools, sampling face, greedy face.

    The value an engine's ``solve_executor=`` knob accepts (engines also
    accept a plain process count and construct one of these).  Pools are
    created lazily on first bind — a ``processes=0`` executor never forks
    and runs the same chunked/batched scoring inline, which is the
    deterministic reference configuration the differential tests compare
    every pool size against.

    Args:
        processes: pinned worker processes to fan across (0 = inline).
        min_samples_per_process: see :class:`ParallelSampleExecutor`.
        min_pairs_per_process: see :class:`ShardBatchedScorer`.
        min_dstd_per_process: see :class:`ShardBatchedScorer`.
    """

    def __init__(
        self,
        processes: int = 4,
        min_samples_per_process: int = 8,
        min_pairs_per_process: int = 4096,
        min_dstd_per_process: int = 512,
    ) -> None:
        if processes < 0:
            raise ValueError(f"processes must be non-negative, got {processes}")
        self.processes = processes
        self.min_samples_per_process = min_samples_per_process
        self.min_pairs_per_process = min_pairs_per_process
        self.min_dstd_per_process = min_dstd_per_process
        self._pools: Optional[PinnedWorkerPools] = None
        self._sample_executor: Optional[ParallelSampleExecutor] = None
        self._greedy_scorers: Dict[int, ShardBatchedScorer] = {}
        self._closed = False

    # -- pools ----------------------------------------------------------- #

    def pools(self) -> Optional[PinnedWorkerPools]:
        """The shared pinned pools (created on first use; None inline)."""
        if self.processes == 0:
            return None
        if self._closed:
            raise RuntimeError("executor already closed")
        if self._pools is None:
            self._pools = PinnedWorkerPools(self.processes)
        return self._pools

    # -- faces ----------------------------------------------------------- #

    @property
    def samples(self) -> ParallelSampleExecutor:
        """The sampling face (shared pools, lifetime stats)."""
        if self._sample_executor is None:
            self._sample_executor = ParallelSampleExecutor(
                self.pools(), self.min_samples_per_process
            )
        return self._sample_executor

    def greedy_scorer(self, shard_map=None) -> ShardBatchedScorer:
        """The greedy face for a partition (one scorer per shard map)."""
        key = id(shard_map)
        scorer = self._greedy_scorers.get(key)
        if scorer is None:
            scorer = ShardBatchedScorer(
                self.pools(),
                shard_map,
                self.min_pairs_per_process,
                self.min_dstd_per_process,
            )
            self._greedy_scorers[key] = scorer
        return scorer

    # -- binding --------------------------------------------------------- #

    def bind(self, solver, shard_map=None) -> bool:
        """Attach this executor to a solver's parallel hooks.

        Warm-start wrappers are unwrapped to their base (the warm paths
        re-enter the base solver's scoring loops, so the attachment covers
        dirty-worker re-scoring batches and warm fresh draws too).
        Returns whether the solver had a parallel face to bind; solvers
        without one (RANDOM, D&C, exhaustive, ...) are left untouched and
        simply solve serially.
        """
        base = solver.base if isinstance(solver, WarmStartSolver) else solver
        if isinstance(base, SamplingSolver):
            base.executor = self.samples
            return True
        if isinstance(base, GreedySolver):
            base.scorer = self.greedy_scorer(shard_map)
            return True
        return False

    def unbind(self, solver) -> None:
        """Detach this executor's faces from a solver (if it holds them).

        The inverse of :meth:`bind`, used by an engine closing an executor
        it owns — a solver reused elsewhere afterwards must not point at
        shut-down pools.
        """
        if solver is None:
            return
        base = solver.base if isinstance(solver, WarmStartSolver) else solver
        if (
            isinstance(base, SamplingSolver)
            and base.executor is self._sample_executor
        ):
            base.executor = None
        if isinstance(base, GreedySolver) and any(
            base.scorer is scorer for scorer in self._greedy_scorers.values()
        ):
            base.scorer = None

    # -- lifecycle ------------------------------------------------------- #

    def close(self) -> None:
        """Shut the shared pools down (idempotent)."""
        self._closed = True
        if self._pools is not None:
            self._pools.close()
            self._pools = None

    def __enter__(self) -> "ParallelSolveExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: close the pools."""
        self.close()
