"""The parallel solve subsystem: SAMPLING's substream sample fan-out.

PR 4 scaled the *index* side out — per-shard sub-grids, fanned-out epoch
maintenance — but the per-epoch **solve** stayed one serial global pass.
This module parallelises the solve where it decomposes honestly: under
the substream determinism contract
(:data:`repro.algorithms.sampling.SUBSTREAM_V1`) sample ``i`` depends only
on ``(base seed, i)``, so independent sample evaluations partition freely.
:class:`ParallelSolveExecutor` ships the epoch sub-instance once per
process — packed into flat arrays via :mod:`repro.fastpath.arrays`, not
pickled object graphs — fans contiguous sample-index chunks across pinned
worker processes, and merges the returned score blocks in sample-index
order.  Each chunk is scored by SAMPLING's own scorer,
:class:`repro.algorithms.sampling.SampleChunkScorer` — the one scoring
path the solver also runs inline — so plans are bit-identical at every
pool size, and to an executor-less solve.

GREEDY is deliberately not fanned out: every round scores against the
global minimum reliability and commits one pair, so a round split across
processes pays IPC per round for kernel work that is cheaper inline (see
``docs/PARALLEL.md``).  Binding an executor to a GREEDY solver is a
no-op; it solves inline.

The pools (:class:`PinnedWorkerPools`, generalised from the per-shard
pools of :mod:`repro.engine.sharding`) are owned by the executor — the
object the engines accept through their ``solve_executor=`` knob and bind
to SAMPLING solvers (including the warm-start wrapper, whose fresh draws
run through the same attached executor).

Throughput is recorded by ``benchmarks/bench_parallel_solve.py`` into
``BENCH_parallel_solve.json``; the determinism contract is pinned by
``tests/test_parallel.py`` and the golden fixture.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.sampling import (
    SampleChunkScorer,
    SamplingSolver,
    chunk_ranges,
)
from repro.core.problem import RdbscProblem
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


def _score_chunk_remote(
    wire: ProblemWire, base_seed: int, lo: int, hi: int
) -> np.ndarray:
    """Worker-process entry: rebuild the instance, score one index range."""
    return SampleChunkScorer(unpack_problem(wire)).score_range(base_seed, lo, hi)


# --------------------------------------------------------------------- #
# The engine-facing executor
# --------------------------------------------------------------------- #


class ParallelSolveExecutor:
    """Fans independent substream sample evaluations across processes.

    The value an engine's ``solve_executor=`` knob accepts (engines also
    accept a plain process count and construct one of these).  Each solve
    ships the packed sub-instance (:func:`pack_problem`) to every
    participating process once, fans the sample indices out as contiguous
    chunks, and concatenates the returned score blocks in chunk order —
    sample ``i``'s score lands at position ``i`` regardless of the pool
    size, and equals the serial substream evaluation bitwise (each sample
    is keyed by ``(base seed, i)`` alone).  Pools are created lazily on
    the first SAMPLING bind; with ``processes=0`` nothing ever forks and
    every solve scores inline, exactly as an executor-less solver does.

    A pinned child that dies mid-solve does not end the epoch: the broken
    pools are shut down, that solve is re-scored inline (bit-identical —
    inline and remote chunks run the same :class:`SampleChunkScorer`), and
    the next fan-out forks fresh pools.

    Args:
        processes: pinned worker processes to fan across (0 = inline).
        min_samples_per_process: fan out only when every participating
            process would receive at least this many samples; smaller
            batches score inline (shipping a problem per process costs
            more than it saves).
    """

    def __init__(self, processes: int = 4, min_samples_per_process: int = 8) -> None:
        if processes < 0:
            raise ValueError(f"processes must be non-negative, got {processes}")
        self.processes = processes
        self.min_samples_per_process = min_samples_per_process
        self._pools: Optional[PinnedWorkerPools] = None
        self._closed = False
        #: Lifetime counters: solves routed, chunks fanned out, samples
        #: scored inline vs remotely, solves re-scored after a dead pool.
        self.stats: Dict[str, int] = {
            "solves": 0,
            "chunks_fanned": 0,
            "samples_remote": 0,
            "samples_inline": 0,
            "pool_failures": 0,
        }

    def pools(self) -> Optional[PinnedWorkerPools]:
        """The pinned pools (created on first use; None inline)."""
        if self.processes == 0:
            return None
        if self._closed:
            raise RuntimeError("executor already closed")
        if self._pools is None:
            self._pools = PinnedWorkerPools(self.processes)
        return self._pools

    # -- scoring --------------------------------------------------------- #

    def _processes_for(self, count: int) -> int:
        usable = min(self.processes, count // max(1, self.min_samples_per_process))
        return usable if usable >= 2 else 0

    def scored_sample_chunks(
        self, problem: RdbscProblem, base_seed: int, count: int
    ) -> List[Tuple[float, float]]:
        """Scores for samples ``0..count-1``, in sample-index order."""
        self.stats["solves"] += 1
        processes = self._processes_for(count)
        if processes:
            try:
                return self._fan_out(problem, base_seed, count, processes)
            except BrokenProcessPool:
                # A pinned child died: drop the broken pools (the next
                # fan-out forks fresh ones) and score this solve inline.
                self.stats["pool_failures"] += 1
                self._pools.close()
                self._pools = None
        self.stats["samples_inline"] += count
        block = SampleChunkScorer(problem).score_range(base_seed, 0, count)
        return [tuple(row) for row in block.tolist()]

    def _fan_out(
        self, problem: RdbscProblem, base_seed: int, count: int, processes: int
    ) -> List[Tuple[float, float]]:
        pools = self.pools()
        wire = pack_problem(problem)
        futures = [
            pools.submit(slot, _score_chunk_remote, wire, base_seed, lo, hi)
            for slot, (lo, hi) in enumerate(chunk_ranges(count, processes))
        ]
        scores = [
            tuple(row) for future in futures for row in future.result().tolist()
        ]
        self.stats["chunks_fanned"] += len(futures)
        self.stats["samples_remote"] += count
        return scores

    # -- binding --------------------------------------------------------- #

    def bind(self, solver) -> None:
        """Attach this executor to a SAMPLING solver's sample scoring.

        A warm-start wrapper is unwrapped to its base (its fresh draws
        re-enter the base solver's scoring, so the attachment covers them
        too).  Every other solver (GREEDY, RANDOM, D&C, exhaustive, ...)
        is left untouched, forks nothing, and simply solves inline.
        """
        base = solver.base if isinstance(solver, WarmStartSolver) else solver
        if isinstance(base, SamplingSolver):
            self.pools()
            base.executor = self

    def unbind(self, solver) -> None:
        """Detach this executor from a solver (if it holds it).

        The inverse of :meth:`bind`, used by an engine closing an executor
        it owns — a solver reused elsewhere afterwards must not point at
        shut-down pools.
        """
        if solver is None:
            return
        base = solver.base if isinstance(solver, WarmStartSolver) else solver
        if isinstance(base, SamplingSolver) and base.executor is self:
            base.executor = None

    # -- lifecycle ------------------------------------------------------- #

    def close(self) -> None:
        """Shut the pools down (idempotent)."""
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
