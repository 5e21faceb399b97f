"""The event-driven incremental assignment engine (Section 7.2, scaled).

The paper's long-lived operating mode — churn absorbed continuously, a
solver re-run every ``t_interval`` — demands amortised-O(delta) epochs,
not O(m * n) rebuilds.  This package is that machinery:

``events``
    The typed churn/epoch event vocabulary.
``scheduler``
    Stable time-ordered event queue plus the periodic epoch clock.
``engine``
    :class:`AssignmentEngine` — keeps the grid index's persistent pair
    cache (its one retrieval path) and the slot-stable worker slab
    current per event, solves per
    epoch (cold, or by repairing the previous plan via
    :mod:`repro.solvers.incremental` when ``solve_mode="warm"`` and the
    inter-epoch churn is small), and pins committed contributions as
    virtual workers.
``metrics``
    Per-epoch records and lifetime counters (cache hit rate, epoch cost,
    warm/full solve split).
``durable``
    Crash safety: :class:`DurableLog` (a SQLite write-ahead event log +
    periodic full-state snapshots, attached via the engines'
    ``durable_path=`` knob) and :func:`restore_engine` (snapshot + tail
    replay, reproducing the live per-epoch plans bit-exactly).
``sharding``
    :class:`ShardMap` — the shard topology: the grid partitioned into
    rectangular cell blocks (worker to its cell's owner, task replicated
    within a halo wide enough for the validity radius), reshaped by
    split/merge/migrate ops.
``elastic``
    :class:`ElasticShardedAssignmentEngine` — the sharded engine: the
    same engine with its index fanned out over *resident* shard states
    (persistent across epochs, in-process or pinned to worker processes)
    fed versioned :class:`ShardDiff` packets with a fingerprint-keyed
    full-resync fallback; merged plans are bit-identical to the
    unsharded engine.  ``rebalance=None`` keeps the static tiling; a
    :class:`RebalancePolicy` reshapes it at epoch boundaries —
    WAL-logged, so recovery replays the topology trajectory bit-exactly;
    see ``docs/SHARDING.md``.
``parallel``
    The solve-parallelism subsystem behind the engines'
    ``solve_executor`` knob: :class:`ParallelSolveExecutor` owns pinned
    worker pools and fans SAMPLING's substream sample evaluations across
    them — plans bit-identical to the serial solve at every pool size.
    GREEDY (globally coupled rounds) always solves inline.
``profile``
    :class:`PhaseProfiler` — the per-epoch phase timer (routing,
    coalesce, index, prune, ``Δmin_R``, ``ΔE[STD]``, merge, WAL append)
    both engines thread into every
    :class:`~repro.engine.metrics.EpochRecord`; see
    ``docs/PROFILING.md``.

:class:`AssignmentEngine` is the library's online front door: register
and withdraw tasks and workers, then call ``epoch(now)`` to re-plan.
:class:`repro.platform_sim.simulator.PlatformSimulator` (the Figure 18
driver) and :func:`repro.datagen.streams.replay_stream` both run on it.
"""

from repro.engine.engine import (
    AssignmentEngine,
    EngineSnapshot,
    EpochResult,
    virtual_worker,
)
from repro.engine.durable import DurableLog, restore_engine
from repro.engine.elastic import (
    ElasticShardedAssignmentEngine,
    ProcessResidentExecutor,
    RebalancePolicy,
    ResidentShard,
    SequentialResidentExecutor,
    ShardDiff,
)
from repro.engine.events import (
    EpochTick,
    Event,
    ExpireTasks,
    TaskArrive,
    TaskWithdraw,
    WorkerArrive,
    WorkerHold,
    WorkerLeave,
    WorkerRelease,
    WorkerUpdate,
)
from repro.engine.metrics import EngineMetrics, EpochRecord
from repro.engine.profile import PhaseProfiler
from repro.engine.parallel import (
    ParallelSolveExecutor,
    PinnedWorkerPools,
    SampleChunkScorer,
)
from repro.engine.scheduler import EventQueue, epoch_ticks
from repro.engine.sharding import ShardMap

__all__ = [
    "AssignmentEngine",
    "DurableLog",
    "ElasticShardedAssignmentEngine",
    "EngineMetrics",
    "EngineSnapshot",
    "EpochRecord",
    "EpochResult",
    "EpochTick",
    "Event",
    "EventQueue",
    "ExpireTasks",
    "ParallelSolveExecutor",
    "PhaseProfiler",
    "PinnedWorkerPools",
    "ProcessResidentExecutor",
    "RebalancePolicy",
    "ResidentShard",
    "SampleChunkScorer",
    "SequentialResidentExecutor",
    "ShardDiff",
    "ShardMap",
    "TaskArrive",
    "TaskWithdraw",
    "WorkerArrive",
    "WorkerHold",
    "WorkerLeave",
    "WorkerRelease",
    "WorkerUpdate",
    "epoch_ticks",
    "restore_engine",
    "virtual_worker",
]
