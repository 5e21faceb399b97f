"""The sharded engine: resident sub-grids, diff shipping, rebalancing.

The single :class:`~repro.engine.engine.AssignmentEngine` keeps one grid
index current per event; past one grid's comfort zone every update
sweeps every materialised cell and every epoch probes every dirty cell
pair in one process.  :class:`ElasticShardedAssignmentEngine` partitions
that index over a :class:`~repro.engine.sharding.ShardMap` (worker to
its cell's owner, task halo-replicated — see that module for the routing
and halo invariants) and fans the per-epoch index work out:

**Residency + diff shipping.**  Each shard's sub-grid lives in a
:class:`ResidentShard` that persists across epochs (in-process under the
sequential executor; pinned to one worker process for its lifetime via
:class:`repro.engine.parallel.PinnedWorkerPools` under the process
executor) and receives only a versioned :class:`ShardDiff` per epoch —
the shard's coalesced churn runs packed into flat ``int64``/``float64``
columns (:func:`repro.fastpath.arrays.pack_diff`).  Every diff carries
the engine's expected post-apply state **fingerprint** (an XOR of
per-entity CRC32 digests, maintained O(delta) on both sides); a version
or fingerprint mismatch makes the resident report *stale* instead of
pairs, and the engine answers with a full resync diff that rebuilds it —
a restarted or drifted resident self-heals within one fan-out.

**Elasticity.**  With ``rebalance=None`` the topology is the static
tiling.  Given a :class:`RebalancePolicy` the engine applies
:class:`ShardMap <repro.engine.sharding.ShardMap>` split/merge/migrate
ops at epoch boundaries, driven by a load metric (owned residents per
shard — the live stand-in for the Eq. 22 cost model in
:mod:`repro.index.cost_model`, whose per-shard update cost scales with
exactly this count).  A reshape re-routes the affected workers and halo
replicas through the ordinary diff mechanism and is WAL-logged as a
``rebalance`` event *before* its epoch marker, so kill-and-recover
(:func:`repro.engine.durable.restore_engine`) replays the same topology
trajectory bit-exactly.  Routing, diff building and reshapes surface as
the ``route``, ``diff_ship`` and ``rebalance`` phases in
:class:`~repro.engine.profile.PhaseProfiler` epoch records.

**Why the solve stays global.**  GREEDY scores every candidate against
the *global* minimum task reliability and SAMPLING consumes one global
RNG stream, so independent per-shard solves cannot reproduce the
single-engine plan.  The fan-out parallelises what does partition
cleanly — per-shard index maintenance and dirty-pair probing — and the
merged pair set feeds one global warm/full solve.

**The invariant.**  Any shard count, any rebalance schedule, any
executor: the merged pair set equals the single grid's (each worker is
owned exactly once and its tasks are halo-replicated to its owner, so
the concatenate-and-sort merge sees every pair exactly once), and plans
plus :meth:`~repro.engine.metrics.EngineMetrics.counters` are
bit-identical to the unsharded engine — ``tests/test_sharding.py`` and
``tests/test_elastic.py`` pin this across drift scenarios, shard counts,
engine backends and solve modes, and ``benchmarks/bench_elastic.py`` records
the diff-vs-full-ship payoff into ``BENCH_elastic.json``.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.base import RngLike, Solver
from repro.core.problem import ValidPair
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.engine import events as ev
from repro.engine.engine import AssignmentEngine
from repro.engine.sharding import ShardMap
from repro.fastpath.arrays import (
    PackedRun,
    diff_nbytes,
    pack_diff,
    pack_pairs,
    unpack_diff,
    unpack_pairs,
)
from repro.index.grid import RdbscGrid, cell_coords

#: Slack added to the halo guard so float accumulation in the population
#: bound cannot trip it on a halo chosen exactly at ``halo_bound``.
_HALO_EPS = 1e-9

#: Fixed per-diff wire overhead (shard id, versions, flag, fingerprint)
#: counted by :attr:`ShardDiff.nbytes` on top of the column payloads.
DIFF_HEADER_BYTES = 40

#: Per-entity wire sizes of the packed full-resync rows (id column plus
#: the float field columns) — what one epoch of full re-ship costs per
#: resident entity, used for the hypothetical full-ship byte accounting.
WORKER_WIRE_BYTES = 8 + 7 * 8
TASK_WIRE_BYTES = 8 + 5 * 8

#: A resident's fan-out report: ``("ok", version, pairs, stat deltas)``
#: after a clean apply, or ``("stale", version, [], {})`` when the diff's
#: base version or post-apply fingerprint did not match and a full
#: resync is needed.
ResidentReport = Tuple[str, int, List[ValidPair], Dict[str, int]]


def worker_digest(worker: MovingWorker) -> int:
    """CRC32 digest of a worker's wire fields (fingerprint contribution).

    Computed from the same seven ``float64`` constructor fields the diff
    wire format ships (:data:`repro.fastpath.arrays.WORKER_WIRE_FIELDS`),
    so the engine digesting its live object and a resident digesting the
    unpacked copy always agree.  ``zlib.crc32`` is deterministic across
    processes and runs, unlike Python's salted ``hash``.
    """
    return zlib.crc32(
        struct.pack(
            "<cq7d",
            b"w",
            worker.worker_id,
            worker.location.x,
            worker.location.y,
            worker.velocity,
            worker.cone.lo,
            worker.cone.width,
            worker.confidence,
            worker.depart_time,
        )
    )


def task_digest(task: SpatialTask) -> int:
    """CRC32 digest of a task's wire fields (fingerprint contribution)."""
    return zlib.crc32(
        struct.pack(
            "<cq5d",
            b"t",
            task.task_id,
            task.location.x,
            task.location.y,
            task.start,
            task.end,
            task.beta,
        )
    )


@dataclass(frozen=True)
class ShardDiff:
    """One epoch's versioned state delta for one resident shard.

    Attributes:
        shard_id: the resident this diff is addressed to.
        base_version: resident state version this diff applies on top of
            (``-1`` for a full resync, which applies on any version).
        version: the resident's version after a successful apply.
        full: when true, ``runs`` carry the shard's *entire* routed state
            (sorted arrive runs) and the resident rebuilds from scratch.
        runs: the packed coalesced churn runs, in application order
            (:func:`repro.fastpath.arrays.pack_diff`).
        fingerprint: the engine's expected resident fingerprint *after*
            applying this diff — the self-healing key: a resident whose
            accumulated fingerprint disagrees reports stale and gets a
            full resync.
    """

    shard_id: int
    base_version: int
    version: int
    full: bool
    runs: Tuple[PackedRun, ...]
    fingerprint: int

    @property
    def nbytes(self) -> int:
        """Wire payload bytes: packed columns plus the fixed header."""
        return diff_nbytes(self.runs) + DIFF_HEADER_BYTES


class ResidentShard:
    """One shard's persistent sub-grid, fed by versioned diffs.

    Holds an ordinary :class:`~repro.index.grid.RdbscGrid` over the
    shard's routed residents (owned workers, halo-replicated tasks)
    across epochs and advances it by applying :class:`ShardDiff` runs —
    the same grouped grid calls, in the same order, as an in-process
    apply of the original event batch (one invalidation + widening sweep
    per touched cell), which is the bit-identity argument for shipping
    diffs at all.  Alongside the
    grid it accumulates the per-entity digest fingerprint; a diff whose
    ``base_version`` or expected ``fingerprint`` does not match makes
    :meth:`apply` report stale, and the engine's full-resync diff then
    rebuilds grid, digests and version from scratch.
    """

    def __init__(
        self,
        shard_id: int,
        eta: float,
        validity: Optional[ValidityRule] = None,
    ) -> None:
        self.shard_id = shard_id
        self._eta = eta
        self._validity = validity
        self.version = 0
        self.fingerprint = 0
        self._worker_digests: Dict[int, int] = {}
        self._task_digests: Dict[int, int] = {}
        self.grid = RdbscGrid(eta, validity)
        self._reported = dict(self.grid.stats)

    def _reset(self) -> None:
        self.fingerprint = 0
        self._worker_digests = {}
        self._task_digests = {}
        self.grid = RdbscGrid(self._eta, self._validity)
        self._reported = dict(self.grid.stats)

    def _apply_runs(self, runs: Sequence[Tuple[str, object]]) -> None:
        for kind, payload in runs:
            if kind == "worker_update":
                for worker in payload:  # type: ignore[union-attr]
                    digest = worker_digest(worker)
                    self.fingerprint ^= self._worker_digests[worker.worker_id]
                    self.fingerprint ^= digest
                    self._worker_digests[worker.worker_id] = digest
                self.grid.update_workers(payload)
            elif kind == "worker_arrive":
                for worker in payload:  # type: ignore[union-attr]
                    digest = worker_digest(worker)
                    self.fingerprint ^= digest
                    self._worker_digests[worker.worker_id] = digest
                self.grid.insert_workers(payload)
            elif kind == "worker_leave":
                for worker_id in payload:  # type: ignore[union-attr]
                    self.fingerprint ^= self._worker_digests.pop(worker_id)
                    self.grid.remove_worker(worker_id)
            elif kind == "task_arrive":
                for task in payload:  # type: ignore[union-attr]
                    digest = task_digest(task)
                    self.fingerprint ^= digest
                    self._task_digests[task.task_id] = digest
                self.grid.insert_tasks(payload)
            elif kind == "task_withdraw":
                for task_id in payload:  # type: ignore[union-attr]
                    self.fingerprint ^= self._task_digests.pop(task_id)
                    self.grid.remove_task(task_id)
            else:
                raise TypeError(
                    f"resident {self.shard_id}: unroutable run kind {kind!r}"
                )

    def apply(self, diff: ShardDiff) -> ResidentReport:
        """Apply one diff and report pairs, or report stale for a resync.

        A full diff rebuilds the resident unconditionally and *must*
        land on the engine's expected fingerprint — the full state
        defines it, so a mismatch is a protocol bug, not drift, and
        raises.  An incremental diff first checks ``base_version``
        (catches restarted or skipped residents), applies, then checks
        the accumulated fingerprint (catches silent divergence); either
        failure reports ``("stale", version, [], {})`` and leaves the
        engine to ship a full resync.
        """
        if diff.full:
            self._reset()
            self._apply_runs(unpack_diff(diff.runs))
            if self.fingerprint != diff.fingerprint:
                raise RuntimeError(
                    f"resident {self.shard_id}: full resync landed on "
                    f"fingerprint {self.fingerprint:#x}, engine expected "
                    f"{diff.fingerprint:#x} — diff protocol bug"
                )
            self.version = diff.version
        else:
            if diff.base_version != self.version:
                return ("stale", self.version, [], {})
            self._apply_runs(unpack_diff(diff.runs))
            self.version = diff.version
            if self.fingerprint != diff.fingerprint:
                return ("stale", self.version, [], {})
        pairs = self.grid.valid_pairs()
        delta = {
            key: value - self._reported[key]
            for key, value in self.grid.stats.items()
        }
        self._reported = dict(self.grid.stats)
        return ("ok", self.version, pairs, delta)


class SequentialResidentExecutor:
    """In-process residents: zero serialisation, deterministic order.

    The reference executor — diffs are still built, versioned and
    fingerprint-checked exactly as for the process executor, so the
    differential and property suites exercise the whole protocol without
    process-pool nondeterminism or start-up cost.
    """

    def __init__(self, residents: Sequence[ResidentShard]) -> None:
        self.residents = list(residents)

    def apply(self, diffs: Sequence[ShardDiff]) -> List[ResidentReport]:
        """Apply one diff per resident, positionally, in shard order."""
        return self.apply_at(list(enumerate(diffs)))

    def apply_at(
        self, indexed: Sequence[Tuple[int, ShardDiff]]
    ) -> List[ResidentReport]:
        """Apply diffs to specific residents (resyncs hit the stale slots)."""
        return [self.residents[slot].apply(diff) for slot, diff in indexed]

    def close(self) -> None:
        """Nothing to release."""


_RESIDENT: Optional[ResidentShard] = None


def _resident_init(
    shard_id: int, eta: float, validity: Optional[ValidityRule]
) -> None:
    """Worker-process initialiser: build this slot's empty resident."""
    global _RESIDENT
    _RESIDENT = ResidentShard(shard_id, eta, validity)


def _resident_apply(diff: ShardDiff):
    """Apply one diff in the worker process; pairs travel packed."""
    assert _RESIDENT is not None
    kind, version, pairs, stats = _RESIDENT.apply(diff)
    return kind, version, pack_pairs(pairs), stats


class ProcessResidentExecutor:
    """Pinned worker processes, one resident per slot, fed diffs only.

    Each resident is *born empty in its process* (the initialiser builds
    it there — nothing is shipped at start-up) and then lives in that
    process for the engine's lifetime thanks to the single-worker-pool
    affinity of :class:`repro.engine.parallel.PinnedWorkerPools`.  Every
    epoch ships one packed :class:`ShardDiff` out per shard and one
    packed pair report back; a resident lost to a worker restart simply
    reports stale (its rebuilt twin is at version 0) and is healed by the
    engine's full resync on the same fan-out.
    """

    def __init__(
        self,
        num_shards: int,
        eta: float,
        validity: Optional[ValidityRule],
    ) -> None:
        from repro.engine.parallel import PinnedWorkerPools

        self.pools = PinnedWorkerPools(
            num_shards,
            initializer=_resident_init,
            initargs_per_slot=[
                (shard_id, eta, validity)
                for shard_id in range(num_shards)
            ],
        )

    def apply(self, diffs: Sequence[ShardDiff]) -> List[ResidentReport]:
        """Fan one diff per resident out; block until every slot reports."""
        return self.apply_at(list(enumerate(diffs)))

    def apply_at(
        self, indexed: Sequence[Tuple[int, ShardDiff]]
    ) -> List[ResidentReport]:
        """Ship diffs to specific residents; all run concurrently and are
        gathered in the order given, so the merge stays deterministic."""
        futures = [
            self.pools.submit(slot, _resident_apply, diff)
            for slot, diff in indexed
        ]
        packed = [future.result() for future in futures]
        return [
            (kind, version, unpack_pairs(pairs), stats)
            for kind, version, pairs, stats in packed
        ]

    def close(self) -> None:
        """Shut down every resident's worker process."""
        self.pools.close()


class RebalancePolicy:
    """Deterministic epoch-boundary reshape decisions from shard loads.

    The load metric is owned workers per shard — the count the Eq. 22
    cost model (:func:`repro.index.cost_model.update_cost`) says drives a
    shard's per-epoch update cost.  Checked every ``every`` epochs, the
    policy emits at most one op:

    1. **merge** — an active shard whose load has drained to zero donates
       its cells to the least-loaded other active shard, going dormant
       (freeing resident capacity for a later split);
    2. **split** — when the busiest shard exceeds ``imbalance`` times the
       least-loaded active shard and a dormant slot is free, it gives
       the dormant shard a cell subset carrying about half its load;
    3. **migrate** — with no dormant slot, up to ``max_cells`` cells move
       from the busiest shard toward the least-loaded one, aiming at the
       midpoint of their loads.

    Decisions are pure functions of the engine's current topology, load
    counts and epoch index, so a recovered engine (same WAL-replayed
    state, same policy configuration) makes the same future decisions —
    the determinism the kill-and-recover suite pins.

    Args:
        every: epochs between checks (the op itself always lands at an
            epoch boundary).
        imbalance: busiest-to-idlest load ratio that triggers a reshape.
        min_workers: global population floor below which the policy stays
            quiet (rebalancing a handful of workers is all overhead).
        max_cells: migrate's per-op cell cap (splits move up to half the
            donor's load regardless, since they fill an idle resident).
    """

    def __init__(
        self,
        every: int = 4,
        imbalance: float = 2.0,
        min_workers: int = 8,
        max_cells: int = 2,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be positive, got {every}")
        if imbalance < 1.0:
            raise ValueError(f"imbalance must be >= 1, got {imbalance}")
        if max_cells < 1:
            raise ValueError(f"max_cells must be positive, got {max_cells}")
        self.every = int(every)
        self.imbalance = float(imbalance)
        self.min_workers = int(min_workers)
        self.max_cells = int(max_cells)

    def config(self) -> Dict[str, object]:
        """The constructor arguments, for the durable log's meta row."""
        return {
            "every": self.every,
            "imbalance": self.imbalance,
            "min_workers": self.min_workers,
            "max_cells": self.max_cells,
        }

    @staticmethod
    def _cell_loads(
        engine: "ElasticShardedAssignmentEngine", shard_id: int
    ) -> Dict[Tuple[int, int], int]:
        shard_map = engine.shard_map
        loads: Dict[Tuple[int, int], int] = {}
        for worker_id, owner in engine._worker_shard.items():
            if owner != shard_id:
                continue
            cell = cell_coords(
                engine._workers[worker_id].location,
                shard_map.eta,
                shard_map.n_cols,
            )
            loads[cell] = loads.get(cell, 0) + 1
        return loads

    @staticmethod
    def _choose_cells(
        donor_cells: Sequence[Tuple[int, int]],
        cell_loads: Dict[Tuple[int, int], int],
        target_load: int,
        max_cells: Optional[int],
    ) -> List[Tuple[int, int]]:
        """Greedy heaviest-first cell subset carrying about target_load.

        Only loaded cells are candidates (moving empty cells reshapes
        nothing), a cell heavier than the remaining budget is skipped
        (cell granularity is the floor of what a reshape can fix), and
        at least one donor cell always stays behind by construction
        (``target_load`` is below the donor's total).
        """
        ranked = sorted(
            (cell for cell in donor_cells if cell_loads.get(cell, 0) > 0),
            key=lambda cell: (-cell_loads[cell], cell),
        )
        chosen: List[Tuple[int, int]] = []
        remaining = target_load
        for cell in ranked:
            if max_cells is not None and len(chosen) >= max_cells:
                break
            load = cell_loads[cell]
            if load <= remaining:
                chosen.append(cell)
                remaining -= load
        return sorted(chosen)

    def plan(
        self, engine: "ElasticShardedAssignmentEngine"
    ) -> List[Dict[str, object]]:
        """At most one reshape op for the coming epoch (often none)."""
        shard_map = engine.shard_map
        num_shards = shard_map.num_shards
        if num_shards < 2 or engine.metrics.epochs % self.every != 0:
            return []
        loads = list(engine._shard_worker_count)
        if sum(loads) < self.min_workers:
            return []
        active = [
            shard_id
            for shard_id in range(num_shards)
            if not shard_map.is_dormant(shard_id)
        ]
        drained = [shard_id for shard_id in active if loads[shard_id] == 0]
        if drained and len(active) > 1:
            donor = drained[0]
            target = min(
                (shard_id for shard_id in active if shard_id != donor),
                key=lambda shard_id: (loads[shard_id], shard_id),
            )
            return [
                {
                    "kind": "merge",
                    "from": donor,
                    "to": target,
                    "cells": [
                        [row, col]
                        for row, col in shard_map.owned_cells(donor)
                    ],
                }
            ]
        busiest = max(range(num_shards), key=lambda s: (loads[s], -s))
        idle_load = min(loads[shard_id] for shard_id in active)
        if loads[busiest] <= self.imbalance * max(1.0, idle_load):
            return []
        donor_cells = shard_map.owned_cells(busiest)
        if len(donor_cells) < 2:
            return []
        cell_loads = self._cell_loads(engine, busiest)
        dormant = [
            shard_id
            for shard_id in range(num_shards)
            if shard_map.is_dormant(shard_id)
        ]
        if dormant:
            cells = self._choose_cells(
                donor_cells, cell_loads, loads[busiest] // 2, max_cells=None
            )
            if not cells or len(cells) >= len(donor_cells):
                return []
            return [
                {
                    "kind": "split",
                    "from": busiest,
                    "to": dormant[0],
                    "cells": [[row, col] for row, col in cells],
                }
            ]
        target = min(
            (shard_id for shard_id in active if shard_id != busiest),
            key=lambda shard_id: (loads[shard_id], shard_id),
        )
        cells = self._choose_cells(
            donor_cells,
            cell_loads,
            (loads[busiest] - loads[target]) // 2,
            max_cells=self.max_cells,
        )
        if not cells or len(cells) >= len(donor_cells):
            return []
        return [
            {
                "kind": "migrate",
                "from": busiest,
                "to": target,
                "cells": [[row, col] for row, col in cells],
            }
        ]


class ElasticShardedAssignmentEngine(AssignmentEngine):
    """The incremental engine with its index fanned out across shards.

    A drop-in :class:`~repro.engine.engine.AssignmentEngine`: the same
    churn methods, the same ``epoch(now, pinned, forbidden)``, the same
    warm/full solve modes — producing bit-identical plans and counters —
    but all spatial-index traffic is routed to per-shard
    :class:`ResidentShard` sub-grids and deferred until retrieval, when
    one fan-out ships each shard's accumulated delta as a versioned
    :class:`ShardDiff` and merges the shards' pair reports
    deterministically.  The object dicts and slot slabs stay in the
    engine (they are O(1) per event); ``self.grid`` stays empty and
    serves as the aggregate stats ledger, so epoch records report cache
    hits/misses summed across shards.  The
    :class:`~repro.engine.sharding.ShardMap` reshapes at epoch
    boundaries under a :class:`RebalancePolicy` (or explicit
    :meth:`apply_rebalance` calls); byte-level shipping and reshape
    accounting accumulates in :attr:`elastic_stats`.

    Args:
        solver / eta / validity / rng / backend / reanchor_on_epoch /
            solve_mode / warm_churn_threshold: as for
            :class:`AssignmentEngine` (``backend`` no longer touches the
            shard grids, which all probe with the scalar rule).
        num_shards: cell-block count (see :class:`ShardMap`).
        halo: task-replication radius; ``None`` replicates everywhere
            (safe default).  With an explicit halo the engine tracks the
            population's reach bound and raises the moment the invariant
            would be violated.
        executor: ``"sequential"`` (in-process residents, default) or
            ``"process"`` (one pinned worker process per resident).
        rebalance: the reshape driver — a :class:`RebalancePolicy`, a
            config dict for one (how the durable log records it), or
            ``None`` for the static tiling (reshaped only by explicit
            :meth:`apply_rebalance` calls).
        diff_shipping: when false, every epoch ships a full resync
            instead of a diff — the "re-ship the whole packed
            sub-instance" baseline ``benchmarks/bench_elastic.py``
            measures against; plans are identical either way.
        solve_executor: parallelise the epoch *solve* as for
            :class:`AssignmentEngine`.
        durable_path / durable_snapshot_every: write-ahead log as for
            :class:`AssignmentEngine`; the meta row additionally records
            the shard layout, rebalance ops are logged as ``rebalance``
            events before their epoch marker and snapshots carry the
            ownership table, so recovery reproduces routing and the
            topology trajectory bit-exactly.
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        eta: float = 0.125,
        validity: Optional[ValidityRule] = None,
        rng: RngLike = None,
        backend: str = "python",
        num_shards: int = 4,
        halo: Optional[float] = None,
        executor: str = "sequential",
        rebalance=None,
        diff_shipping: bool = True,
        reanchor_on_epoch: bool = False,
        solve_mode: str = "full",
        warm_churn_threshold: float = 0.25,
        solve_executor=None,
        durable_path=None,
        durable_snapshot_every: int = 16,
    ) -> None:
        if executor not in ("sequential", "process"):
            raise ValueError(f"unknown executor {executor!r}")
        self.shard_map = ShardMap(num_shards, eta, halo=halo)
        super().__init__(
            solver=solver,
            eta=eta,
            validity=validity,
            rng=rng,
            backend=backend,
            reanchor_on_epoch=reanchor_on_epoch,
            solve_mode=solve_mode,
            warm_churn_threshold=warm_churn_threshold,
            solve_executor=solve_executor,
            durable_snapshot_every=durable_snapshot_every,
        )
        self._executor_kind = executor
        if executor == "sequential":
            self.executor = SequentialResidentExecutor(
                [
                    ResidentShard(shard_id, eta, self.validity)
                    for shard_id in range(num_shards)
                ]
            )
        else:
            self.executor = ProcessResidentExecutor(num_shards, eta, self.validity)
        if isinstance(rebalance, dict):
            rebalance = RebalancePolicy(**rebalance)
        #: The reshape driver (``None`` = static tiling, manual reshapes).
        self.policy: Optional[RebalancePolicy] = rebalance
        self.diff_shipping = bool(diff_shipping)
        #: Completed fan-outs (one per retrieval that found routed churn).
        self.fanouts = 0
        self._pending: Dict[int, List[ev.Event]] = {}
        self._merged: Optional[List[ValidPair]] = None
        self._task_shards: Dict[int, Tuple[int, ...]] = {}
        self._worker_shard: Dict[int, int] = {}
        # Running population aggregates backing the halo guard; they only
        # ever grow (removals cannot shrink a bound already honoured).
        self._max_end = 0.0
        self._min_depart = math.inf
        self._v_max = 0.0
        # Per-shard diff protocol state: the version each resident should
        # be at and the fingerprint its state should accumulate to, plus
        # the entity digests and per-shard resident counts backing them —
        # all maintained O(delta) at the routing hooks.
        self._shard_version = [0] * num_shards
        self._shard_fp = [0] * num_shards
        self._worker_digest: Dict[int, int] = {}
        self._task_digest: Dict[int, int] = {}
        self._shard_worker_count = [0] * num_shards
        self._shard_task_count = [0] * num_shards
        #: Cumulative shipping + reshape accounting: ``diff_bytes`` (what
        #: the fan-outs actually shipped, resyncs included),
        #: ``full_bytes`` (what full re-ship would have cost the same
        #: fan-outs), ``resyncs`` (stale residents healed), and the
        #: reshape op counts.
        self.elastic_stats: Dict[str, int] = {
            "diff_bytes": 0,
            "full_bytes": 0,
            "resyncs": 0,
            "rebalance_ops": 0,
            "splits": 0,
            "merges": 0,
            "migrates": 0,
        }
        # Durability attaches here, after the shard layout exists — the log
        # meta must record it (the base __init__ runs too early for that).
        if durable_path is not None:
            self._start_durable(durable_path)

    def _durable_config(self) -> dict:
        """Base meta plus the shard layout a recovery must reproduce."""
        config = super()._durable_config()
        config.update(
            {
                "num_shards": self.shard_map.num_shards,
                "halo": self.shard_map.halo,
                "shard_executor": self._executor_kind,
                "rebalance": None if self.policy is None else self.policy.config(),
                "diff_shipping": self.diff_shipping,
            }
        )
        return config

    def _topology_snapshot(self) -> Optional[dict]:
        """The shard ownership table, stored in durable snapshots."""
        return self.shard_map.topology()

    def _install_topology(self, topology: dict) -> None:
        """Adopt a snapshot's ownership table (fresh engines only).

        Runs before :func:`repro.engine.durable.apply_snapshot`
        re-registers any entity, so every registration routes against the
        recovered topology from the start.
        """
        self.shard_map.install(topology)

    # ------------------------------------------------------------------ #
    # Halo guard
    # ------------------------------------------------------------------ #

    def _guard_halo(
        self,
        tasks: Sequence[SpatialTask] = (),
        workers: Sequence[MovingWorker] = (),
    ) -> None:
        """Fold entities into the reach aggregates, or raise unmodified.

        Runs *before* the base registration touches any state, so a
        too-small halo fails loudly with the engine untouched (a guard
        firing after registration would strand entities in the dicts but
        not in the routing tables, and a silently missing pair would
        break the bit-identity contract).
        """
        halo = self.shard_map.halo
        if halo is None:
            return
        max_end = max([self._max_end, *(task.end for task in tasks)])
        min_depart = min([self._min_depart, *(w.depart_time for w in workers)])
        v_max = max([self._v_max, *(w.velocity for w in workers)])
        earliest = min_depart if min_depart != math.inf else 0.0
        bound = max(0.0, max_end - earliest) * v_max
        if bound > halo + _HALO_EPS:
            raise ValueError(
                f"halo {halo} no longer covers the population's reach bound "
                f"{bound:.6g}; size it with ShardMap.halo_bound over the full "
                f"pools (or use halo=None to replicate tasks everywhere)"
            )
        self._max_end, self._min_depart, self._v_max = max_end, min_depart, v_max

    def add_tasks(self, tasks: Sequence[SpatialTask]) -> None:
        """Register tasks, halo-guarded before any state changes."""
        self._guard_halo(tasks=tasks)
        super().add_tasks(tasks)

    def add_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Register workers, halo-guarded before any state changes."""
        self._guard_halo(workers=workers)
        super().add_workers(workers)

    def update_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Refresh workers in place, halo-guarded before any state changes."""
        self._guard_halo(workers=workers)
        super().update_workers(workers)

    # ------------------------------------------------------------------ #
    # Routing (the index hooks): one pass per batch routes each entity,
    # buffers its shard event and keeps the digest/fingerprint/load
    # bookkeeping in step
    # ------------------------------------------------------------------ #

    def _buffer(self, shard_id: int, event: ev.Event) -> None:
        self._pending.setdefault(shard_id, []).append(event)
        self._merged = None

    def _place_worker(self, shard_id: int, worker: MovingWorker, digest: int) -> None:
        self._buffer(shard_id, ev.WorkerArrive(time=0.0, worker=worker))
        self._shard_fp[shard_id] ^= digest
        self._shard_worker_count[shard_id] += 1

    def _evict_worker(self, shard_id: int, worker_id: int, digest: int) -> None:
        self._buffer(shard_id, ev.WorkerLeave(time=0.0, worker_id=worker_id))
        self._shard_fp[shard_id] ^= digest
        self._shard_worker_count[shard_id] -= 1

    def _place_task(self, shard_id: int, task: SpatialTask, digest: int) -> None:
        self._buffer(shard_id, ev.TaskArrive(time=0.0, task=task))
        self._shard_fp[shard_id] ^= digest
        self._shard_task_count[shard_id] += 1

    def _evict_task(self, shard_id: int, task_id: int, digest: int) -> None:
        self._buffer(shard_id, ev.TaskWithdraw(time=0.0, task_id=task_id))
        self._shard_fp[shard_id] ^= digest
        self._shard_task_count[shard_id] -= 1

    def _index_insert_tasks(self, tasks: Sequence[SpatialTask]) -> None:
        with self.profiler.phase("route"):
            for task in tasks:
                digest = self._task_digest[task.task_id] = task_digest(task)
                shards = self.shard_map.shards_for_task(task.location)
                self._task_shards[task.task_id] = shards
                for shard_id in shards:
                    self._place_task(shard_id, task, digest)

    def _index_remove_task(self, task_id: int) -> None:
        with self.profiler.phase("route"):
            digest = self._task_digest.pop(task_id)
            for shard_id in self._task_shards.pop(task_id):
                self._evict_task(shard_id, task_id, digest)

    def _index_add_workers(self, workers: Sequence[MovingWorker]) -> None:
        with self.profiler.phase("route"):
            for worker in workers:
                digest = self._worker_digest[worker.worker_id] = worker_digest(worker)
                shard_id = self.shard_map.shard_of_point(worker.location)
                self._worker_shard[worker.worker_id] = shard_id
                self._place_worker(shard_id, worker, digest)

    def _index_remove_worker(self, worker_id: int) -> None:
        with self.profiler.phase("route"):
            self._evict_worker(
                self._worker_shard.pop(worker_id),
                worker_id,
                self._worker_digest.pop(worker_id),
            )

    def _index_update_workers(self, workers: Sequence[MovingWorker]) -> None:
        with self.profiler.phase("route"):
            for worker in workers:
                worker_id = worker.worker_id
                old_shard = self._worker_shard[worker_id]
                old_digest = self._worker_digest[worker_id]
                new_shard = self.shard_map.shard_of_point(worker.location)
                digest = self._worker_digest[worker_id] = worker_digest(worker)
                if new_shard == old_shard:
                    self._buffer(
                        new_shard, ev.WorkerUpdate(time=0.0, worker=worker)
                    )
                    self._shard_fp[new_shard] ^= old_digest ^ digest
                else:
                    # A block-crossing move migrates the worker between
                    # shard grids; its pairs move with it, so the merge
                    # needs no cross-shard reconciliation.
                    self._worker_shard[worker_id] = new_shard
                    self._evict_worker(old_shard, worker_id, old_digest)
                    self._place_worker(new_shard, worker, digest)

    # ------------------------------------------------------------------ #
    # Rebalancing
    # ------------------------------------------------------------------ #

    def apply_rebalance(self, ops: Sequence[Dict[str, object]]) -> None:
        """Apply reshape ops and re-route the entities they move.

        Each op reshapes the :class:`~repro.engine.sharding.ShardMap`;
        workers whose cells changed owner then migrate between residents
        as leave/arrive diff runs, and tasks whose halo replica sets
        changed are re-replicated — all through the ordinary pending
        buffers, so the next fan-out ships the reshape as part of the
        per-shard diffs and the merged pair set (hence the plan) is
        untouched.  Live calls append one ``rebalance`` WAL event;
        during recovery the replayed event re-applies the same ops in
        the same pre-epoch position.

        Raises:
            ValueError: from :meth:`~repro.engine.sharding.ShardMap.
                apply_op` when an op does not validate against the
                current ownership.
        """
        if not ops:
            return
        with self.profiler.phase("rebalance"):
            for op in ops:
                self.shard_map.apply_op(op)
                self.elastic_stats[f"{op['kind']}s"] += 1
                self.elastic_stats["rebalance_ops"] += 1
            for worker_id, old_shard in list(self._worker_shard.items()):
                worker = self._workers[worker_id]
                new_shard = self.shard_map.shard_of_point(worker.location)
                if new_shard != old_shard:
                    digest = self._worker_digest[worker_id]
                    self._worker_shard[worker_id] = new_shard
                    self._evict_worker(old_shard, worker_id, digest)
                    self._place_worker(new_shard, worker, digest)
            for task_id, old_shards in list(self._task_shards.items()):
                task = self._tasks[task_id]
                new_shards = self.shard_map.shards_for_task(task.location)
                if new_shards == old_shards:
                    continue
                digest = self._task_digest[task_id]
                for shard_id in old_shards:
                    if shard_id not in new_shards:
                        self._evict_task(shard_id, task_id, digest)
                for shard_id in new_shards:
                    if shard_id not in old_shards:
                        self._place_task(shard_id, task, digest)
                self._task_shards[task_id] = new_shards
        self._durable_append(
            [("rebalance", {"ops": [dict(op) for op in ops]})]
        )

    def epoch(self, now=0.0, pinned=None, forbidden=None):
        """One re-planning instant, preceded by a policy rebalance check.

        The policy runs only on *live* epochs: during WAL replay
        (``_durable_suppress`` held by the recovery) the logged
        ``rebalance`` events re-apply the original decisions instead, so
        a recovered trajectory cannot double-rebalance.
        """
        if (
            self.policy is not None
            and not self._durable_suppress
            and not self._epoch_active
            and not self._closed
        ):
            ops = self.policy.plan(self)
            if ops:
                self.apply_rebalance(ops)
        return super().epoch(now, pinned=pinned, forbidden=forbidden)

    # ------------------------------------------------------------------ #
    # Diff-shipping fan-out
    # ------------------------------------------------------------------ #

    def _build_diff(
        self, shard_id: int, events: Sequence[ev.Event]
    ) -> ShardDiff:
        from repro.engine.scheduler import coalesce_churn

        if not self.diff_shipping:
            return self._build_full_diff(shard_id, bump=True)
        base = self._shard_version[shard_id]
        self._shard_version[shard_id] = base + 1
        return ShardDiff(
            shard_id=shard_id,
            base_version=base,
            version=base + 1,
            full=False,
            runs=pack_diff(list(coalesce_churn(events))),
            fingerprint=self._shard_fp[shard_id],
        )

    def _build_full_diff(self, shard_id: int, bump: bool = False) -> ShardDiff:
        if bump:
            self._shard_version[shard_id] += 1
        workers = sorted(
            (
                self._workers[worker_id]
                for worker_id, owner in self._worker_shard.items()
                if owner == shard_id
            ),
            key=lambda worker: worker.worker_id,
        )
        tasks = sorted(
            (
                self._tasks[task_id]
                for task_id, shards in self._task_shards.items()
                if shard_id in shards
            ),
            key=lambda task: task.task_id,
        )
        runs: List[Tuple[str, object]] = []
        if workers:
            runs.append(("worker_arrive", workers))
        if tasks:
            runs.append(("task_arrive", tasks))
        return ShardDiff(
            shard_id=shard_id,
            base_version=-1,
            version=self._shard_version[shard_id],
            full=True,
            runs=pack_diff(runs),
            fingerprint=self._shard_fp[shard_id],
        )

    def _full_ship_bytes(self) -> int:
        """What full re-ship would cost this fan-out, from resident counts."""
        return sum(
            count * WORKER_WIRE_BYTES for count in self._shard_worker_count
        ) + sum(
            count * TASK_WIRE_BYTES for count in self._shard_task_count
        ) + DIFF_HEADER_BYTES * self.shard_map.num_shards

    def current_pairs(self) -> List[ValidPair]:
        """The live valid-pair set, merged across resident shards.

        Routed churn since the previous fan-out ships as one versioned
        diff per resident (``diff_ship`` phase); residents apply and
        report pairs plus stat deltas (``index`` phase), and any stale
        resident is healed with a full resync on the same fan-out.  With
        nothing pending, the previous merge is served again without
        touching the executor.  The merged list is sorted by
        ``(task_id, worker_id)`` — a canonical order containing exactly
        the single grid's pair set, which is all the (candidate-
        canonicalising) problem build observes.
        """
        if self._merged is None:
            batches, self._pending = self._pending, {}
            num_shards = self.shard_map.num_shards
            with self.profiler.phase("diff_ship"):
                diffs = [
                    self._build_diff(shard_id, batches.get(shard_id, []))
                    for shard_id in range(num_shards)
                ]
                self.elastic_stats["diff_bytes"] += sum(
                    diff.nbytes for diff in diffs
                )
                self.elastic_stats["full_bytes"] += self._full_ship_bytes()
            merged: List[ValidPair] = []
            with self.profiler.phase("index"):
                reports = self.executor.apply(diffs)
                stale = [
                    slot
                    for slot, report in enumerate(reports)
                    if report[0] == "stale"
                ]
                if stale:
                    with self.profiler.phase("diff_ship"):
                        resyncs = [
                            (slot, self._build_full_diff(slot))
                            for slot in stale
                        ]
                        self.elastic_stats["diff_bytes"] += sum(
                            diff.nbytes for _, diff in resyncs
                        )
                    self.elastic_stats["resyncs"] += len(stale)
                    for slot, report in zip(
                        stale, self.executor.apply_at(resyncs)
                    ):
                        reports[slot] = report
                for kind, _, pairs, stats in reports:
                    if kind != "ok":
                        raise RuntimeError(
                            "resident still stale after a full resync — "
                            "diff protocol bug"
                        )
                    merged.extend(pairs)
                    for key, delta in stats.items():
                        self.grid.stats[key] += delta
            with self.profiler.phase("merge"):
                merged.sort(key=lambda pair: (pair.task_id, pair.worker_id))
            self._merged = merged
            self.fanouts += 1
        return list(self._merged)

    def close(self) -> None:
        """Release the resident executor and any owned solve executor.

        Idempotent like the base close: the first call shuts the resident
        pools *and* an engine-owned solve executor down (the base close
        handles the latter — an engine-owned
        :class:`~repro.engine.parallel.ParallelSolveExecutor` must not
        outlive the sharded engine any more than the single one); repeats
        are no-ops, and a later :meth:`epoch` fails with a clear error
        instead of submitting to dead pools.
        """
        if self._closed:
            return
        self.executor.close()
        super().close()
