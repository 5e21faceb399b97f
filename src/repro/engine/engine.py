"""The event-driven incremental assignment engine.

:class:`AssignmentEngine` is the delta-aware heart of the long-lived
operating mode (Section 7.2 / Figure 10): it consumes typed churn events
(:mod:`repro.engine.events`), keeps three representations of the live
state current *per event* instead of per epoch —

* the scalar object dicts (source of truth, insertion-ordered),
* the grid index with its persistent valid-pair cache
  (:class:`repro.index.grid.RdbscGrid`), the one retrieval path, and
* the slot-stable worker slab (:class:`repro.fastpath.arrays.WorkerSlots`)
  whose Eq. 8 weights a warm GREEDY repair reads

— and, at each epoch tick, retrieves the valid pairs incrementally
(re-probing only cache entries dirtied since the previous epoch), builds
the :class:`repro.core.problem.RdbscProblem` sub-instance and runs the
configured solver.  A retrieval after a small delta therefore costs
O(delta), not O(m * n); the results are bit-identical to a from-scratch
rebuild (``tests/test_engine_churn.py`` pins this on both engine backends).

Solving itself is delta-aware too: with ``solve_mode="warm"`` the engine
tracks the churn between consecutive epochs in an
:class:`repro.solvers.incremental.EpochDelta` and, when the churn
fraction stays at or under ``warm_churn_threshold``, repairs the previous
epoch's plan through the warm-start solvers
(:mod:`repro.solvers.incremental`) instead of re-solving from scratch —
dropping entries on dead or invalidated pairs and re-scoring only workers
whose candidate sets changed.  Epochs past the threshold (and the first
epoch, and any solver without a warm variant) fall back to a full solve;
each :class:`~repro.engine.metrics.EpochRecord` notes which path ran.

Platform concerns plug in through ``epoch`` keywords: committed
contributions are pinned as degree-one *virtual workers* (Figure 10's
``A`` / ``S_c``), and ``forbidden`` pairs (a user is never pushed the
same question twice) are filtered from the edge set.
:class:`repro.platform_sim.simulator.PlatformSimulator` and
:func:`repro.datagen.streams.replay_stream` are thin drivers of this
class.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.base import RngLike, Solver
from repro.algorithms.sampling import SamplingSolver
from repro.core.assignment import Assignment
from repro.core.diversity import WorkerProfile
from repro.core.objectives import ObjectiveValue, evaluate_assignment
from repro.core.problem import RdbscProblem, ValidPair
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.engine import events as ev
from repro.engine import durable as dur
from repro.engine.metrics import EngineMetrics, EpochRecord
from repro.engine.profile import PhaseProfiler, activated
from repro.engine.scheduler import EventQueue, coalesce_churn
from repro.fastpath.arrays import WorkerSlots
from repro.solvers.incremental import (
    EpochDelta,
    PreviousPlan,
    WarmStartGreedySolver,
    candidate_signatures,
    warm_variant,
)
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.index.grid import RdbscGrid

#: Offset (unit-square units) used to place a virtual worker along its
#: committed approach angle so that its profile reproduces that angle.
VIRTUAL_OFFSET = 1e-6


def virtual_worker(
    task: SpatialTask, profile: WorkerProfile, virtual_id: int
) -> Tuple[MovingWorker, ValidPair]:
    """A pinned degree-one worker representing one committed contribution.

    The worker sits a hair's breadth from the task along the committed
    approach angle, is stationary, and carries the committed confidence
    and arrival — so solvers account for the contribution's reliability
    and diversity exactly, without any solver-side special casing.
    """
    location = Point(
        task.location.x + VIRTUAL_OFFSET * math.cos(profile.angle),
        task.location.y + VIRTUAL_OFFSET * math.sin(profile.angle),
    )
    worker = MovingWorker(
        worker_id=virtual_id,
        location=location,
        velocity=0.0,
        cone=AngleInterval.full_circle(),
        confidence=profile.confidence,
        depart_time=profile.arrival,
    )
    arrival = min(max(profile.arrival, task.start), task.end)
    return worker, ValidPair(task.task_id, virtual_id, arrival)


@dataclass(frozen=True)
class EpochResult:
    """Outcome of one engine epoch.

    Attributes:
        now: the epoch's clock time.
        objective: the solver's (min reliability, total E[STD]) value.
        assignment: the full solved assignment (virtual workers included,
            when contributions were pinned).
        dispatch: ``{real worker id -> task id}`` — the assignment with
            any pinned virtual workers filtered out.
        num_tasks / num_workers / num_pairs: size of the solved
            sub-instance.
        expired: task ids retired by this epoch's expiry sweep.
        mode: ``"full"`` when the solver ran cold, ``"warm"`` when the
            previous epoch's plan was repaired instead.
    """

    now: float
    objective: ObjectiveValue
    assignment: Assignment
    dispatch: Dict[int, int]
    num_tasks: int
    num_workers: int
    num_pairs: int
    expired: Tuple[int, ...]
    mode: str = "full"


class AssignmentEngine:
    """Event-driven incremental RDB-SC assignment.

    Args:
        solver: the algorithm run at each epoch tick.
        eta: grid cell side (see :func:`repro.index.cost_model.optimal_eta`).
        validity: pair-validity policy shared by index and problem builds.
        rng: seed/generator forwarded to the solver for reproducibility.
        backend: ``"python"`` or ``"numpy"`` — whether a warm GREEDY
            repair reads its Eq. 8 weights off the worker slab.  It no
            longer touches the grid index, which always probes with the
            scalar validity rule.
        reanchor_on_epoch: when true, every epoch first re-anchors each
            live worker to depart *now* from its current location (the
            platform's semantics — an idle worker starts moving when
            dispatched, not when it registered).  Re-anchoring flows
            through the same in-place update path as external updates.
            With a waiting-enabled validity rule the sweep is delta-cheap:
            a stale worker with no valid pairs is skipped, because pushing
            its departure later can only shrink its (already empty) reach
            — so only workers whose pairs could actually change pay the
            update (and dirty their cell's pair-cache entries).
        solve_mode: ``"full"`` re-solves every epoch from scratch (the
            paper-faithful default); ``"warm"`` repairs the previous
            epoch's plan via :mod:`repro.solvers.incremental` whenever the
            inter-epoch churn fraction is at most ``warm_churn_threshold``
            and the solver has a warm variant, falling back to a full
            solve otherwise.
        warm_churn_threshold: largest churn fraction (distinct churned
            entities over the previous epoch's live population) still
            repaired in warm mode; epochs strictly above it solve in full.
        solve_executor: parallelise the epoch *solve* (the per-epoch index
            work is the sharded engine's job).  ``None`` solves serially;
            an ``int`` builds a :class:`repro.engine.parallel.
            ParallelSolveExecutor` with that many pinned worker processes
            (owned — closed by :meth:`close`); an executor instance is
            used as-is (shared — the caller closes it).  The executor is
            bound to a SAMPLING solver per epoch and fans its independent
            substream sample evaluations across the pool — plans are
            bit-identical to the serial solve.  A warm-start wrapper
            inherits the binding (warm fresh draws); every other solver,
            GREEDY included, solves inline and forks no process.
        durable_path: when set, the engine writes a write-ahead event log
            plus periodic full-state snapshots to this SQLite file
            (:mod:`repro.engine.durable`); a crashed session is recovered
            with :func:`repro.engine.durable.restore_engine`, which
            reproduces the live per-epoch plans bit-exactly.  Requires a
            deterministic ``rng`` (an int seed or a numpy ``Generator``);
            the path must not already hold a session.
        durable_snapshot_every: epochs between full-state snapshots (the
            recovery replay tail is at most this many epochs long).
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        eta: float = 0.125,
        validity: Optional[ValidityRule] = None,
        rng: RngLike = None,
        backend: str = "python",
        reanchor_on_epoch: bool = False,
        solve_mode: str = "full",
        warm_churn_threshold: float = 0.25,
        solve_executor=None,
        durable_path=None,
        durable_snapshot_every: int = 16,
    ) -> None:
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        if solve_mode not in ("full", "warm"):
            raise ValueError(f"unknown solve_mode {solve_mode!r}")
        if warm_churn_threshold < 0.0:
            raise ValueError("warm_churn_threshold must be non-negative")
        self.solver = solver if solver is not None else SamplingSolver(num_samples=40)
        self.validity = validity if validity is not None else ValidityRule()
        self.backend = backend
        self.reanchor_on_epoch = reanchor_on_epoch
        self.solve_mode = solve_mode
        self.warm_churn_threshold = warm_churn_threshold
        self.rng = rng
        self.grid = RdbscGrid(eta, self.validity)
        self.worker_slots = WorkerSlots()
        self.metrics = EngineMetrics()
        #: Per-epoch phase timer (see :mod:`repro.engine.profile`): the
        #: engine's own call sites time into it directly, solver scoring
        #: phases join via :func:`repro.engine.profile.activated` around
        #: the solve, and each epoch snapshots it into its record.
        self.profiler = PhaseProfiler()
        self._tasks: Dict[int, SpatialTask] = {}
        self._workers: Dict[int, MovingWorker] = {}
        self._held: Set[int] = set()
        self._assignment = Assignment()
        self._delta = EpochDelta()
        self._plan: Optional[PreviousPlan] = None
        # Cache of warm_variant(self.solver), keyed by solver identity so a
        # swapped-in solver re-resolves and a stateful warm wrapper
        # persists across epochs.
        self._warm_cache: Tuple[Optional[Solver], Optional[object]] = (None, None)
        if isinstance(solve_executor, int):
            from repro.engine.parallel import ParallelSolveExecutor

            self.solve_executor = (
                ParallelSolveExecutor(processes=solve_executor)
                if solve_executor > 0
                else None
            )
            self._owns_solve_executor = self.solve_executor is not None
        else:
            self.solve_executor = solve_executor
            self._owns_solve_executor = False
        # Bind cache, keyed by solver identity like the warm cache: a
        # swapped-in solver re-binds, a stable one binds once.
        self._bound_solver: Optional[Solver] = None
        self._closed = False
        #: Re-entry guard: the engine is single-threaded, so a second
        #: ``epoch()`` while one runs raises instead of corrupting state.
        self._epoch_active = False
        #: Session-clock watermark: the latest ``now`` seen by an epoch or
        #: expiry sweep, stamped onto logged churn rows for analytics.
        self._clock = 0.0
        self.durable: Optional[dur.DurableLog] = None
        self._durable_suppress = 0
        self._durable_snapshot_every = max(1, int(durable_snapshot_every))
        self._epochs_since_snapshot = 0
        if durable_path is not None:
            self._start_durable(durable_path)

    # ------------------------------------------------------------------ #
    # Durability (the write-ahead log; see :mod:`repro.engine.durable`)
    # ------------------------------------------------------------------ #

    def _durable_config(self) -> dict:
        """The constructor arguments a recovery must reproduce (log meta)."""
        return {
            "schema": dur.SCHEMA_VERSION,
            "engine": type(self).__name__,
            "solver": type(self.solver).__name__,
            "eta": self.grid.eta,
            "backend": self.backend,
            "allow_waiting": self.validity.allow_waiting,
            "reanchor_on_epoch": self.reanchor_on_epoch,
            "solve_mode": self.solve_mode,
            "warm_churn_threshold": self.warm_churn_threshold,
            "snapshot_every": self._durable_snapshot_every,
            "solver_config": dur.solver_config(self.solver),
        }

    def _start_durable(self, path) -> None:
        """Open a fresh write-ahead log and seed it with snapshot zero."""
        if self.rng is None:
            raise ValueError(
                "durable_path requires a deterministic rng: pass an int seed "
                "or a numpy Generator, not rng=None"
            )
        log = dur.DurableLog(path)
        try:
            if log.last_seq() > 0 or log.latest_snapshot() is not None:
                raise ValueError(
                    f"durable log {path} already holds a session; recover it "
                    "with repro.engine.durable.restore_engine (or point the "
                    "engine at a fresh path)"
                )
            log.set_meta(self._durable_config())
        except BaseException:
            log.close()
            raise
        self._adopt_durable(log)
        self._write_durable_snapshot()

    def _adopt_durable(self, log, snapshot_every: Optional[int] = None) -> None:
        """Attach an open log (fresh or recovered) for live appending."""
        self.durable = log
        if snapshot_every is not None:
            self._durable_snapshot_every = max(1, int(snapshot_every))
        self._epochs_since_snapshot = 0

    def _durable_append(self, records) -> None:
        """Append ``(kind, payload)`` rows unless logging is suppressed.

        Suppressed while an epoch runs (the epoch marker subsumes its
        internal expiry/re-anchor churn) and while a recovery replays the
        tail (replayed events are already in the log).
        """
        if self.durable is not None and not self._durable_suppress:
            with self.profiler.phase("wal_append"):
                self.durable.append_events(
                    [(kind, self._clock, payload) for kind, payload in records]
                )

    def _write_durable_snapshot(self) -> None:
        """Serialise the full live state, positioned after the last event."""
        assert self.durable is not None
        with self.profiler.phase("wal_append"):
            self.durable.write_snapshot(
                self.durable.last_seq(), dur.encode_snapshot(self.snapshot())
            )
        self._epochs_since_snapshot = 0

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #

    @property
    def num_tasks(self) -> int:
        """Number of live (registered, unexpired) tasks."""
        return len(self._tasks)

    @property
    def num_workers(self) -> int:
        """Number of live registered workers."""
        return len(self._workers)

    @property
    def tasks(self) -> Dict[int, SpatialTask]:
        """Live tasks by id (insertion-ordered; treat as read-only)."""
        return self._tasks

    @property
    def workers(self) -> Dict[int, MovingWorker]:
        """Live workers by id (insertion-ordered; treat as read-only)."""
        return self._workers

    @property
    def assignment(self) -> Assignment:
        """The live assignment from the most recent epoch."""
        return self._assignment

    def assignment_of(self, worker_id: int) -> Optional[int]:
        """The task the worker holds in the live assignment, if any."""
        return self._assignment.task_of(worker_id)

    def workers_on(self, task_id: int):
        """Ids of the workers the live assignment gives a task."""
        return self._assignment.workers_for(task_id)

    # ------------------------------------------------------------------ #
    # Index maintenance hooks
    # ------------------------------------------------------------------ #
    # The churn methods keep the object dicts, the worker slab and the
    # spatial index in lock-step; all index traffic funnels through these
    # five hooks so the sharded engine (:mod:`repro.engine.elastic`) can
    # reroute it to per-shard sub-grids without re-implementing any
    # bookkeeping.  The batched hooks receive whole same-kind runs (see
    # :meth:`apply_batch`) so the grid can group per-cell work.

    def _index_insert_tasks(self, tasks: Sequence[SpatialTask]) -> None:
        with self.profiler.phase("index"):
            self.grid.insert_tasks(tasks)

    def _index_remove_task(self, task_id: int) -> None:
        with self.profiler.phase("index"):
            self.grid.remove_task(task_id)

    def _index_add_workers(self, workers: Sequence[MovingWorker]) -> None:
        with self.profiler.phase("index"):
            self.grid.insert_workers(workers)

    def _index_remove_worker(self, worker_id: int) -> None:
        with self.profiler.phase("index"):
            self.grid.remove_worker(worker_id)

    def _index_update_workers(self, workers: Sequence[MovingWorker]) -> None:
        with self.profiler.phase("index"):
            self.grid.update_workers(workers)

    # ------------------------------------------------------------------ #
    # Churn (each method keeps dicts + grid + worker slab in lock-step)
    # ------------------------------------------------------------------ #

    def add_task(self, task: SpatialTask) -> None:
        """Register a task (ValueError on duplicate id)."""
        self.add_tasks((task,))

    def add_tasks(self, tasks: Sequence[SpatialTask]) -> None:
        """Register a batch of tasks; the index links each cell once.

        Ids must be distinct within the batch and unused (ValueError
        otherwise; earlier entries of a partially invalid batch stay
        registered, exactly as sequential ``add_task`` calls would).
        """
        fresh: List[SpatialTask] = []
        try:
            for task in tasks:
                if task.task_id in self._tasks:
                    raise ValueError(f"task {task.task_id} already registered")
                self._tasks[task.task_id] = task
                self._delta.tasks_arrived.add(task.task_id)
                self.metrics.count_event("task_arrive")
                fresh.append(task)
        finally:
            # The entries registered before a mid-batch duplicate stay, so
            # index and log must absorb them even on the error path.
            self._index_insert_tasks(fresh)
            self._durable_append(
                [("task_arrive", {"task": dur.task_row(task)}) for task in fresh]
            )

    def withdraw_task(self, task_id: int) -> SpatialTask:
        """Remove a task (completed/cancelled); frees its workers."""
        task = self._tasks.pop(task_id)
        self._index_remove_task(task_id)
        for worker_id in list(self._assignment.workers_for(task_id)):
            self._assignment.unassign(worker_id)
        self._delta.tasks_removed.add(task_id)
        self.metrics.count_event("task_withdraw")
        self._durable_append([("task_withdraw", {"task_id": task_id})])
        return task

    def expire_tasks(self, now: float) -> List[int]:
        """Retire every task whose valid period closed strictly before now.

        The boundary is inclusive (a task with ``end == now`` is still
        live), matching :meth:`repro.core.task.SpatialTask.expired_at` and
        therefore the validity rule's arrival check.
        """
        self._clock = now
        expired = [t.task_id for t in self._tasks.values() if t.expired_at(now)]
        # The sweep logs as one "expire" record (replay re-derives the same
        # withdrawals from the same clock), not as per-task withdrawals.
        self._durable_suppress += 1
        try:
            for task_id in expired:
                self.withdraw_task(task_id)
                self.metrics.events["task_withdraw"] -= 1
                self.metrics.count_event("task_expire")
        finally:
            self._durable_suppress -= 1
        self._durable_append([("expire", {"now": now})])
        return expired

    def add_worker(self, worker: MovingWorker) -> None:
        """Register a worker (ValueError on duplicate id)."""
        self.add_workers((worker,))

    def add_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Register a batch of workers; the index widens each cell once.

        Ids must be distinct within the batch and unused (ValueError
        otherwise; earlier entries of a partially invalid batch stay
        registered, exactly as sequential ``add_worker`` calls would).
        """
        fresh: List[MovingWorker] = []
        try:
            for worker in workers:
                if worker.worker_id in self._workers:
                    raise ValueError(
                        f"worker {worker.worker_id} already registered"
                    )
                self._workers[worker.worker_id] = worker
                self.worker_slots.add(worker)
                self._delta.workers_arrived.add(worker.worker_id)
                self.metrics.count_event("worker_arrive")
                fresh.append(worker)
        finally:
            self._index_add_workers(fresh)
            self._durable_append(
                [
                    ("worker_arrive", {"worker": dur.worker_row(worker)})
                    for worker in fresh
                ]
            )

    def remove_worker(self, worker_id: int) -> MovingWorker:
        """Deregister a worker (left the system)."""
        worker = self._workers.pop(worker_id)
        self._held.discard(worker_id)
        self._index_remove_worker(worker_id)
        self.worker_slots.remove(worker_id)
        if self._assignment.is_assigned(worker_id):
            self._assignment.unassign(worker_id)
        self._delta.workers_left.add(worker_id)
        self.metrics.count_event("worker_leave")
        self._durable_append([("worker_leave", {"worker_id": worker_id})])
        return worker

    def update_worker(self, worker: MovingWorker) -> None:
        """Refresh a registered worker in place (KeyError if unknown).

        A worker that stays in its grid cell costs O(1): the object dict,
        the cell record and the packed slot row are each overwritten in
        place; only a cross-cell move pays the remove + insert path.
        """
        self.update_workers((worker,))

    def update_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Batched :meth:`update_worker`; the index groups same-cell work.

        Ids must be registered (KeyError otherwise) and distinct within
        the batch (ValueError — a repeated id would desynchronise the
        grid's remove + insert path on a cross-cell move), both checked
        before any state is touched; same-cell refreshes grouped into one
        batch pay one cell invalidation + widening sweep per touched cell
        instead of one per worker.
        """
        seen: Set[int] = set()
        for worker in workers:
            if worker.worker_id not in self._workers:
                raise KeyError(f"worker {worker.worker_id} not registered")
            if worker.worker_id in seen:
                raise ValueError(
                    f"worker {worker.worker_id} appears twice in one update batch"
                )
            seen.add(worker.worker_id)
        for worker in workers:
            self._workers[worker.worker_id] = worker
            self.worker_slots.update(worker)
            self._delta.workers_updated.add(worker.worker_id)
            self.metrics.count_event("worker_update")
        self._index_update_workers(workers)
        self._durable_append(
            [
                ("worker_update", {"worker": dur.worker_row(worker)})
                for worker in workers
            ]
        )

    # ------------------------------------------------------------------ #
    # In-flight holds (dispatched workers stay registered)
    # ------------------------------------------------------------------ #

    def hold_worker(self, worker_id: int) -> None:
        """Hide a registered worker from the solver without removing it.

        A held worker keeps its dict entry, slot row and grid residency —
        no cache entries are invalidated — but its valid pairs are
        filtered out of every epoch sub-instance and the re-anchor sweep
        leaves it alone (its departure is owned by whoever holds it).
        This is how the platform simulator models a dispatched worker
        travelling to its task: in flight, not gone.  For warm-mode
        purposes a hold is forced-dirty (the worker's candidates vanish)
        but is *fulfilment* of the previous plan rather than external
        churn, so it does not count toward the fallback fraction (see
        :class:`repro.solvers.incremental.EpochDelta`).

        Raises:
            KeyError: if the worker is not registered.
        """
        if worker_id not in self._workers:
            raise KeyError(f"worker {worker_id} not registered")
        self._held.add(worker_id)
        self._delta.workers_held.add(worker_id)
        self.metrics.count_event("worker_hold")
        self._durable_append([("worker_hold", {"worker_id": worker_id})])

    def release_worker(self, worker_id: int) -> None:
        """Make a held worker solver-visible again (KeyError if unknown).

        Callers normally pair this with an :meth:`update_worker` carrying
        the worker's post-trip position and departure time.  Releasing an
        unheld worker is a no-op apart from the churn accounting.
        """
        if worker_id not in self._workers:
            raise KeyError(f"worker {worker_id} not registered")
        self._held.discard(worker_id)
        self._delta.workers_updated.add(worker_id)
        self.metrics.count_event("worker_release")
        self._durable_append([("worker_release", {"worker_id": worker_id})])

    @property
    def held_workers(self) -> Set[int]:
        """Ids currently hidden from the solver (treat as read-only)."""
        return self._held

    # ------------------------------------------------------------------ #
    # Event consumption
    # ------------------------------------------------------------------ #

    def apply(self, event: ev.Event) -> Optional[EpochResult]:
        """Apply one typed event; epoch ticks return their result."""
        if isinstance(event, ev.TaskArrive):
            self.add_task(event.task)
        elif isinstance(event, ev.TaskWithdraw):
            self.withdraw_task(event.task_id)
        elif isinstance(event, ev.WorkerArrive):
            self.add_worker(event.worker)
        elif isinstance(event, ev.WorkerLeave):
            self.remove_worker(event.worker_id)
        elif isinstance(event, ev.WorkerUpdate):
            self.update_worker(event.worker)
        elif isinstance(event, ev.WorkerHold):
            self.hold_worker(event.worker_id)
        elif isinstance(event, ev.WorkerRelease):
            self.release_worker(event.worker_id)
        elif isinstance(event, ev.ExpireTasks):
            self.expire_tasks(event.time)
        elif isinstance(event, ev.EpochTick):
            return self.epoch(event.time)
        else:
            raise TypeError(f"unknown event type {type(event).__name__}")
        return None

    def apply_batch(self, events: Sequence[ev.Event]) -> List[EpochResult]:
        """Apply an ordered event batch, grouping commuting churn runs.

        The batch is coalesced by :func:`repro.engine.scheduler.
        coalesce_churn`: churn on distinct entities commutes, so leaves,
        arrivals, updates and task churn each apply as one batched call —
        a burst of same-instant deltas pays per-cell invalidation once
        per cell instead of once per event.  A repeated entity id (which
        must keep its per-entity order) and any non-churn event flush the
        pending runs first, so the outcome is exactly that of applying
        the batch one event at a time.  Epoch ticks return their results
        in order.
        """
        results: List[EpochResult] = []
        with self.profiler.phase("coalesce"):
            grouped = list(coalesce_churn(events))
        for kind, payload in grouped:
            if kind == "worker_update":
                self.update_workers(payload)
            elif kind == "worker_arrive":
                self.add_workers(payload)
            elif kind == "worker_leave":
                for worker_id in payload:
                    self.remove_worker(worker_id)
            elif kind == "task_arrive":
                self.add_tasks(payload)
            elif kind == "task_withdraw":
                for task_id in payload:
                    self.withdraw_task(task_id)
            else:
                outcome = self.apply(payload)
                if outcome is not None:
                    results.append(outcome)
        return results

    def process(self, queue: EventQueue) -> List[EpochResult]:
        """Drain an :class:`~repro.engine.scheduler.EventQueue`; returns
        the epoch results in order.

        The queue is consumed as per-instant batches through
        :meth:`apply_batch` (identical outcomes to applying it event by
        event, with grouped index maintenance).
        """
        results: List[EpochResult] = []
        for batch in queue.drain_instants():
            results.extend(self.apply_batch(batch))
        return results

    # ------------------------------------------------------------------ #
    # Retrieval + epochs
    # ------------------------------------------------------------------ #

    def current_pairs(self) -> List[ValidPair]:
        """The live valid-pair set, retrieved incrementally.

        The grid serves unchanged (worker cell, task cell) entries from
        its persistent cache and re-probes only dirty ones.
        """
        with self.profiler.phase("index"):
            return self.grid.valid_pairs()

    def current_problem(self) -> RdbscProblem:
        """The current sub-instance (no pinning, no filtering)."""
        return RdbscProblem(
            list(self._tasks.values()),
            list(self._workers.values()),
            self.validity,
            precomputed_pairs=self.current_pairs(),
        )

    def build_problem(
        self,
        pinned: Optional[Dict[int, List[WorkerProfile]]] = None,
        forbidden: Optional[Set[Tuple[int, int]]] = None,
    ) -> Tuple[RdbscProblem, Set[int]]:
        """The epoch sub-instance, with platform concerns folded in.

        Returns the problem plus the set of generated virtual worker ids
        (empty without pinning) so callers can separate real dispatch from
        solver bookkeeping.  Held (in-flight) workers' pairs are filtered
        out first, so the solver never sees them as available.
        """
        pairs = self.current_pairs()
        if self._held:
            pairs = [p for p in pairs if p.worker_id not in self._held]
        if forbidden:
            pairs = [
                p for p in pairs if (p.worker_id, p.task_id) not in forbidden
            ]
        tasks = list(self._tasks.values())
        workers = list(self._workers.values())
        virtual_ids: Set[int] = set()
        if pinned:
            next_virtual = -1
            for task_id in sorted(pinned.keys()):
                task = self._tasks.get(task_id)
                if task is None:
                    continue  # contribution to an already-expired task
                for profile in pinned[task_id]:
                    while next_virtual in self._workers:  # avoid id clashes
                        next_virtual -= 1
                    worker, pair = virtual_worker(task, profile, next_virtual)
                    workers.append(worker)
                    pairs.append(pair)
                    virtual_ids.add(next_virtual)
                    next_virtual -= 1
        problem = RdbscProblem(
            tasks,
            workers,
            self.validity,
            precomputed_pairs=pairs,
        )
        return problem, virtual_ids

    def _reanchor_workers(self, now: float) -> None:
        """Re-anchor live workers to depart *now*, skipping provable no-ops.

        A worker whose departure already equals ``now`` is untouched.  With
        a waiting-enabled validity rule (the platform's), a worker with an
        *earlier* stale departure and **no valid pairs** is also skipped:
        a later departure only pushes arrivals later, so its empty reach
        stays empty and no solver-visible state can differ — while the
        skip saves an update that would dirty its whole cell's pair-cache
        entries.  Strict-arrival validity gets no skip (a later departure
        can turn a too-early arrival valid), and a worker anchored in the
        *future* is always pulled back to ``now``.  Held workers are never
        re-anchored: their departure (the post-trip availability time) is
        owned by whoever holds them.
        """
        stale = [
            w
            for w in self._workers.values()
            if w.depart_time != now and w.worker_id not in self._held
        ]
        if not stale:
            return
        can_skip = self.validity.allow_waiting
        with_pairs: Set[int] = (
            {pair.worker_id for pair in self.current_pairs()} if can_skip else set()
        )
        moved: List[MovingWorker] = []
        for worker in stale:
            if (
                can_skip
                and worker.depart_time < now
                and worker.worker_id not in with_pairs
            ):
                self.metrics.reanchors_skipped += 1
                continue
            moved.append(worker.moved_to(worker.location, now))
        if not moved:
            return
        externally_churned = {
            worker.worker_id for worker in moved
        } & self._delta.workers_updated
        # One batched update: the whole sweep pays one cell invalidation
        # and one widening sweep per touched cell, like any other batch.
        self.update_workers(moved)
        for worker in moved:
            if worker.worker_id not in externally_churned:
                # The sweep's own update is clock bookkeeping, not churn:
                # it stays forced-dirty for the warm repair but must not
                # push every clocked epoch over the fallback threshold.
                self._delta.workers_updated.discard(worker.worker_id)
                self._delta.workers_reanchored.add(worker.worker_id)

    def _bind_solve_executor(self) -> None:
        """Attach the solve executor to the current SAMPLING solver.

        Cached by solver identity (a swapped-in solver re-binds); binding
        targets the *base* solver, so the warm-start wrapper — which
        re-enters the base's scoring — runs its fresh draws through the
        same executor.
        """
        if self.solve_executor is None or self._bound_solver is self.solver:
            return
        # A swapped-out solver must not keep pointing at this executor
        # (its pools may be closed later without it being re-visited).
        self.solve_executor.unbind(self._bound_solver)
        self.solve_executor.bind(self.solver)
        self._bound_solver = self.solver

    def close(self) -> None:
        """Release owned resources; idempotent, and final for this engine.

        Closes an engine-built solve executor's pool (a shared executor
        instance passed in by the caller is left running — whoever
        constructed it closes it; closing an owned executor also detaches
        it from the bound solver, so the solver stays usable serially
        elsewhere) and flushes/closes an attached durable log.  A closed
        engine refuses further :meth:`epoch` calls with a clear error
        instead of submitting work to dead pools; a second ``close()`` is
        a no-op.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_solve_executor and self.solve_executor is not None:
            self.solve_executor.unbind(self._bound_solver)
            self._bound_solver = None
            self.solve_executor.close()
        if self.durable is not None:
            self.durable.close()

    def __enter__(self) -> "AssignmentEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Context-manager exit: release owned resources."""
        self.close()

    def _warm_solver(self):
        """The cached warm variant of the current solver (None if none).

        Cached by solver identity: swapping ``self.solver`` re-resolves,
        while a stable solver keeps one wrapper across epochs (so a
        stateful warm wrapper is not silently re-created per epoch).
        """
        cached_solver, cached_variant = self._warm_cache
        if cached_solver is not self.solver:
            cached_variant = warm_variant(self.solver)
            self._warm_cache = (self.solver, cached_variant)
        return cached_variant

    def _choose_mode(self) -> str:
        """Warm repair or full solve for the upcoming epoch.

        Warm requires: warm mode enabled, a solver with a warm variant, a
        previous plan to repair, and the inter-epoch churn fraction at or
        below ``warm_churn_threshold`` (`tests/test_warmstart.py` pins the
        boundary: a delta exactly at the cutoff repairs, one entity above
        it solves in full).
        """
        if self.solve_mode != "warm" or self._plan is None:
            return "full"
        if self._warm_solver() is None:
            return "full"
        fraction = self._delta.churn_fraction(self._plan.population)
        return "warm" if fraction <= self.warm_churn_threshold else "full"

    def _warm_log_weights(
        self, problem: RdbscProblem, virtual_ids: Set[int]
    ) -> Optional[Dict[int, float]]:
        """Eq. 8 weight map for a warm greedy solve (numpy backend only).

        Real workers are gathered straight off the slot slab in one
        vectorised read (:func:`repro.fastpath.kernels.slots_log_weights`);
        per-epoch virtual workers are not slab-resident and fall back to
        their scalar property.
        """
        if self.backend != "numpy":
            return None
        from repro.fastpath.kernels import slots_log_weights

        weights = slots_log_weights(
            self.worker_slots, [w.worker_id for w in problem.workers]
        )
        for virtual_id in virtual_ids:
            weights[virtual_id] = problem.workers_by_id[
                virtual_id
            ].log_confidence_weight
        return weights

    def epoch(
        self,
        now: float = 0.0,
        pinned: Optional[Dict[int, List[WorkerProfile]]] = None,
        forbidden: Optional[Set[Tuple[int, int]]] = None,
    ) -> EpochResult:
        """One re-planning instant: expire, retrieve, solve, remember.

        The stored live assignment is replaced wholesale; committed work
        that must be honoured across epochs is expressed via ``pinned``
        (the platform simulator does), not by partial re-solves.  In
        ``solve_mode="warm"``, sufficiently quiet intervals are solved by
        repairing the previous epoch's plan instead (see
        :mod:`repro.solvers.incremental`); ``EpochResult.mode`` and the
        recorded :class:`~repro.engine.metrics.EpochRecord` say which path
        ran.

        The engine is single-threaded: a concurrent second ``epoch()``
        while one is mid-solve would interleave grid, slab and RNG
        mutations, so re-entry raises ``RuntimeError`` instead of
        corrupting state.  Concurrent callers (the service tier's
        :class:`repro.serve.scheduler.EngineDriver` does) must serialise
        epochs behind a lock.
        """
        if self._closed:
            raise RuntimeError(
                "engine is closed (its executor pools are shut down); build a "
                "new engine, or recover a durable session with "
                "repro.engine.durable.restore_engine"
            )
        if self._epoch_active:
            raise RuntimeError(
                "epoch() re-entered while an epoch is still running: the "
                "engine is single-threaded — serialise epochs behind a lock "
                "(repro.serve.scheduler.EngineDriver shows how)"
            )
        self._epoch_active = True
        try:
            return self._run_epoch(now, pinned, forbidden)
        finally:
            self._epoch_active = False

    def _run_epoch(
        self,
        now: float,
        pinned: Optional[Dict[int, List[WorkerProfile]]],
        forbidden: Optional[Set[Tuple[int, int]]],
    ) -> EpochResult:
        """The epoch body; see :meth:`epoch` (which guards re-entry)."""
        started = time.perf_counter()
        self._clock = now
        # The whole epoch logs as one marker (replay re-runs it, re-deriving
        # the internal expiry and re-anchor churn), so the RNG position is
        # captured *before* the solve consumes draws and inner logging is
        # suppressed.  ``None`` when no log is attached or when this epoch is
        # itself a replay of an already-logged marker.
        rng_position = (
            dur.rng_spec(self.rng)
            if self.durable is not None and not self._durable_suppress
            else None
        )
        self._durable_suppress += 1
        try:
            hits_before = self.grid.stats["pair_cache_hits"]
            misses_before = self.grid.stats["pair_cache_misses"]
            expired = self.expire_tasks(now)
            if self.reanchor_on_epoch:
                self._reanchor_workers(now)
            self._bind_solve_executor()
            mode = self._choose_mode()
            problem, virtual_ids = self.build_problem(pinned, forbidden)
            warm = self._warm_solver() if self.solve_mode == "warm" else None
            solve_started = time.perf_counter()
            # One signature pass per warm-capable epoch, inside the solve
            # timer (it is genuine warm-mode work): shared between the warm
            # solver's dirty diff and the plan stored for the next epoch.
            signatures = (
                candidate_signatures(problem, frozenset(virtual_ids))
                if warm is not None
                else None
            )
            # Solver-side scoring phases (prune / Δmin_R / ΔE[STD]) time
            # into this engine's profiler while the solve runs.
            with activated(self.profiler):
                if mode == "warm":
                    assert warm is not None and self._plan is not None
                    log_weights = (
                        self._warm_log_weights(problem, virtual_ids)
                        if isinstance(warm, WarmStartGreedySolver)
                        else None
                    )
                    result = warm.warm_solve(
                        problem,
                        self._plan,
                        forced_dirty=frozenset(self._delta.touched_workers()),
                        rng=self.rng,
                        log_weights=log_weights,
                        signatures=signatures,
                    )
                else:
                    result = self.solver.solve(problem, rng=self.rng)
            solve_seconds = time.perf_counter() - solve_started
            dispatch: Dict[int, int] = {}
            live = Assignment()
            for task_id, worker_id in result.assignment.pairs():
                if worker_id not in virtual_ids:
                    dispatch[worker_id] = task_id
                    live.assign(task_id, worker_id)
            self._assignment = live
            if warm is not None:
                assert signatures is not None
                self._plan = PreviousPlan(
                    assignment=live.copy(),
                    signatures=signatures,
                    population=problem.num_tasks
                    + problem.num_workers
                    - len(virtual_ids),
                )
            self._delta.clear()
            record = EpochRecord(
                now=now,
                num_tasks=problem.num_tasks,
                num_workers=problem.num_workers,
                num_pairs=problem.num_pairs,
                expired=len(expired),
                cache_hits=self.grid.stats["pair_cache_hits"] - hits_before,
                cache_misses=self.grid.stats["pair_cache_misses"] - misses_before,
                objective=result.objective,
                seconds=time.perf_counter() - started,
                mode=mode,
                phases=self.profiler.take(),
            )
            self.metrics.record_epoch(record, solve_seconds)
        finally:
            self._durable_suppress -= 1
        if rng_position is not None:
            assert self.durable is not None
            # Accrues to the *next* epoch's phase snapshot (this epoch's
            # record is already frozen), like all inter-epoch WAL work.
            with self.profiler.phase("wal_append"):
                self.durable.append_events(
                    [
                        (
                            "epoch",
                            now,
                            {
                                "now": now,
                                "pinned": dur.encode_pinned(pinned),
                                "forbidden": dur.encode_forbidden(forbidden),
                                "rng": rng_position,
                                # Analytics extras (replay ignores them):
                                # what this epoch decided.
                                "mode": mode,
                                "objective": [
                                    result.objective.min_reliability,
                                    result.objective.total_std,
                                ],
                                "dispatch": sorted(
                                    [w, t] for w, t in dispatch.items()
                                ),
                            },
                        )
                    ]
                )
            self._epochs_since_snapshot += 1
            if self._epochs_since_snapshot >= self._durable_snapshot_every:
                self._write_durable_snapshot()
        return EpochResult(
            now=now,
            objective=result.objective,
            assignment=result.assignment.copy(),
            dispatch=dispatch,
            num_tasks=problem.num_tasks,
            num_workers=problem.num_workers,
            num_pairs=problem.num_pairs,
            expired=tuple(expired),
            mode=mode,
        )

    def evaluate_current(self) -> ObjectiveValue:
        """Objective of the live assignment against the current state."""
        problem = self.current_problem()
        live = Assignment()
        for task_id, worker_id in self._assignment.pairs():
            if problem.is_valid_pair(task_id, worker_id):
                live.assign(task_id, worker_id)
        return evaluate_assignment(problem, live)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> "EngineSnapshot":
        """An immutable copy of the full solver-relevant live state.

        Beyond the reporting triple (tasks, workers, assignment) the
        snapshot captures everything a restore needs for bit-identical
        replay: the hold set, the previous epoch's
        :class:`~repro.solvers.incremental.PreviousPlan`, the pending
        inter-epoch delta, the solve mode, the replay-deterministic
        metrics counters, and the RNG position (``None`` only for a
        nondeterministic ``rng=None`` engine, which cannot be durably
        replayed).  ``repro.engine.durable`` serialises exactly this.
        """
        plan = self._plan
        if plan is not None:
            plan = PreviousPlan(
                assignment=plan.assignment.copy(),
                signatures=dict(plan.signatures),
                population=plan.population,
            )
        delta = EpochDelta()
        for name in dur._DELTA_SETS:
            getattr(delta, name).update(getattr(self._delta, name))
        return EngineSnapshot(
            tasks=tuple(self._tasks.values()),
            workers=tuple(self._workers.values()),
            assignment=self._assignment.copy(),
            held=frozenset(self._held),
            plan=plan,
            delta=delta,
            solve_mode=self.solve_mode,
            rng_state=None if self.rng is None else dur.rng_spec(self.rng),
            metrics=self.metrics.counters(),
            clock=self._clock,
            topology=self._topology_snapshot(),
        )

    def _topology_snapshot(self) -> Optional[dict]:
        """Shard-ownership payload for snapshots; elastic engines override."""
        return None


@dataclass(frozen=True)
class EngineSnapshot:
    """Point-in-time view of an engine's live state.

    The first three fields are the PR-3-era reporting view; the rest
    (defaulted, so handmade snapshots keep working) carry the durable
    subsystem's full solver-relevant state — see
    :meth:`AssignmentEngine.snapshot` and :mod:`repro.engine.durable`.
    """

    tasks: Tuple[SpatialTask, ...]
    workers: Tuple[MovingWorker, ...]
    assignment: Assignment
    held: frozenset = frozenset()
    plan: Optional[PreviousPlan] = None
    delta: Optional[EpochDelta] = None
    solve_mode: str = "full"
    rng_state: Optional[dict] = None
    metrics: Optional[dict] = None
    clock: float = 0.0
    #: Elastic shard-ownership table (:meth:`repro.engine.sharding.
    #: ShardMap.topology`); ``None`` for non-elastic engines.
    topology: Optional[dict] = None

    @property
    def num_tasks(self) -> int:
        """Number of tasks captured in the snapshot."""
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        """Number of workers captured in the snapshot."""
        return len(self.workers)
