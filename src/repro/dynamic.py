"""An online RDB-SC session: dynamic churn + periodic re-assignment.

The paper's Section 7.2 maintains workers and tasks in the grid index as
they "freely register or leave the crowdsourcing system", and Figure 10
periodically re-assigns whoever is available.  :class:`CrowdsourcingSession`
packages that operating loop as a library API; since PR 2 it is a thin
façade over :class:`repro.engine.engine.AssignmentEngine`, which keeps the
grid index's persistent valid-pair cache and the slot-stable packed arrays
current *per churn event* — so a ``reassign`` after a small delta re-probes
only the dirty cell pairs instead of re-scanning all ``O(m * n)``
combinations:

* ``add_task`` / ``remove_task`` / ``add_worker`` / ``remove_worker`` /
  ``update_worker`` keep index + arrays current (O(1)-ish per Section 7.2;
  a same-cell ``update_worker`` is a genuine O(1) in-place swap),
* ``expire_tasks(now)`` retires tasks whose window closed (inclusive
  deadline — see :meth:`repro.core.task.SpatialTask.expired_at`),
* ``reassign(now)`` builds the current sub-instance *through the engine*
  and runs the configured solver, remembering the live assignment,
* ``stats`` counts maintenance and assignment work for capacity planning
  (``session.engine.metrics`` has the finer-grained epoch records).

Typical use::

    session = CrowdsourcingSession(solver=SamplingSolver(num_samples=40))
    session.add_worker(worker)
    session.add_task(task)
    outcome = session.reassign(now=0.0)
    print(outcome.objective, session.assignment_of(worker.worker_id))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.algorithms.base import RngLike, Solver
from repro.core.assignment import Assignment
from repro.core.objectives import ObjectiveValue
from repro.core.problem import RdbscProblem
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.engine.engine import AssignmentEngine
from repro.index.grid import RdbscGrid


@dataclass
class SessionStats:
    """Operation counters for one session."""

    tasks_added: int = 0
    tasks_removed: int = 0
    tasks_expired: int = 0
    workers_added: int = 0
    workers_removed: int = 0
    workers_updated: int = 0
    reassignments: int = 0
    pairs_retrieved: int = 0


@dataclass(frozen=True)
class ReassignmentOutcome:
    """Result of one ``reassign`` call."""

    objective: ObjectiveValue
    assignment: Assignment
    num_tasks: int
    num_workers: int
    num_pairs: int


class CrowdsourcingSession:
    """A live RDB-SC system: engine-maintained state + periodic solving.

    Args:
        solver: the assignment algorithm run on each ``reassign``.
        eta: grid cell side; pick via :func:`repro.index.cost_model.optimal_eta`
            for your expected reach, or keep the default mid-grain cell.
        validity: pair-validity policy.
        rng: seed/generator forwarded to the solver for reproducibility.
        backend: ``"python"`` or ``"numpy"``; selects how the engine's grid
            index probes dirty candidate cell pairs during ``reassign``
            retrieval (and is forwarded when rebuilding the sub-instance).
            Both backends yield the same pairs and the same assignments.
        solve_mode: ``"full"`` re-solves each ``reassign`` from scratch;
            ``"warm"`` lets quiet intervals repair the previous plan
            through :mod:`repro.solvers.incremental` (GREEDY/SAMPLING
            only; other solvers always solve in full).
        warm_churn_threshold: churn fraction above which a warm-mode
            ``reassign`` falls back to a full solve.
        num_shards: with a value above 1 the session runs on a
            :class:`repro.engine.elastic.ElasticShardedAssignmentEngine`
            on its static tiling (``rebalance=None``) — the grid is
            partitioned into ``num_shards`` cell blocks and each
            ``reassign`` fans the index work out per shard.  Assignments
            are bit-identical to the unsharded session.
        halo: task-replication radius for the sharded engine (``None``
            replicates everywhere — always safe; see
            :meth:`repro.engine.sharding.ShardMap.halo_bound`).
        shard_executor: ``"sequential"`` or ``"process"`` fan-out for the
            sharded engine (ignored with ``num_shards=1``).  With the
            process executor, call ``session.close()`` when done.
        solve_executor: fan each ``reassign``'s SAMPLING solve out over
            pinned processes — ``None`` (serial), a pinned-process count,
            or a :class:`repro.engine.parallel.ParallelSolveExecutor`
            instance; see :class:`repro.engine.engine.AssignmentEngine`.
            Other solvers, GREEDY included, solve inline.  Plans are
            bit-identical to the serial session.  With a process count,
            call ``session.close()`` when done.
        durable_path: crash safety — write every churn event, epoch
            marker and periodic full-state snapshot to this SQLite log
            (:mod:`repro.engine.durable`).  Requires a deterministic
            ``rng``.  Recover a dead session with
            :meth:`CrowdsourcingSession.restore`; re-assignments after
            recovery are bit-identical to the uninterrupted session.
        durable_snapshot_every: reassignments between full snapshots.
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        eta: float = 0.125,
        validity: Optional[ValidityRule] = None,
        rng: RngLike = None,
        backend: str = "python",
        solve_mode: str = "full",
        warm_churn_threshold: float = 0.25,
        num_shards: int = 1,
        halo: Optional[float] = None,
        shard_executor: str = "sequential",
        solve_executor=None,
        durable_path=None,
        durable_snapshot_every: int = 16,
    ) -> None:
        if num_shards > 1:
            from repro.engine.elastic import ElasticShardedAssignmentEngine

            self.engine: AssignmentEngine = ElasticShardedAssignmentEngine(
                solver=solver,
                eta=eta,
                validity=validity,
                rng=rng,
                backend=backend,
                num_shards=num_shards,
                halo=halo,
                executor=shard_executor,
                solve_mode=solve_mode,
                warm_churn_threshold=warm_churn_threshold,
                solve_executor=solve_executor,
                durable_path=durable_path,
                durable_snapshot_every=durable_snapshot_every,
            )
        else:
            self.engine = AssignmentEngine(
                solver=solver,
                eta=eta,
                validity=validity,
                rng=rng,
                backend=backend,
                solve_mode=solve_mode,
                warm_churn_threshold=warm_churn_threshold,
                solve_executor=solve_executor,
                durable_path=durable_path,
                durable_snapshot_every=durable_snapshot_every,
            )
        self.stats = SessionStats()

    @classmethod
    def restore(
        cls,
        durable_path,
        solver: Optional[Solver] = None,
        solve_executor=None,
        shard_executor: Optional[str] = None,
    ) -> "CrowdsourcingSession":
        """Recover a session from its durable log (snapshot + replay).

        The engine class, configuration and shard layout come from the
        log's meta row; ``solver`` must be configured exactly as the
        original (the class name is checked).  The recovered session
        keeps appending to the same log, and its re-assignments are
        bit-identical to those the dead session would have produced.
        ``stats`` counters restart from zero — they are session-object
        bookkeeping; the engine's replay-deterministic
        ``engine.metrics`` counters survive recovery.
        """
        from repro.engine.durable import restore_engine

        session = cls.__new__(cls)
        session.engine = restore_engine(
            durable_path,
            solver=solver,
            solve_executor=solve_executor,
            shard_executor=shard_executor,
        )
        session.stats = SessionStats()
        return session

    def close(self) -> None:
        """Release engine resources (a sharded session's worker pool)."""
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    # -- attribute pass-throughs (the engine owns the state) ------------ #

    @property
    def solver(self) -> Solver:
        return self.engine.solver

    @solver.setter
    def solver(self, solver: Solver) -> None:
        self.engine.solver = solver

    @property
    def validity(self) -> ValidityRule:
        return self.engine.validity

    @property
    def backend(self) -> str:
        return self.engine.backend

    @property
    def rng(self) -> RngLike:
        return self.engine.rng

    @rng.setter
    def rng(self, rng: RngLike) -> None:
        self.engine.rng = rng

    @property
    def grid(self) -> RdbscGrid:
        return self.engine.grid

    @property
    def _tasks(self) -> Dict[int, SpatialTask]:
        return self.engine.tasks

    @property
    def _workers(self) -> Dict[int, MovingWorker]:
        return self.engine.workers

    # ------------------------------------------------------------------ #
    # Churn (Section 7.2)
    # ------------------------------------------------------------------ #

    def add_task(self, task: SpatialTask) -> None:
        """Register a new task.

        Raises:
            ValueError: on duplicate task ids.
        """
        self.engine.add_task(task)
        self.stats.tasks_added += 1

    def remove_task(self, task_id: int) -> SpatialTask:
        """Withdraw a task (completed or cancelled); frees its workers."""
        task = self.engine.withdraw_task(task_id)
        self.stats.tasks_removed += 1
        return task

    def expire_tasks(self, now: float) -> List[int]:
        """Retire every task whose valid period has closed.

        The deadline is inclusive: a task expiring exactly at ``now`` is
        still live (an arrival at ``e_i`` is valid), so it is *not*
        retired — the same boundary the validity rule, the grid's pruning
        and the platform simulator apply.
        """
        expired = self.engine.expire_tasks(now)
        self.stats.tasks_expired += len(expired)
        return expired

    def add_worker(self, worker: MovingWorker) -> None:
        """Register a newly available worker.

        Raises:
            ValueError: on duplicate worker ids.
        """
        self.engine.add_worker(worker)
        self.stats.workers_added += 1

    def remove_worker(self, worker_id: int) -> MovingWorker:
        """Deregister a worker (left the system)."""
        worker = self.engine.remove_worker(worker_id)
        self.stats.workers_removed += 1
        return worker

    def update_worker(self, worker: MovingWorker) -> None:
        """Refresh a worker's position/heading/confidence in place.

        A worker that stays inside its current grid cell costs O(1) — the
        cell record, packed slot row and object dict are overwritten in
        place; only a cross-cell move pays remove + insert.

        Raises:
            KeyError: if the worker is not registered.
        """
        self.engine.update_worker(worker)
        self.stats.workers_updated += 1

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #

    @property
    def num_tasks(self) -> int:
        return self.engine.num_tasks

    @property
    def num_workers(self) -> int:
        return self.engine.num_workers

    def assignment_of(self, worker_id: int) -> Optional[int]:
        """The task a worker is currently assigned to, if any."""
        return self.engine.assignment_of(worker_id)

    def workers_on(self, task_id: int):
        """Ids of workers currently assigned to a task."""
        return self.engine.workers_on(task_id)

    def current_problem(self) -> RdbscProblem:
        """The current sub-instance, with pairs retrieved via the engine."""
        problem = self.engine.current_problem()
        self.stats.pairs_retrieved += problem.num_pairs
        return problem

    # ------------------------------------------------------------------ #
    # Assignment
    # ------------------------------------------------------------------ #

    def reassign(self, now: float = 0.0) -> ReassignmentOutcome:
        """Expire stale tasks, rebuild the instance, run the solver.

        The stored live assignment is replaced wholesale — the paper's
        incremental strategy of honouring in-flight work is the platform
        simulator's job (it pins committed contributions as virtual
        workers via the engine); a bare session re-plans everything still
        pending.
        """
        result = self.engine.epoch(now)
        self.stats.tasks_expired += len(result.expired)
        self.stats.reassignments += 1
        self.stats.pairs_retrieved += result.num_pairs
        return ReassignmentOutcome(
            objective=result.objective,
            assignment=result.assignment,
            num_tasks=result.num_tasks,
            num_workers=result.num_workers,
            num_pairs=result.num_pairs,
        )

    def evaluate_current(self) -> ObjectiveValue:
        """Objective value of the live assignment against current state."""
        return self.engine.evaluate_current()
