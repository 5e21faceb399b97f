"""The clocked platform simulation (Section 8.4 / Figure 18).

The deployment being simulated: ``n_sites`` task sites a couple of walking
minutes apart, ``n_workers`` workers with peer-rating-derived
reliabilities, tasks with 15-minute windows spawning at the sites, and the
Figure 10 incremental updating strategy re-planning every ``t_interval``
minutes with a pluggable RDB-SC solver.

The simulator owns only the *physics*: trips, answer attempts (succeeding
with probability equal to the worker's true confidence), reputation
updates, and the Figure 18 metrics log.  All assignment state lives in an
:class:`repro.engine.engine.AssignmentEngine`: task spawns and trip
completions are emitted as typed engine events through one time-ordered
:class:`repro.engine.scheduler.EventQueue`, and every re-planning instant
is an engine epoch with the committed contributions pinned in (``A`` /
``S_c`` of Figure 10's line 6) and already-issued (worker, task) pairs
forbidden.  A dispatched worker is *held* in place rather than removed —
solver-invisible while travelling, released with one in-place update at
the task site when the trip completes — so dispatch causes no index
churn and warm-mode epochs keep their plan.  Between update instants nothing re-plans: travelling workers
finish their trips and wait at the site until the next epoch makes them
available again.  The Figure 18 metrics — minimum reliability and total
expected STD over tasks that received workers — are computed from the
dispatched workers' profiles, matching the assignment-based metrics used in
every other experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.algorithms.base import RngLike, Solver, make_rng
from repro.core.diversity import WorkerProfile, approach_angle
from repro.core.reliability import log_to_reliability
from repro.core.expected import expected_std
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.engine.engine import AssignmentEngine
from repro.engine.events import EpochTick, TaskArrive, WorkerUpdate
from repro.engine.metrics import EngineMetrics
from repro.engine.scheduler import EventQueue, epoch_ticks
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.platform_sim.events import Answer, TaskRecord
from repro.platform_sim.ratings import bootstrap_reliabilities


@dataclass(frozen=True)
class PlatformConfig:
    """Deployment parameters (defaults mirror the paper's Section 8.1 setup).

    Attributes:
        n_workers: platform users (paper: 10 hired active users).
        n_sites: task sites (paper: 5 nearby sites).
        sim_minutes: experiment length.
        t_interval: minutes between incremental updates (Figure 18's x-axis).
        task_open_minutes: task window length (paper: 15 minutes).
        task_spawn_every: per-site spawn period for new tasks.
        site_radius: circumradius of the regular site polygon, in unit-square
            units; with ``walk_minutes_between_sites`` it fixes worker speed
            so adjacent sites are about two minutes apart, as in the paper.
        walk_minutes_between_sites: walking time between adjacent sites.
        answer_minutes: time spent producing the answer after arrival.
        beta: spatial/temporal weight of the platform's tasks.
        learn_reputations: when true, worker confidences are re-estimated
            online from answer outcomes with a Beta-Bernoulli reputation
            (the paper's "accuracy control" future work); planning then
            uses the learned confidences instead of the static bootstrap.
    """

    n_workers: int = 10
    n_sites: int = 5
    sim_minutes: float = 60.0
    t_interval: float = 1.0
    task_open_minutes: float = 15.0
    task_spawn_every: float = 7.5
    site_radius: float = 0.12
    walk_minutes_between_sites: float = 2.0
    answer_minutes: float = 0.5
    beta: float = 0.5
    learn_reputations: bool = False

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.n_sites < 1:
            raise ValueError("need at least one worker and one site")
        if self.t_interval <= 0.0 or self.sim_minutes <= 0.0:
            raise ValueError("t_interval and sim_minutes must be positive")
        if self.task_open_minutes <= 0.0 or self.task_spawn_every <= 0.0:
            raise ValueError("task timing parameters must be positive")

    def site_locations(self) -> List[Point]:
        """The sites: a regular polygon around the square centre."""
        sites: List[Point] = []
        for k in range(self.n_sites):
            angle = 2.0 * math.pi * k / self.n_sites
            sites.append(
                Point(
                    0.5 + self.site_radius * math.cos(angle),
                    0.5 + self.site_radius * math.sin(angle),
                )
            )
        return sites

    def worker_speed(self) -> float:
        """Speed making adjacent sites ``walk_minutes_between_sites`` apart."""
        if self.n_sites == 1:
            return self.site_radius / max(self.walk_minutes_between_sites, 1e-9)
        edge = 2.0 * self.site_radius * math.sin(math.pi / self.n_sites)
        return edge / self.walk_minutes_between_sites


@dataclass
class PlatformRunResult:
    """Outcome of one simulated deployment.

    ``min_reliability`` / ``total_std`` are the Figure 18 series; the rest
    are behavioural counters for tests and reporting.
    """

    min_reliability: float
    total_std: float
    tasks_spawned: int
    tasks_dispatched: int
    tasks_answered: int
    dispatches: int
    answers: List[Answer] = field(default_factory=list)
    #: The engine's lifetime counters and per-epoch records for the run
    #: (event counts, pair-cache hit rate, epoch costs).
    engine_metrics: Optional[EngineMetrics] = None

    @property
    def success_rate(self) -> float:
        """Fraction of answer attempts that succeeded."""
        if not self.answers:
            return 0.0
        return sum(1 for a in self.answers if a.success) / len(self.answers)


class PlatformSimulator:
    """Runs one deployment under a given solver and update interval.

    Args:
        config: deployment parameters.
        backend: forwarded to the :class:`AssignmentEngine` that owns the
            assignment state — ``"python"`` or ``"numpy"`` dirty-pair
            probing; identical dispatches either way.
        solve_mode: forwarded to the engine — ``"warm"`` repairs the
            previous epoch's plan during quiet update instants (see
            :mod:`repro.solvers.incremental`).  Dispatches *hold* workers
            in place (no index churn) and trip completions are in-place
            updates, so the per-epoch churn is just the holds, releases
            and re-anchored idle workers — small enough that warm mode
            genuinely engages on deployment workloads.
        warm_churn_threshold: churn fraction above which a warm-mode
            epoch falls back to a full solve.
        solve_executor: forwarded to the engine — fan each re-planning
            instant's SAMPLING solve out (``None``, a pinned-process count,
            or a :class:`repro.engine.parallel.ParallelSolveExecutor`);
            other solvers solve inline.  Dispatches are bit-identical to
            the serial simulator.  An
            executor *instance* is shared across :meth:`run` calls and
            closed by the caller; a process count builds one per run,
            closed when the run finishes.
        durable_path: forwarded to the engine — the run's churn events,
            epoch markers (with pinned contributions and forbidden pairs)
            and snapshots go to this SQLite write-ahead log
            (:mod:`repro.engine.durable`), so a crashed deployment's
            assignment state is recoverable and the dispatch history is
            queryable without re-simulating.  One log holds one session:
            a second :meth:`run` against the same path raises.  Note the
            simulator draws answer outcomes from the *same* generator the
            engine solves with, so a recovered engine replays the logged
            history bit-exactly but epochs beyond it may diverge from a
            never-crashed run (the outside draws are not in the log).
    """

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        backend: str = "python",
        solve_mode: str = "full",
        warm_churn_threshold: float = 0.25,
        solve_executor=None,
        durable_path=None,
    ) -> None:
        self.config = config if config is not None else PlatformConfig()
        self.backend = backend
        self.solve_mode = solve_mode
        self.warm_churn_threshold = warm_churn_threshold
        self.solve_executor = solve_executor
        self.durable_path = durable_path
        #: Early arrivals wait at the site until the window opens, as human
        #: workers on the real platform do.
        self.validity = ValidityRule(allow_waiting=True)

    # ------------------------------------------------------------------ #

    def _spawn_schedule(self) -> List[SpatialTask]:
        """All tasks of the run, in spawn order."""
        config = self.config
        sites = config.site_locations()
        tasks: List[SpatialTask] = []
        task_id = 0
        for site_index, site in enumerate(sites):
            # Stagger sites so updates always see a mix of fresh and aging
            # tasks, like a live deployment.
            offset = (site_index / config.n_sites) * config.task_spawn_every
            spawn = offset
            while spawn < config.sim_minutes:
                tasks.append(
                    SpatialTask(
                        task_id=task_id,
                        location=site,
                        start=spawn,
                        end=spawn + config.task_open_minutes,
                        beta=config.beta,
                    )
                )
                task_id += 1
                spawn += config.task_spawn_every
        tasks.sort(key=lambda t: (t.start, t.task_id))
        return tasks

    def _initial_workers(self, rng) -> List[MovingWorker]:
        config = self.config
        speed = config.worker_speed()
        reliabilities = bootstrap_reliabilities(config.n_workers, rng)
        workers: List[MovingWorker] = []
        for worker_id in range(config.n_workers):
            location = Point(
                0.5 + float(rng.uniform(-2.0, 2.0)) * config.site_radius,
                0.5 + float(rng.uniform(-2.0, 2.0)) * config.site_radius,
            )
            workers.append(
                MovingWorker(
                    worker_id=worker_id,
                    location=location,
                    velocity=speed,
                    cone=AngleInterval.full_circle(),
                    confidence=reliabilities[worker_id],
                    depart_time=0.0,
                )
            )
        return workers

    # ------------------------------------------------------------------ #

    def run(self, solver: Solver, rng: RngLike = None) -> PlatformRunResult:
        """Simulate one deployment with the given solver.

        The whole run flows through one :class:`EventQueue`: the spawn
        schedule and the epoch clock are pushed up front, worker
        re-arrivals are pushed as trips complete, and the engine applies
        them in time order.  Re-planning is ``engine.epoch(now, pinned,
        forbidden)`` — the simulator holds no assignment state of its own.
        """
        generator = make_rng(rng)
        engine = AssignmentEngine(
            solver=solver,
            validity=self.validity,
            rng=generator,
            backend=self.backend,
            reanchor_on_epoch=True,
            solve_mode=self.solve_mode,
            warm_churn_threshold=self.warm_churn_threshold,
            solve_executor=self.solve_executor,
            durable_path=self.durable_path,
        )
        try:
            return self._run_with_engine(engine, generator)
        finally:
            # Release an engine-owned solve executor even when the solver
            # (or an unexpected event) raises mid-run.
            engine.close()

    def _run_with_engine(self, engine: AssignmentEngine, generator) -> PlatformRunResult:
        """The simulation loop proper, once the engine exists."""
        config = self.config
        queue = EventQueue()
        for task in self._spawn_schedule():
            queue.push(TaskArrive(time=task.start, task=task))
        ticks = epoch_ticks(config.t_interval, config.sim_minutes)
        for tick in ticks:
            queue.push(tick)
        horizon = ticks[-1].time

        records: Dict[int, TaskRecord] = {}
        answers: List[Answer] = []
        dispatches = 0
        #: A user is never pushed the same question twice.
        issued: Set[Tuple[int, int]] = set()
        #: In-flight trips: worker id -> (task id, planned arrival, the
        #: dispatched worker record).  Success draws use the *true*
        #: (bootstrap) confidence even when planning runs on learned ones.
        in_flight: Dict[int, Tuple[int, float, MovingWorker]] = {}
        true_confidence: Dict[int, float] = {}

        tracker = None
        if config.learn_reputations:
            from repro.platform_sim.reputation import ReputationTracker

            tracker = ReputationTracker()

        initial = self._initial_workers(generator)
        for worker in initial:
            true_confidence[worker.worker_id] = worker.confidence
            engine.add_worker(worker)
        if tracker is not None:
            tracker.seed_workers(initial)

        while queue and queue.next_time <= horizon + 1e-9:
            event = queue.pop()
            if isinstance(event, TaskArrive):
                records[event.task.task_id] = TaskRecord(event.task)
                engine.apply(event)
                continue
            if isinstance(event, WorkerUpdate):
                # A trip completing: attempt the answer, then release the
                # held worker with an in-place update to the task's site —
                # no remove + re-add churn, so warm mode keeps its plan.
                worker = event.worker
                task_id, arrival, dispatched = in_flight.pop(worker.worker_id)
                record = records[task_id]
                attempt_time = max(arrival, record.task.start)
                success = bool(
                    generator.uniform() < true_confidence[worker.worker_id]
                ) and attempt_time <= record.task.end
                answer = Answer(
                    worker_id=worker.worker_id,
                    task_id=task_id,
                    angle=approach_angle(record.task, dispatched),
                    time=attempt_time,
                    success=success,
                )
                record.answers.append(answer)
                answers.append(answer)
                if tracker is not None:
                    tracker.observe(worker.worker_id, success)
                engine.release_worker(worker.worker_id)
                engine.apply(event)
                continue
            if not isinstance(event, EpochTick):  # pragma: no cover
                raise TypeError(f"unexpected event {type(event).__name__}")

            now = event.time
            # Planning confidences: refresh learned reputations in place
            # (an O(1) same-cell update per changed worker).
            if tracker is not None:
                for worker in list(engine.workers.values()):
                    if worker.worker_id in engine.held_workers:
                        continue  # in flight: refreshed on release instead
                    refreshed = tracker.refreshed_worker(worker)
                    if refreshed.confidence != worker.confidence:
                        engine.update_worker(refreshed)

            # Committed contributions still relevant: the engine pins them
            # as degree-one virtual workers (and drops entries whose task
            # has expired out of its live set).
            pinned: Dict[int, List[WorkerProfile]] = {
                rec.task.task_id: list(rec.dispatched_profiles)
                for rec in records.values()
                if rec.dispatched_profiles
            }
            result = engine.epoch(now, pinned=pinned, forbidden=issued)

            # Dispatch the chosen workers: held in place (solver-invisible,
            # zero index churn) until their trip completes.
            for worker_id, task_id in sorted(result.dispatch.items()):
                record = records[task_id]
                worker_now = engine.workers[worker_id]
                arrival = self.validity.effective_arrival(worker_now, record.task)
                if arrival is None:
                    continue  # defensive: solver honoured precomputed pairs
                engine.hold_worker(worker_id)
                issued.add((worker_id, task_id))
                record.dispatched_worker_ids.append(worker_id)
                record.dispatched_profiles.append(
                    WorkerProfile(
                        worker_id,
                        approach_angle(record.task, worker_now),
                        arrival,
                        true_confidence[worker_id],
                    )
                )
                dispatches += 1
                in_flight[worker_id] = (task_id, arrival, worker_now)
                queue.push(
                    WorkerUpdate(
                        time=arrival,
                        worker=worker_now.moved_to(
                            record.task.location,
                            arrival + config.answer_minutes,
                        ),
                    )
                )

        return self._final_metrics(records, answers, dispatches, engine.metrics)

    # ------------------------------------------------------------------ #

    def _final_metrics(
        self,
        records: Dict[int, TaskRecord],
        answers: List[Answer],
        dispatches: int,
        engine_metrics: Optional[EngineMetrics] = None,
    ) -> PlatformRunResult:
        min_r = math.inf
        total_std = 0.0
        dispatched_tasks = 0
        for record in records.values():
            profiles = record.dispatched_profiles
            if not profiles:
                continue
            dispatched_tasks += 1
            r_value = 0.0
            for profile in profiles:
                if profile.confidence >= 1.0:
                    r_value = math.inf
                    break
                r_value += -math.log(1.0 - profile.confidence)
            min_r = min(min_r, r_value)
            total_std += expected_std(record.task, profiles)
        min_rel = 0.0 if math.isinf(min_r) and dispatched_tasks == 0 else (
            1.0 if math.isinf(min_r) else log_to_reliability(min_r)
        )
        if dispatched_tasks == 0:
            min_rel = 0.0
        return PlatformRunResult(
            min_reliability=min_rel,
            total_std=total_std,
            tasks_spawned=len(records),
            tasks_dispatched=dispatched_tasks,
            tasks_answered=sum(1 for r in records.values() if r.is_answered),
            dispatches=dispatches,
            answers=answers,
            engine_metrics=engine_metrics,
        )
