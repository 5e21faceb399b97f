"""Timed workload streams for the dynamic RDB-SC scenario.

The paper's setting is explicitly dynamic: "the newly created tasks keep on
arriving", "workers can freely register or leave".  This module generates
that churn as an *event stream* — Poisson task arrivals, Poisson worker
arrivals, exponentially distributed worker dwell times — and replays it
against a :class:`repro.engine.AssignmentEngine` with periodic
re-assignment, the library-level analogue of the platform experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.algorithms.base import RngLike, make_rng
from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.datagen.config import ExperimentConfig
from repro.datagen.synthetic import generate_tasks, generate_workers
from repro.engine.scheduler import epoch_ticks

#: Event kinds.
TASK_ARRIVAL = "task_arrival"
WORKER_ARRIVAL = "worker_arrival"
WORKER_DEPARTURE = "worker_departure"


@dataclass(frozen=True)
class StreamEvent:
    """One timed change to the system's population.

    Exactly one of ``task`` / ``worker`` / ``worker_id`` is set, matching
    ``kind``.
    """

    time: float
    kind: str
    task: Optional[SpatialTask] = None
    worker: Optional[MovingWorker] = None
    worker_id: Optional[int] = None


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of the churn process.

    Attributes:
        horizon: stream length in hours.
        task_rate: Poisson task arrivals per hour.
        worker_rate: Poisson worker arrivals per hour.
        initial_workers: workers present at time zero.
        mean_dwell: mean worker stay (exponential), in hours.
        base: attribute distributions (locations, speeds, cones, windows)
            for the arriving entities.
    """

    horizon: float = 8.0
    task_rate: float = 6.0
    worker_rate: float = 3.0
    initial_workers: int = 10
    mean_dwell: float = 3.0
    base: ExperimentConfig = field(
        default_factory=lambda: ExperimentConfig.scaled_defaults(
            num_tasks=1, num_workers=1
        )
    )

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.task_rate < 0.0 or self.worker_rate < 0.0:
            raise ValueError("rates must be non-negative")
        if self.initial_workers < 0:
            raise ValueError("initial_workers must be non-negative")
        if self.mean_dwell <= 0.0:
            raise ValueError("mean_dwell must be positive")


def _poisson_times(rate: float, horizon: float, rng) -> List[float]:
    """Arrival instants of a homogeneous Poisson process on [0, horizon)."""
    if rate <= 0.0:
        return []
    times: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            return times
        times.append(t)


def generate_event_stream(
    config: Optional[StreamConfig] = None, rng: RngLike = None
) -> List[StreamEvent]:
    """A full, time-sorted churn stream.

    Task windows open at their arrival instant (a requester posts a task
    that is live immediately); worker cones/speeds/confidences follow the
    base config; each worker departs after an exponential dwell unless the
    horizon ends first.  Ids are unique across the stream.
    """
    config = config if config is not None else StreamConfig()
    generator = make_rng(rng)
    events: List[StreamEvent] = []

    task_times = _poisson_times(config.task_rate, config.horizon, generator)
    if task_times:
        task_config = config.base.with_updates(num_tasks=len(task_times))
        tasks = generate_tasks(task_config, generator)
        for arrival, template in zip(task_times, tasks):
            duration = template.end - template.start
            events.append(
                StreamEvent(
                    time=arrival,
                    kind=TASK_ARRIVAL,
                    task=template.with_period(arrival, arrival + duration),
                )
            )

    worker_arrivals = [0.0] * config.initial_workers
    worker_arrivals += _poisson_times(config.worker_rate, config.horizon, generator)
    if worker_arrivals:
        worker_config = config.base.with_updates(num_workers=len(worker_arrivals))
        workers = generate_workers(worker_config, generator)
        for arrival, template in zip(worker_arrivals, workers):
            worker = template.moved_to(template.location, arrival)
            events.append(
                StreamEvent(time=arrival, kind=WORKER_ARRIVAL, worker=worker)
            )
            departure = arrival + float(generator.exponential(config.mean_dwell))
            if departure < config.horizon:
                events.append(
                    StreamEvent(
                        time=departure,
                        kind=WORKER_DEPARTURE,
                        worker_id=worker.worker_id,
                    )
                )

    events.sort(key=lambda e: (e.time, e.kind))
    return events


def replay_stream(
    engine,
    events: Sequence[StreamEvent],
    reassign_every: float = 1.0,
    horizon: Optional[float] = None,
):
    """Drive a :class:`repro.engine.AssignmentEngine` with a stream.

    Processes events in time order and calls ``engine.epoch`` at every
    tick of :func:`repro.engine.scheduler.epoch_ticks` (``k *
    reassign_every``, so an event stamped exactly on a tick is applied in
    that tick's epoch); returns the list of
    :class:`repro.engine.EpochResult`.

    Raises:
        ValueError: for a non-positive period.
    """
    if reassign_every <= 0.0:
        raise ValueError("reassign_every must be positive")
    end = horizon if horizon is not None else (
        max((e.time for e in events), default=0.0) + reassign_every
    )
    results = []
    index = 0
    for tick in epoch_ticks(reassign_every, end):
        while index < len(events) and events[index].time <= tick.time:
            event = events[index]
            index += 1
            if event.kind == TASK_ARRIVAL:
                engine.add_task(event.task)
            elif event.kind == WORKER_ARRIVAL:
                engine.add_worker(event.worker)
            elif event.kind == WORKER_DEPARTURE:
                # The worker may have been removed already (defensive).
                try:
                    engine.remove_worker(event.worker_id)
                except KeyError:
                    pass
            else:  # pragma: no cover - stream generator emits known kinds
                raise ValueError(f"unknown event kind {event.kind!r}")
        results.append(engine.epoch(tick.time))
    return results
