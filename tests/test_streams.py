"""Tests for timed workload streams and their engine replay."""

import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.datagen.streams import (
    TASK_ARRIVAL,
    WORKER_ARRIVAL,
    WORKER_DEPARTURE,
    StreamConfig,
    StreamEvent,
    generate_event_stream,
    replay_stream,
)
from repro.engine import AssignmentEngine
from tests.conftest import make_task


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(horizon=0.0)
        with pytest.raises(ValueError):
            StreamConfig(task_rate=-1.0)
        with pytest.raises(ValueError):
            StreamConfig(initial_workers=-1)
        with pytest.raises(ValueError):
            StreamConfig(mean_dwell=0.0)


class TestGenerateEventStream:
    def test_sorted_by_time(self):
        events = generate_event_stream(StreamConfig(horizon=5.0), rng=1)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_events_within_horizon(self):
        config = StreamConfig(horizon=4.0)
        for event in generate_event_stream(config, rng=2):
            assert 0.0 <= event.time < config.horizon

    def test_initial_workers_at_time_zero(self):
        config = StreamConfig(initial_workers=5, worker_rate=0.0, task_rate=0.0)
        events = generate_event_stream(config, rng=3)
        arrivals = [e for e in events if e.kind == WORKER_ARRIVAL]
        assert len(arrivals) == 5
        assert all(e.time == 0.0 for e in arrivals)

    def test_departures_follow_arrivals(self):
        events = generate_event_stream(StreamConfig(horizon=6.0), rng=4)
        arrival_time = {}
        for event in events:
            if event.kind == WORKER_ARRIVAL:
                arrival_time[event.worker.worker_id] = event.time
            elif event.kind == WORKER_DEPARTURE:
                assert event.worker_id in arrival_time
                assert event.time > arrival_time[event.worker_id]

    def test_task_windows_open_at_arrival(self):
        events = generate_event_stream(StreamConfig(horizon=6.0), rng=5)
        for event in events:
            if event.kind == TASK_ARRIVAL:
                assert event.task.start == pytest.approx(event.time)
                assert event.task.end > event.task.start

    def test_unique_ids(self):
        events = generate_event_stream(StreamConfig(horizon=8.0), rng=6)
        task_ids = [e.task.task_id for e in events if e.kind == TASK_ARRIVAL]
        worker_ids = [e.worker.worker_id for e in events if e.kind == WORKER_ARRIVAL]
        assert len(task_ids) == len(set(task_ids))
        assert len(worker_ids) == len(set(worker_ids))

    def test_deterministic(self):
        a = generate_event_stream(StreamConfig(horizon=5.0), rng=7)
        b = generate_event_stream(StreamConfig(horizon=5.0), rng=7)
        assert [(e.time, e.kind) for e in a] == [(e.time, e.kind) for e in b]

    def test_zero_rates_yield_only_initial_workers(self):
        config = StreamConfig(
            horizon=5.0, task_rate=0.0, worker_rate=0.0, initial_workers=3
        )
        events = generate_event_stream(config, rng=8)
        assert all(e.kind in (WORKER_ARRIVAL, WORKER_DEPARTURE) for e in events)


class TestReplayStream:
    def test_replay_produces_outcomes(self):
        config = StreamConfig(horizon=3.0, task_rate=5.0, initial_workers=6)
        events = generate_event_stream(config, rng=9)
        engine = AssignmentEngine(solver=SamplingSolver(num_samples=10), rng=9)
        outcomes = replay_stream(engine, events, reassign_every=1.0, horizon=3.0)
        assert len(outcomes) == 4  # t = 0, 1, 2, 3
        assert [o.now for o in outcomes] == [0.0, 1.0, 2.0, 3.0]
        assert engine.metrics.epochs == 4

    def test_population_tracks_events(self):
        config = StreamConfig(
            horizon=2.0, task_rate=4.0, worker_rate=0.0, initial_workers=4,
            mean_dwell=100.0,
        )
        events = generate_event_stream(config, rng=10)
        engine = AssignmentEngine(solver=GreedySolver(), rng=10)
        outcomes = replay_stream(engine, events, reassign_every=1.0, horizon=2.0)
        # No departures (huge dwell), so worker count is constant.
        assert all(o.num_workers == 4 for o in outcomes)
        # Task count is cumulative arrivals minus expiries; final count
        # must match the engine's live view.
        assert outcomes[-1].num_tasks == engine.num_tasks

    def test_invalid_period(self):
        engine = AssignmentEngine()
        with pytest.raises(ValueError):
            replay_stream(engine, [], reassign_every=0.0)

    def test_departure_of_unknown_worker_tolerated(self):
        engine = AssignmentEngine()
        events = [StreamEvent(time=0.5, kind=WORKER_DEPARTURE, worker_id=99)]
        outcomes = replay_stream(engine, events, reassign_every=1.0, horizon=1.0)
        assert len(outcomes) == 2

    def test_event_on_a_tick_lands_in_that_epoch(self):
        # An accumulated ``now += 0.1`` clock reaches 0.7999999999999999 at
        # the ninth tick, so an event stamped 0.8 would land one epoch late.
        stamps = [k * 0.1 for k in range(11)]
        events = [
            StreamEvent(
                time=stamp,
                kind=TASK_ARRIVAL,
                task=make_task(k, start=stamp, end=stamp + 5.0),
            )
            for k, stamp in enumerate(stamps)
        ]
        engine = AssignmentEngine(solver=GreedySolver(), rng=1)
        outcomes = replay_stream(engine, events, reassign_every=0.1, horizon=1.0)
        assert [o.now for o in outcomes] == stamps
        # Task k is live from the epoch at its own stamp on.
        assert [o.num_tasks for o in outcomes] == list(range(1, 12))
