"""The service tier, end to end: protocol, batcher, differential, soak.

The load-bearing guarantees under test:

* **Wire transparency** — the same churn trace driven through the TCP
  wire protocol (server-side batcher, thread-offloaded epochs) and
  directly through an :class:`~repro.engine.engine.AssignmentEngine`
  produces bit-identical per-epoch plans *and* bit-identical
  replay-deterministic engine counters, on both backends and at 1 and 4
  shards.
* **Fold soundness** — the batcher's supersede-fold load shed never
  changes the final plan or engine state, proven by property over random
  event interleavings (hypothesis), and the fold never reorders
  non-update events.
* **Restart semantics** — a server SIGKILLed mid-session with
  ``durable_path=`` set resumes via ``python -m repro.serve --resume``
  and the remaining epochs are bit-identical to an uninterrupted run.
* **Soak invariants** — a short open-loop run loses zero events and
  records its latency percentiles (``pytest -m benchsmoke``).
"""

import asyncio
import os
import signal
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import GreedySolver
from repro.engine import events as ev
from repro.engine.engine import AssignmentEngine
from repro.engine.scheduler import EventQueue
from repro.engine.elastic import ElasticShardedAssignmentEngine
from repro.geometry.points import Point
from repro.serve import protocol as proto
from repro.serve.batcher import IngestBatcher, ServeMetrics, fold_trace
from repro.serve.client import ServeClient, ServeError
from repro.serve.loadgen import LoadGenerator, percentile
from repro.serve.scheduler import DeadlineLoop, EngineDriver
from repro.serve.server import SUBSCRIBER_OUTBOX, AssignmentServer, _Connection
from tests.conftest import ScriptedChurn, make_task, make_worker

ETA = 0.125


# ---------------------------------------------------------------------- #
# Trace construction (shared by the differential and restart tests)
# ---------------------------------------------------------------------- #


def make_population(num_tasks=8, num_workers=16, seed=7):
    """The same distribution ``seed_population`` loads, as entity lists."""
    rng = np.random.default_rng(seed)
    tasks = [
        make_task(
            i,
            x=float(rng.uniform()),
            y=float(rng.uniform()),
            end=float(rng.uniform(30.0, 34.0)),
        )
        for i in range(num_tasks)
    ]
    workers = [
        make_worker(
            i,
            x=float(rng.uniform()),
            y=float(rng.uniform()),
            velocity=0.3,
            confidence=0.8,
        )
        for i in range(num_workers)
    ]
    return tasks, workers


class _TraceView(SimpleNamespace):
    """A registry mirror ``ScriptedChurn.events`` generates against."""

    def apply(self, events):
        """Track arrivals/updates so later steps see a consistent view."""
        for event in events:
            if isinstance(event, (ev.WorkerArrive, ev.WorkerUpdate)):
                self.workers[event.worker.worker_id] = event.worker
            elif isinstance(event, ev.TaskArrive):
                self.tasks[event.task.task_id] = event.task


def build_trace(num_steps, churn_seed=42, pop_seed=7):
    """One deterministic trace: population events plus per-step churn.

    Every in-place ``WorkerUpdate`` is preceded by a stale ping of the
    same worker (same position, re-anchored), so the batcher's supersede
    fold actually fires on the wire path — and ``fold_trace`` must shed
    the identical events on the direct path.
    """
    tasks, workers = make_population(seed=pop_seed)
    population = [ev.WorkerArrive(time=0.0, worker=w) for w in workers]
    population += [ev.TaskArrive(time=0.0, task=t) for t in tasks]
    view = _TraceView(
        workers={w.worker_id: w for w in workers},
        tasks={t.task_id: t for t in tasks},
    )
    churn = ScriptedChurn(churn_seed)
    steps = []
    for k in range(num_steps):
        events = []
        for event in churn.events(view, k):
            if isinstance(event, ev.WorkerUpdate):
                stale = view.workers[event.worker.worker_id]
                events.append(
                    ev.WorkerUpdate(
                        time=event.time,
                        worker=stale.moved_to(stale.location, float(k)),
                    )
                )
            events.append(event)
        view.apply(events)
        steps.append(events)
    return population, steps


def build_engine(backend="python", num_shards=1, seed=5):
    """A differential-twin engine (greedy: deterministic, backend-stable)."""
    if num_shards == 1:
        return AssignmentEngine(
            solver=GreedySolver(), eta=ETA, rng=seed, backend=backend
        )
    return ElasticShardedAssignmentEngine(
        solver=GreedySolver(),
        eta=ETA,
        rng=seed,
        backend=backend,
        num_shards=num_shards,
    )


def run_direct(engine, population, steps):
    """The reference path: per-epoch folded batches through ``process``.

    Exactly the served engine's flush semantics: the events buffered
    since the previous epoch are folded (``fold_trace`` applies the
    batcher's shed policy), queued with the epoch tick, and processed in
    one call — so plans *and* counters must agree with the wire run bit
    for bit.
    """
    plans = []
    for now, batch in enumerate([list(population)] + list(steps)):
        queue = EventQueue(fold_trace(batch))
        queue.push(ev.EpochTick(time=float(now)))
        results = engine.process(queue)
        assert len(results) == 1
        plans.append((sorted(results[0].dispatch.items()), results[0].mode))
    return plans, engine.metrics.counters()


async def run_wire(engine, population, steps):
    """The same trace through a live server and the reference client."""
    async with AssignmentServer(engine) as server:
        async with ServeClient("127.0.0.1", server.bound_port) as client:
            plans = []

            async def send(event):
                if isinstance(event, (ev.WorkerArrive, ev.WorkerUpdate)):
                    await client.ping(event.time, event.worker)
                elif isinstance(event, ev.TaskArrive):
                    await client.submit_task(event.time, event.task)
                else:  # pragma: no cover - trace holds only these kinds
                    raise AssertionError(event)

            for event in population:
                await send(event)
            result = await client.epoch(0.0)
            plans.append(
                (
                    [tuple(p) for p in result["dispatch"]],
                    result["mode"],
                )
            )
            for k, events in enumerate(steps):
                for event in events:
                    await send(event)
                result = await client.epoch(float(k + 1))
                plans.append(
                    (
                        [tuple(p) for p in result["dispatch"]],
                        result["mode"],
                    )
                )
            stats = await client.stats()
    return plans, stats


# ---------------------------------------------------------------------- #
# Protocol codecs
# ---------------------------------------------------------------------- #


class TestProtocol:
    def test_every_request_round_trips(self):
        task = make_task(3, x=1 / 3, y=0.123456789012345, end=7.7)
        worker = make_worker(9, x=2 / 3, y=0.999999999999999, velocity=0.25)
        requests = [
            proto.SubmitTask(1, 0.5, task),
            proto.WithdrawTask(2, 1.5, 3),
            proto.WorkerPing(3, 2.5, worker),
            proto.WorkerLeave(4, 3.5, 9),
            proto.WorkerHold(5, 4.5, 9),
            proto.WorkerRelease(6, 5.5, 9),
            proto.Expire(7, 6.5),
            proto.Epoch(8, 7.5),
            proto.Subscribe(9),
            proto.Stats(10),
            proto.Shutdown(11),
        ]
        for request in requests:
            assert proto.decode_request(proto.encode_request(request)) == request

    def test_entity_floats_round_trip_bit_exactly(self):
        worker = make_worker(1, x=0.1 + 0.2, y=1e-17, velocity=1 / 7)
        decoded = proto.decode_request(
            proto.encode_request(proto.WorkerPing(1, 0.0, worker))
        )
        assert decoded.worker == worker  # dataclass equality is bit-exact

    @pytest.mark.parametrize(
        "line, code",
        [
            (b"not json\n", "json"),
            (b'{"v": 99, "id": 1, "op": "stats"}\n', "version"),
            (b'{"v": 1, "id": 1, "op": "nope"}\n', "op"),
            (b'{"v": 1, "op": "stats"}\n', "field"),
            (b'{"v": 1, "id": 1, "op": "epoch"}\n', "field"),
            (b'{"v": 1, "id": 1, "op": "epoch", "time": "soon"}\n', "field"),
            (b'{"v": 1, "id": 1, "op": "worker_ping", "time": 0, "worker": [1]}\n', "field"),
        ],
    )
    def test_malformed_frames_raise_with_code(self, line, code):
        with pytest.raises(proto.ProtocolError) as err:
            proto.decode_request(line)
        assert err.value.code == code


# ---------------------------------------------------------------------- #
# Batcher fold + admission units
# ---------------------------------------------------------------------- #


def _update(worker_id, t=0.0, x=0.5):
    return ev.WorkerUpdate(time=t, worker=make_worker(worker_id, x=x, y=0.5))


class TestBatcher:
    def test_supersede_fold_replaces_in_place(self):
        batcher = IngestBatcher(capacity=8)
        assert batcher.try_add(_update(1, x=0.1))
        assert batcher.try_add(_update(2, x=0.2))
        assert batcher.try_add(_update(1, x=0.9))  # supersedes the first
        assert len(batcher) == 2
        assert batcher.metrics.updates_shed == 1
        drained = batcher.drain()
        assert [e.worker.worker_id for e in drained] == [1, 2]
        assert drained[0].worker.location.x == 0.9  # the newer ping won

    def test_conflicting_worker_event_clears_the_slot(self):
        batcher = IngestBatcher(capacity=8)
        batcher.try_add(_update(1, x=0.1))
        batcher.try_add(ev.WorkerLeave(time=0.0, worker_id=1))
        batcher.try_add(_update(1, x=0.9))  # must NOT fold across the leave
        assert batcher.metrics.updates_shed == 0
        kinds = [type(e).__name__ for e in batcher.drain()]
        assert kinds == ["WorkerUpdate", "WorkerLeave", "WorkerUpdate"]

    def test_non_churn_event_is_a_global_barrier(self):
        batcher = IngestBatcher(capacity=8)
        batcher.try_add(_update(1, x=0.1))
        batcher.try_add(ev.ExpireTasks(time=1.0))
        batcher.try_add(_update(1, x=0.9))
        assert batcher.metrics.updates_shed == 0
        assert len(batcher) == 3

    def test_capacity_refuses_non_foldable_but_admits_folds(self):
        batcher = IngestBatcher(capacity=2)
        assert batcher.try_add(_update(1))
        assert batcher.try_add(_update(2))
        assert batcher.full
        assert not batcher.try_add(_update(3))  # new worker: refused
        assert batcher.try_add(_update(1, x=0.9))  # fold: always admitted
        assert batcher.metrics.updates_shed == 1
        assert len(batcher) == 2

    def test_drain_resets_fold_windows(self):
        batcher = IngestBatcher(capacity=8)
        batcher.try_add(_update(1, x=0.1))
        batcher.drain()
        batcher.try_add(_update(1, x=0.9))  # new window: no fold
        assert batcher.metrics.updates_shed == 0
        assert batcher.metrics.batches_flushed == 1

    def test_high_watermark_tracks_peak(self):
        batcher = IngestBatcher(capacity=8)
        for worker_id in range(5):
            batcher.try_add(_update(worker_id))
        batcher.drain()
        batcher.try_add(_update(0))
        assert batcher.metrics.queue_high_watermark == 5


# ---------------------------------------------------------------------- #
# Fold soundness by property (hypothesis)
# ---------------------------------------------------------------------- #

_OPS = ("new", "move", "move", "move", "leave", "task", "withdraw", "flush")


def _materialise(codes, seed):
    """Turn op codes into a valid typed event stream (plus final tick)."""
    rng = np.random.default_rng(seed)
    stream = []
    live = []
    tasks = []
    next_worker = 100
    next_task = 500
    now = 0.0
    for code in codes:
        op = _OPS[code]
        now += 0.25
        if op == "new":
            worker = make_worker(
                next_worker,
                x=float(rng.uniform()),
                y=float(rng.uniform()),
                velocity=0.3,
            )
            live.append(worker.worker_id)
            next_worker += 1
            stream.append(ev.WorkerArrive(time=now, worker=worker))
        elif op == "move" and live:
            worker_id = live[int(rng.integers(0, len(live)))]
            stream.append(
                ev.WorkerUpdate(
                    time=now,
                    worker=make_worker(
                        worker_id,
                        x=float(rng.uniform()),
                        y=float(rng.uniform()),
                        velocity=0.3,
                        depart_time=now,
                    ),
                )
            )
        elif op == "leave" and live:
            worker_id = live.pop(int(rng.integers(0, len(live))))
            stream.append(ev.WorkerLeave(time=now, worker_id=worker_id))
        elif op == "task":
            task = make_task(
                next_task,
                x=float(rng.uniform()),
                y=float(rng.uniform()),
                end=now + 20.0,
            )
            tasks.append(task.task_id)
            next_task += 1
            stream.append(ev.TaskArrive(time=now, task=task))
        elif op == "withdraw" and tasks:
            task_id = tasks.pop(int(rng.integers(0, len(tasks))))
            stream.append(ev.TaskWithdraw(time=now, task_id=task_id))
        elif op == "flush":
            stream.append(ev.EpochTick(time=now))
    stream.append(ev.EpochTick(time=now + 0.25))
    return stream


class TestFoldProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        codes=st.lists(st.integers(0, len(_OPS) - 1), min_size=5, max_size=40),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fold_never_changes_plans_or_state(self, codes, seed):
        """Load-shed drops are invisible: folded == raw, end to end."""
        stream = _materialise(codes, seed)
        folded = fold_trace(stream, flush_before=ev.EpochTick)
        raw_engine = build_engine()
        fold_engine = build_engine()
        raw_results = raw_engine.process(EventQueue(list(stream)))
        fold_results = fold_engine.process(EventQueue(folded))
        assert [sorted(r.dispatch.items()) for r in raw_results] == [
            sorted(r.dispatch.items()) for r in fold_results
        ]
        assert raw_engine.workers == fold_engine.workers
        assert raw_engine.tasks == fold_engine.tasks

    @settings(max_examples=30, deadline=None)
    @given(
        codes=st.lists(st.integers(0, len(_OPS) - 1), min_size=5, max_size=40),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_fold_never_reorders_non_update_events(self, codes, seed):
        """Only superseded in-place updates may disappear; order holds."""
        stream = _materialise(codes, seed)
        folded = fold_trace(stream, flush_before=ev.EpochTick)
        strip = lambda events: [
            e for e in events if not isinstance(e, ev.WorkerUpdate)
        ]
        assert strip(folded) == strip(stream)
        assert len(folded) <= len(stream)


# ---------------------------------------------------------------------- #
# Wire-vs-direct differential (the tentpole's acceptance gate)
# ---------------------------------------------------------------------- #


@pytest.mark.churn
class TestWireDifferential:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_plans_and_counters_bit_identical(self, backend, num_shards):
        population, steps = build_trace(num_steps=6)
        direct_plans, direct_counters = run_direct(
            build_engine(backend, num_shards), population, steps
        )
        wire_plans, stats = asyncio.run(
            run_wire(build_engine(backend, num_shards), population, steps)
        )
        assert [
            ([tuple(p) for p in plan], mode) for plan, mode in direct_plans
        ] == wire_plans
        assert stats["engine"] == direct_counters
        # The trace's stale pings must actually have exercised the shed.
        assert stats["serve"]["updates_shed"] > 0

    def test_unfolded_direct_run_agrees_on_plans(self):
        """Shedding is invisible to decisions, not just to the twin."""
        population, steps = build_trace(num_steps=6)
        engine = build_engine()
        raw_plans = []
        for now, batch in enumerate([list(population)] + list(steps)):
            queue = EventQueue(batch)  # raw: nothing shed
            queue.push(ev.EpochTick(time=float(now)))
            result = engine.process(queue)[0]
            raw_plans.append((sorted(result.dispatch.items()), result.mode))
        folded_plans, _ = run_direct(build_engine(), population, steps)
        assert raw_plans == folded_plans


# ---------------------------------------------------------------------- #
# Server behaviour over the wire
# ---------------------------------------------------------------------- #


class TestServerWire:
    def test_registry_validation_and_errors(self):
        async def scenario():
            async with AssignmentServer(build_engine()) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    with pytest.raises(ServeError) as err:
                        await c.worker_leave(0.0, 404)
                    assert err.value.code == "invalid"
                    await c.ping(0.0, make_worker(1, x=0.2, y=0.2))
                    await c.submit_task(0.0, make_task(7, end=9.0))
                    with pytest.raises(ServeError) as err:
                        await c.submit_task(0.0, make_task(7, end=9.0))
                    assert err.value.code == "invalid"
                    stats = await c.stats()
                    assert stats["serve"]["rejected_invalid"] == 2
            return True

        assert asyncio.run(scenario())

    def test_protocol_error_answers_without_dropping_connection(self):
        async def scenario():
            async with AssignmentServer(build_engine()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )
                writer.write(b"garbage\n")
                await writer.drain()
                frame = proto.decode_frame(await reader.readline())
                assert frame["ok"] is False and frame["code"] == "json"
                # The connection survives: a valid request still works.
                writer.write(proto.encode_request(proto.Stats(1)))
                await writer.drain()
                frame = proto.decode_frame(await reader.readline())
                assert frame["ok"] and frame["serve"]["protocol_errors"] == 1
                writer.close()
                await writer.wait_closed()
            return True

        assert asyncio.run(scenario())

    def test_reject_admission_answers_overloaded(self):
        async def scenario():
            engine = build_engine()
            async with AssignmentServer(
                engine, capacity=2, admission="reject"
            ) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    # Register two workers and flush so later pings
                    # resolve to in-place WorkerUpdates (foldable).
                    await c.ping(0.0, make_worker(1, x=0.1, y=0.1))
                    await c.ping(0.0, make_worker(2, x=0.2, y=0.2))
                    await c.epoch(0.0)
                    # Fill the buffer with two pending updates.
                    await c.ping(0.5, make_worker(1, x=0.4, y=0.1))
                    await c.ping(0.5, make_worker(2, x=0.5, y=0.2))
                    # A new arrival cannot fold: rejected while full.
                    with pytest.raises(ServeError) as err:
                        await c.ping(0.5, make_worker(3, x=0.3, y=0.3))
                    assert err.value.code == "overloaded"
                    # An in-place refresh folds and is admitted while full.
                    await c.ping(0.75, make_worker(1, x=0.9, y=0.9))
                    await c.epoch(1.0)  # flush frees the buffer
                    # The rejected arrival left no phantom registration:
                    # worker 3 still enters as a fresh arrival.
                    await c.ping(1.0, make_worker(3, x=0.3, y=0.3))
                    await c.epoch(2.0)
                    stats = await c.stats()
                    assert stats["serve"]["admission_rejects"] == 1
                    assert stats["serve"]["updates_shed"] == 1
                    assert stats["engine"]["events"]["worker_arrive"] == 3
            return True

        assert asyncio.run(scenario())

    def test_subscription_streams_epoch_decisions(self):
        async def scenario():
            async with AssignmentServer(build_engine()) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    await c.subscribe()
                    await c.ping(0.0, make_worker(1, x=0.2, y=0.5))
                    await c.submit_task(0.0, make_task(7, x=0.25, y=0.5, end=9.0))
                    response = await c.epoch(1.0)
                    await c.drain_pushes(1)
                    push = c.pushes[0]
                    assert push["push"] == "epoch"
                    assert push["dispatch"] == response["dispatch"]
            return True

        assert asyncio.run(scenario())

    def test_pipelined_requests_each_get_their_response(self):
        # The regression: responses used to share the drop-oldest
        # subscriber outbox, so a client with more than 256 requests in
        # flight silently lost acks.  Pipeline well past that before
        # reading anything; only decision pushes may ever be shed.
        requests = [proto.Subscribe(0)]
        requests += [
            proto.WorkerPing(k, 0.0, make_worker(k, x=(k % 97) / 97.0, y=0.5))
            for k in range(1, 1201)
        ]
        requests.append(proto.Epoch(1201, 1.0))

        async def scenario():
            async with AssignmentServer(build_engine()) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.bound_port
                )
                writer.write(b"".join(map(proto.encode_request, requests)))
                await writer.drain()
                answered, pushes = [], 0
                while len(answered) < len(requests):
                    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                    frame = proto.decode_frame(line)
                    if "push" in frame:
                        pushes += 1
                    else:
                        assert frame["ok"], frame
                        answered.append(frame["id"])
                writer.close()
                await writer.wait_closed()
                return answered, pushes, server.metrics

        answered, pushes, metrics = asyncio.run(scenario())
        assert sorted(answered) == list(range(len(requests)))
        assert metrics.frames_streamed == 1
        assert metrics.frames_dropped == metrics.frames_streamed - pushes == 0

    def test_outbox_sheds_oldest_pushes_and_blocks_on_responses(self):
        class Writer:
            def __init__(self):
                self.frames = []

            def write(self, frame):
                self.frames.append(frame)

            async def drain(self):
                await asyncio.sleep(0)

        async def scenario():
            writer, metrics = Writer(), ServeMetrics()
            connection = _Connection(writer)  # pump not started: nothing drains
            await connection.respond(b"ack")
            for index in range(SUBSCRIBER_OUTBOX + 3):
                connection.push(b"push-%d" % index, metrics)
            assert metrics.frames_dropped == 3
            queued = [frame for frame, _ in connection.outbox]
            assert queued[:2] == [b"ack", b"push-3"]  # oldest pushes went first
            for _ in range(SUBSCRIBER_OUTBOX - 1):
                await connection.respond(b"ack")
            late = asyncio.ensure_future(connection.respond(b"late"))
            await asyncio.sleep(0)
            assert not late.done()  # at the bound: waits, evicts nothing
            connection.pump = asyncio.ensure_future(connection.run_pump())
            await asyncio.wait_for(late, timeout=5.0)
            connection.stop()
            await asyncio.wait_for(connection.pump, timeout=5.0)
            return writer.frames, metrics

        frames, metrics = asyncio.run(scenario())
        assert frames.count(b"ack") == SUBSCRIBER_OUTBOX
        assert frames[-1] == b"late"
        assert metrics.frames_dropped == 3  # pushes only

    def test_expire_over_the_wire_frees_task_ids(self):
        async def scenario():
            async with AssignmentServer(build_engine()) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    await c.submit_task(0.0, make_task(7, end=1.0))
                    await c.epoch(0.5)
                    response = await c.expire(2.0)
                    assert response["expired"] == [7]
                    # The id is free again after expiry.
                    await c.submit_task(2.0, make_task(7, start=2.0, end=9.0))
            return True

        assert asyncio.run(scenario())

    def test_deadline_loop_runs_epochs_and_advances_clock(self):
        async def scenario():
            engine = build_engine()
            async with AssignmentServer(
                engine, epoch_interval=0.05, epoch_dt=1.0
            ) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    await c.ping(0.0, make_worker(1, x=0.2, y=0.5))
                    await c.submit_task(0.0, make_task(7, x=0.25, y=0.5, end=99.0))
                    await asyncio.sleep(0.4)
                    stats = await c.stats()
            assert stats["serve"]["epochs"] >= 2
            assert server.deadline_loop.next_now >= 2.0
            return True

        assert asyncio.run(scenario())

    def test_shutdown_op_stops_the_server(self):
        async def scenario():
            engine = build_engine()
            server = AssignmentServer(engine)
            await server.start()
            async with ServeClient("127.0.0.1", server.bound_port) as c:
                await c.shutdown()
            await asyncio.wait_for(server.wait_stopped(), timeout=5.0)
            return engine._closed

        assert asyncio.run(scenario())


class TestEngineDriver:
    def test_concurrent_epoch_requests_serialise_in_order(self):
        """Two racing epoch coroutines must never re-enter the engine."""

        async def scenario():
            engine = build_engine()
            metrics = ServeMetrics()
            batcher = IngestBatcher(metrics=metrics)
            driver = EngineDriver(engine, batcher, metrics)
            batcher.try_add(
                ev.WorkerArrive(time=0.0, worker=make_worker(1, x=0.2, y=0.5))
            )
            batcher.try_add(
                ev.TaskArrive(time=0.0, task=make_task(7, x=0.25, y=0.5, end=9.0))
            )
            results = await asyncio.gather(
                driver.run_epoch(1.0), driver.run_epoch(2.0)
            )
            assert [r.now for r in results] == [1.0, 2.0]
            assert engine.metrics.epochs == 2
            engine.close()
            return True

        assert asyncio.run(scenario())

    def test_deadline_tick_skips_while_epoch_runs(self):
        async def scenario():
            engine = build_engine()
            metrics = ServeMetrics()
            driver = EngineDriver(engine, IngestBatcher(metrics=metrics), metrics)
            loop = DeadlineLoop(driver, interval=10.0, epoch_dt=1.0)
            loop._epoch_running = True  # as if a solve were in flight
            assert await loop.tick() is None
            assert metrics.deadline_misses == 1
            loop._epoch_running = False
            result = await loop.tick()
            assert result is not None and metrics.epochs == 1
            engine.close()
            return True

        assert asyncio.run(scenario())


# ---------------------------------------------------------------------- #
# Kill-and-resume: the wire layer over the durable log
# ---------------------------------------------------------------------- #


def _spawn_server(tmp_path, *extra):
    """``python -m repro.serve`` with a durable log under ``tmp_path``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--durable",
            str(tmp_path / "session.db"),
            *extra,
        ],
        stdout=subprocess.PIPE,
        env=env,
    )
    line = proc.stdout.readline()
    assert line.startswith(b"READY "), line
    return proc, int(line.split()[1])


async def _drive_epochs(port, population, steps, first, last):
    """Send steps ``first..last`` (plus population at 0) and epoch each."""
    plans = []

    async def send(client, event):
        if isinstance(event, (ev.WorkerArrive, ev.WorkerUpdate)):
            await client.ping(event.time, event.worker)
        else:
            await client.submit_task(event.time, event.task)

    async with ServeClient("127.0.0.1", port) as client:
        if first == 0:
            for event in population:
                await send(client, event)
            result = await client.epoch(0.0)
            plans.append([tuple(p) for p in result["dispatch"]])
        for k in range(max(first, 1), last + 1):
            for event in steps[k - 1]:
                await send(client, event)
            result = await client.epoch(float(k))
            plans.append([tuple(p) for p in result["dispatch"]])
    return plans


class TestCli:
    def test_backend_flag_reaches_engine_and_solver(self):
        # The regression: build_solver ignored --backend, so a numpy engine
        # was served by a python-only solver.
        from repro.serve.__main__ import build_parser, build_server

        # SAMPLING has one scoring path and no backend of its own.
        async def scenario(*argv):
            server = build_server(build_parser().parse_args(argv))
            engine = server.engine
            try:
                solver_backend = getattr(engine.solver, "backend", None)
                return type(engine.solver).__name__, engine.backend, solver_backend
            finally:
                engine.close()

        assert asyncio.run(scenario("--backend", "numpy")) == (
            "GreedySolver", "numpy", "numpy",
        )
        assert asyncio.run(
            scenario("--backend", "numpy", "--solver", "sampling", "--shards", "2")
        ) == ("SamplingSolver", "numpy", None)
        assert asyncio.run(scenario())[1:] == ("python", "python")


@pytest.mark.churn
class TestKillAndResume:
    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        population, steps = build_trace(num_steps=6)

        # Uninterrupted twin: the same trace against an in-process server
        # configured exactly as the CLI default (greedy, eta 0.125).
        twin = AssignmentEngine(solver=GreedySolver(), eta=ETA, rng=7)

        async def uninterrupted():
            async with AssignmentServer(twin) as server:
                return await _drive_epochs(
                    server.bound_port, population, steps, 0, 6
                )

        expected = asyncio.run(uninterrupted())

        proc, port = _spawn_server(tmp_path, "--solver", "greedy", "--seed", "7")
        try:
            before = asyncio.run(_drive_epochs(port, population, steps, 0, 3))
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc2, port2 = _spawn_server(tmp_path, "--resume")
            try:
                after = asyncio.run(_drive_epochs(port2, population, steps, 4, 6))
            finally:
                proc2.kill()
                proc2.wait(timeout=30)
                proc2.stdout.close()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
        assert before + after == expected


# ---------------------------------------------------------------------- #
# Soak smoke: the CI-scale loadgen invariants
# ---------------------------------------------------------------------- #


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.50) == 3.0
        assert percentile(values, 0.99) == 5.0
        assert percentile([7.0], 0.50) == 7.0
        assert percentile([], 0.5) != percentile([], 0.5)  # nan


@pytest.mark.benchsmoke
class TestSoakSmoke:
    def test_two_second_soak_loses_nothing(self):
        async def scenario():
            engine = build_engine()
            tasks, workers = make_population(num_tasks=6, num_workers=24)
            async with AssignmentServer(
                engine, epoch_interval=0.2, epoch_dt=1.0
            ) as server:
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    for worker in workers:
                        await c.ping(0.0, worker)
                    for task in tasks:
                        await c.submit_task(0.0, task)
                generator = LoadGenerator(
                    "127.0.0.1",
                    server.bound_port,
                    workers,
                    rate_hz=300.0,
                    duration_s=2.0,
                    seed=11,
                )
                report = await generator.run()
                async with ServeClient("127.0.0.1", server.bound_port) as c:
                    report.server = await c.stats()
            return report

        report = asyncio.run(scenario())
        # Zero loss: every offered event was acknowledged, none rejected.
        assert report.lost == 0
        assert report.errors == 0
        assert report.acked == report.offered
        assert report.server["serve"]["admission_rejects"] == 0
        # Latency percentiles were recorded (and are sane).
        assert report.latency_p99_ms == report.latency_p99_ms  # not nan
        assert report.latency_p50_ms <= report.latency_p95_ms
        assert report.latency_p95_ms <= report.latency_p99_ms
        assert report.sustained_rps > 0
        # The deadline loop actually planned while traffic flowed, and the
        # open-loop pings exercised the shed path.
        assert report.server["serve"]["epochs"] >= 3
        assert report.server["serve"]["updates_shed"] > 0
