"""The asyncio ingestion server: JSON-lines over TCP, one engine behind.

:class:`AssignmentServer` is the deployment face of the engine stack:
connections stream typed requests (:mod:`repro.serve.protocol`), churn
lands in the bounded :class:`repro.serve.batcher.IngestBatcher`, epochs
run through the thread-offloaded :class:`repro.serve.scheduler.
EngineDriver` — either on the wall-clock :class:`~repro.serve.scheduler.
DeadlineLoop` or on explicit ``epoch`` requests (the replayable mode the
differential tests pin) — and every decision streams to subscribed
connections.

Overload policy, end to end:

* **Load shed** — a stale in-place worker ping superseded by a newer one
  folds away in the batcher (``ServeMetrics.updates_shed``) before it
  can cost a grid-cell invalidation.
* **Admission control** — when the batcher is full, a non-foldable event
  either backpressures the producing connection (``admission="wait"``:
  the handler awaits space, so the TCP window throttles the client) or
  is refused with an ``overloaded`` error (``admission="reject"``).
  Either way the engine is never driven past its buffer.
* **Connection flow control** — each connection owns a bounded outbox
  drained by its own writer task (with TCP backpressure via ``drain``);
  a slow subscriber loses oldest-first decision frames
  (``frames_dropped``) instead of stalling the epoch loop, while request
  responses are never evicted — a full outbox pauses that connection's
  read loop until the client drains its acks.

Durability passes straight through: ``durable_path=`` hands the engine a
WAL (:mod:`repro.engine.durable`), and :meth:`AssignmentServer.resume`
rebuilds a SIGKILLed server from that log mid-session — the remaining
epochs are bit-identical to an uninterrupted run
(``tests/test_serve.py::TestKillAndResume``).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.engine.durable import restore_engine
from repro.engine.engine import AssignmentEngine, EpochResult
from repro.engine import events as ev
from repro.serve import protocol as proto
from repro.serve.batcher import DEFAULT_CAPACITY, IngestBatcher, ServeMetrics
from repro.serve.scheduler import DeadlineLoop, EngineDriver

#: Per connection: decision pushes a slow subscriber may queue before
#: oldest-first drops, and (separately) responses that may queue before
#: the connection's read loop pauses.
SUBSCRIBER_OUTBOX = 256


class _Connection:
    """Per-connection state: the writer, its outbox and its pump task.

    The outbox holds ``(frame, sheddable)`` entries in send order.  Its
    two frame kinds are bounded separately, :data:`SUBSCRIBER_OUTBOX`
    each, and meet their bound differently: a request *response* is
    never evicted — the read loop awaits room (:meth:`respond`), so a
    client pipelining faster than it reads is throttled through its own
    TCP window — while a decision *push* is sheddable (:meth:`push`
    drops the oldest queued push, counted ``frames_dropped``).
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.outbox: Deque[Tuple[Optional[bytes], bool]] = deque()
        self.pump: Optional[asyncio.Task] = None
        self.subscribed = False
        self._queued = {False: 0, True: 0}  # by sheddable
        self._ready = asyncio.Event()  # outbox non-empty
        self._room = asyncio.Event()  # the pump popped a frame, or is gone
        self._pump_done = False

    def _put(self, frame: Optional[bytes], sheddable: bool) -> None:
        self._queued[sheddable] += 1
        self.outbox.append((frame, sheddable))
        self._ready.set()

    async def run_pump(self) -> None:
        """Drain the outbox to the socket with TCP backpressure."""
        try:
            while True:
                while not self.outbox:
                    self._ready.clear()
                    await self._ready.wait()
                frame, sheddable = self.outbox.popleft()
                self._queued[sheddable] -= 1
                self._room.set()
                if frame is None:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A dead pump drains nothing: release a blocked respond().
            self._pump_done = True
            self._room.set()

    async def respond(self, frame: bytes) -> None:
        """Queue a response, waiting for room instead of evicting anything."""
        while self._queued[False] >= SUBSCRIBER_OUTBOX and not self._pump_done:
            self._room.clear()
            await self._room.wait()
        if not self._pump_done:
            self._put(frame, False)

    def push(self, frame: bytes, metrics: ServeMetrics) -> None:
        """Queue a decision push, dropping the oldest push when at the bound."""
        if self._queued[True] >= SUBSCRIBER_OUTBOX:
            oldest = next(i for i, entry in enumerate(self.outbox) if entry[1])
            del self.outbox[oldest]
            self._queued[True] -= 1
            metrics.frames_dropped += 1
        self._put(frame, True)

    def stop(self) -> None:
        """Queue the pump's stop sentinel behind every pending frame."""
        self._put(None, False)


class AssignmentServer:
    """Serve one assignment engine over a JSON-lines TCP endpoint.

    Args:
        engine: the engine to serve; built by the caller (tests pass a
            configured one) or by :meth:`resume`.  ``durable_path=`` on
            the engine makes the whole service crash-recoverable.
        host / port: bind address (port 0 picks a free port; see
            ``bound_port`` after :meth:`start`).
        capacity: batcher bound (see :class:`~repro.serve.batcher.
            IngestBatcher`).
        admission: ``"wait"`` (default) backpressures a producer when the
            buffer is full; ``"reject"`` answers ``overloaded`` instead.
        epoch_interval: wall seconds between deadline epochs; ``None``
            (default) runs no clock — epochs happen on explicit ``epoch``
            requests, the mode replayable traces use.
        epoch_dt: virtual session time each deadline epoch advances.
    """

    def __init__(
        self,
        engine: AssignmentEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = DEFAULT_CAPACITY,
        admission: str = "wait",
        epoch_interval: Optional[float] = None,
        epoch_dt: float = 1.0,
    ) -> None:
        if admission not in ("wait", "reject"):
            raise ValueError(f"unknown admission policy {admission!r}")
        self.engine = engine
        self.host = host
        self.port = port
        self.admission = admission
        self.metrics = ServeMetrics()
        self.batcher = IngestBatcher(capacity=capacity, metrics=self.metrics)
        self.driver = EngineDriver(engine, self.batcher, self.metrics)
        self.deadline_loop: Optional[DeadlineLoop] = None
        if epoch_interval is not None:
            self.deadline_loop = DeadlineLoop(
                driver=self.driver,
                interval=epoch_interval,
                epoch_dt=epoch_dt,
                broadcast=self._broadcast,
                start_now=engine._clock + epoch_dt if engine.metrics.epochs else 0.0,
            )
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._space = asyncio.Condition()
        self._stopped = asyncio.Event()
        # The ingest-time id registries: pings resolve arrive-vs-update
        # against these, and invalid churn is refused before it can reach
        # the engine half-applied.  Seeded from the engine so a resumed
        # session knows its live population.
        self._known_workers: Set[int] = set(engine.workers)
        self._known_tasks: Set[int] = set(engine.tasks)
        self._held: Set[int] = set(engine.held_workers)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def resume(
        cls,
        durable_path,
        solver=None,
        solve_executor=None,
        shard_executor: Optional[str] = None,
        **server_kwargs: Any,
    ) -> "AssignmentServer":
        """A server over the engine recovered from a durable log.

        The engine comes back via :func:`repro.engine.durable.
        restore_engine` — snapshot + tail replay, adopting the log — so
        the served session continues exactly where the killed one
        stopped: same plans, same counters, same RNG position.
        """
        engine = restore_engine(
            durable_path,
            solver=solver,
            solve_executor=solve_executor,
            shard_executor=shard_executor,
        )
        return cls(engine, **server_kwargs)

    @property
    def bound_port(self) -> int:
        """The actual listening port (after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and start the deadline loop, if configured."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.deadline_loop is not None:
            self.deadline_loop.start()

    async def stop(self) -> None:
        """Stop the clock, close connections and the engine."""
        if self.deadline_loop is not None and self.deadline_loop.running:
            await self.deadline_loop.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for connection in list(self._connections):
            await self._close_connection(connection)

        def _close_engine() -> None:
            # Take the driver lock so close never races an epoch thread.
            with self.driver.lock:
                self.engine.close()

        await asyncio.to_thread(_close_engine)
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (``shutdown`` op)."""
        await self._stopped.wait()

    async def _close_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if connection.pump is not None:
            connection.stop()
            try:
                await asyncio.wait_for(connection.pump, timeout=1.0)
            except asyncio.TimeoutError:
                connection.pump.cancel()
        try:
            connection.writer.close()
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------ #
    # Broadcast + epochs
    # ------------------------------------------------------------------ #

    async def _broadcast(self, result: EpochResult) -> None:
        """Push one epoch's decision frame to every subscriber."""
        payload = proto.epoch_payload(result)
        frame = proto.encode_push("epoch", payload)
        for connection in list(self._connections):
            if connection.subscribed:
                connection.push(frame, self.metrics)
                self.metrics.frames_streamed += 1
        # An epoch drained the batcher: wake producers blocked on space.
        async with self._space:
            self._space.notify_all()

    async def _run_epoch(self, now: float) -> EpochResult:
        result = await self.driver.run_epoch(now)
        self._known_tasks.difference_update(result.expired)
        await self._broadcast(result)
        return result

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def _resolve_event(self, request: proto.Request) -> ev.Event:
        """Map one validated ingest request to its typed engine event.

        Pure validation: the id registries are only *read* here.  The
        bookkeeping happens in :meth:`_commit_event` once admission
        succeeds, so a load-shed rejection leaves no phantom
        registration behind (a later ping of a rejected-arrival worker
        must still resolve to an arrival, not an update of a worker the
        engine never saw).

        Raises:
            ValueError: when the request is inconsistent with the live id
                registries (unknown worker, duplicate task, ...).
        """
        if isinstance(request, proto.WorkerPing):
            if request.worker.worker_id in self._known_workers:
                return ev.WorkerUpdate(time=request.time, worker=request.worker)
            return ev.WorkerArrive(time=request.time, worker=request.worker)
        if isinstance(request, proto.WorkerLeave):
            if request.worker_id not in self._known_workers:
                raise ValueError(f"worker {request.worker_id} not registered")
            return ev.WorkerLeave(time=request.time, worker_id=request.worker_id)
        if isinstance(request, proto.WorkerHold):
            if request.worker_id not in self._known_workers:
                raise ValueError(f"worker {request.worker_id} not registered")
            return ev.WorkerHold(time=request.time, worker_id=request.worker_id)
        if isinstance(request, proto.WorkerRelease):
            if request.worker_id not in self._known_workers:
                raise ValueError(f"worker {request.worker_id} not registered")
            return ev.WorkerRelease(
                time=request.time, worker_id=request.worker_id
            )
        if isinstance(request, proto.SubmitTask):
            if request.task.task_id in self._known_tasks:
                raise ValueError(
                    f"task {request.task.task_id} already registered"
                )
            return ev.TaskArrive(time=request.time, task=request.task)
        if isinstance(request, proto.WithdrawTask):
            if request.task_id not in self._known_tasks:
                raise ValueError(f"task {request.task_id} not registered")
            return ev.TaskWithdraw(time=request.time, task_id=request.task_id)
        if isinstance(request, proto.Expire):
            return ev.ExpireTasks(time=request.time)
        raise TypeError(f"not an ingest request: {type(request).__name__}")

    def _commit_event(self, event: ev.Event) -> None:
        """Registry bookkeeping for an *admitted* event."""
        if isinstance(event, ev.WorkerArrive):
            self._known_workers.add(event.worker.worker_id)
        elif isinstance(event, ev.WorkerLeave):
            self._known_workers.discard(event.worker_id)
            self._held.discard(event.worker_id)
        elif isinstance(event, ev.WorkerHold):
            self._held.add(event.worker_id)
        elif isinstance(event, ev.WorkerRelease):
            self._held.discard(event.worker_id)
        elif isinstance(event, ev.TaskArrive):
            self._known_tasks.add(event.task.task_id)
        elif isinstance(event, ev.TaskWithdraw):
            self._known_tasks.discard(event.task_id)

    async def _admit(self, event: ev.Event) -> bool:
        """Admit one event under the configured overload policy."""
        if self.batcher.try_add(event):
            return True
        if self.admission == "reject":
            self.metrics.admission_rejects += 1
            return False
        self.metrics.admission_waits += 1
        async with self._space:
            while not self.batcher.try_add(event):
                await self._space.wait()
        return True

    async def _handle_request(
        self, request: proto.Request, connection: _Connection
    ) -> bytes:
        """One validated request to one response frame."""
        self.metrics.count_request(request.op)
        if isinstance(request, proto.Epoch):
            result = await self._run_epoch(request.time)
            return proto.encode_ok(
                request.request_id, **proto.epoch_payload(result)
            )
        if isinstance(request, proto.Subscribe):
            connection.subscribed = True
            return proto.encode_ok(request.request_id)
        if isinstance(request, proto.Stats):
            return proto.encode_ok(
                request.request_id,
                serve=self.metrics.counters(),
                engine=self.engine.metrics.counters(),
                pending=len(self.batcher),
            )
        if isinstance(request, proto.Shutdown):
            asyncio.get_running_loop().create_task(self.stop())
            return proto.encode_ok(request.request_id)
        # Everything else is ingestion: registry-validate, map, admit.
        try:
            event = self._resolve_event(request)
        except ValueError as exc:
            self.metrics.rejected_invalid += 1
            return proto.encode_error(request.request_id, "invalid", str(exc))
        if isinstance(request, proto.Expire):
            expired = await self.driver.run_expire(request.time)
            self._known_tasks.difference_update(expired)
            return proto.encode_ok(request.request_id, expired=sorted(expired))
        if not await self._admit(event):
            return proto.encode_error(
                request.request_id, "overloaded", "ingestion queue is full"
            )
        self._commit_event(event)
        return proto.encode_ok(request.request_id, pending=len(self.batcher))

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Per-connection read loop: decode, handle, respond, repeat."""
        connection = _Connection(writer)
        connection.pump = asyncio.get_running_loop().create_task(
            connection.run_pump()
        )
        self._connections.add(connection)
        self.metrics.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: the stream limit tripped on an
                    # overlong line — drop the connection rather than
                    # resynchronise mid-frame.
                    break
                if not line:
                    break
                if len(line) > proto.MAX_FRAME_BYTES:
                    self.metrics.protocol_errors += 1
                    await connection.respond(
                        proto.encode_error(None, "frame", "frame too large")
                    )
                    continue
                try:
                    request = proto.decode_request(line)
                except proto.ProtocolError as exc:
                    self.metrics.protocol_errors += 1
                    await connection.respond(
                        proto.encode_error(None, exc.code, str(exc))
                    )
                    continue
                response = await self._handle_request(request, connection)
                await connection.respond(response)
        finally:
            await self._close_connection(connection)

    # ------------------------------------------------------------------ #
    # Context manager sugar for in-process tests and examples
    # ------------------------------------------------------------------ #

    async def __aenter__(self) -> "AssignmentServer":
        """Start serving; the bound port is available afterwards."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        """Stop the server and close the engine."""
        if not self._stopped.is_set():
            await self.stop()


def snapshot_counters(engine) -> Dict[str, object]:
    """The engine's replay-deterministic counters (differential tests)."""
    return engine.metrics.counters()
