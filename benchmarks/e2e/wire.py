"""The ``wire_fleet`` workload: ``python -m repro.serve`` under a fleet's traffic.

The deployment shape: the server is a **subprocess pinned to one core**,
the load generator is this process **pinned to another**, and they talk
JSON lines over two TCP connections — a fleet connection carrying the
churn and a control connection issuing ``epoch`` requests and receiving
the decision pushes.  A run has four phases:

* **set-up** (repeated, median reported): start the server, register the
  population over the wire, take the first decision;
* **verification rounds**: awaited ping chunks followed by an ``epoch``,
  the only deterministic batching on the wire, so every served plan must
  equal a direct-engine replay of the same events;
* **open loop**: a seeded Poisson stream (90 % foldable pings, 5 % worker
  arrive/leave, 5 % task submit/withdraw) sent on schedule whatever the
  server does, each request timed from its *due* instant, while the
  control connection issues ``epoch`` on its own fixed cadence;
* **closed loop**: stop-and-wait ping chunks with a periodic ``epoch`` —
  the capacity measurement (acked events per second).

The client is one ``select`` loop over non-blocking sockets: acks are
read while requests are sent (a pipelining client that stops reading
loses acks once the server's bounded outbox wraps), every wait has a
settle timeout, an unanswered or refused request is a failed op, and the
server process is always reaped.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.algorithms import GreedySolver
from repro.engine import (
    AssignmentEngine,
    EpochTick,
    EventQueue,
    TaskArrive,
    WorkerArrive,
    WorkerUpdate,
)
from repro.serve import protocol as proto
from repro.serve.batcher import IngestBatcher
from repro.serve.server import AssignmentServer

from e2e import measure, scenarios, trace
from e2e.metrics import Ops
from e2e.workloads import OUT_DIR, layer_values, wal_stats

#: The server CLI's default engine seed (``--seed``), mirrored by the replay.
SERVER_SEED = 7
#: Fresh server set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: How long any wait may trail its last send before the rest count as lost.
SETTLE_S = 10.0
#: A run whose generator ran later than this (p99) did not offer its load.
MAX_LATE_P99_MS = 5.0
#: Unanswered fleet requests the open loop allows (see ``open_loop``).
MAX_IN_FLIGHT = 192
#: Back-to-back open-loop windows of a timed run (each between two probes).
OPEN_WINDOWS = 9

SIZES: Dict[str, float] = dict(
    num_tasks=60, num_workers=2000, eta=0.08, capacity=65536, snapshot_every=64,
    rate_hz=1200.0, warmup_s=1.5, open_share=0.65, epoch_every_s=0.1,
    rounds=10, round_pings=256, chunk_size=128, num_chunks=256,
    chunks_per_second=190.0, chunks_per_epoch=40,
    trace_open_s=6.0, trace_inprocess_s=3.0, trace_inprocess_hz=1500.0,
    trace_cpu_chunks=200,
)

TINY: Dict[str, float] = dict(
    num_tasks=40, num_workers=800, eta=0.08, capacity=65536, snapshot_every=8,
    rate_hz=400.0, warmup_s=0.3, open_share=0.6, epoch_every_s=0.02,
    rounds=3, round_pings=32, chunk_size=16, num_chunks=16,
    chunks_per_second=40.0, chunks_per_epoch=8,
    trace_open_s=1.0, trace_inprocess_s=1.0, trace_inprocess_hz=300.0,
    trace_cpu_chunks=160,  # ~80 ms of server CPU: the clock ticks at 10 ms
)

Frame = Tuple[int, str, bytes]  # (request id, op, encoded line)


def encode(requests: Sequence[proto.Request]) -> List[Frame]:
    """Pre-encode requests so the timed loop only sends bytes."""
    return [(r.request_id, r.op, proto.encode_request(r)) for r in requests]


def pin_cores() -> Tuple[Optional[int], str]:
    """Pin this process to one core; returns the server's core and a note."""
    try:
        cores = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None, "sched_setaffinity unavailable: server and loadgen unpinned"
    if len(cores) < 2:
        return None, f"{len(cores)} core visible: server and loadgen share it"
    os.sched_setaffinity(0, {cores[1]})
    return cores[0], f"server pinned to core {cores[0]}, loadgen to core {cores[1]}"


# ---------------------------------------------------------------------- #
# Servers
# ---------------------------------------------------------------------- #


class ServerProcess:
    """``python -m repro.serve`` as a child process, reaped on close."""

    def __init__(self, sizes, workdir: Path, core: Optional[int]) -> None:
        command = [
            sys.executable, "-m", "repro.serve", "--port", "0",
            "--solver", "greedy", "--eta", str(sizes["eta"]),
            "--capacity", str(int(sizes["capacity"])),
            "--durable", str(workdir / "wire.db"),
            "--snapshot-every", str(int(sizes["snapshot_every"])),
        ]
        pin = None if core is None else (lambda: os.sched_setaffinity(0, {core}))
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, preexec_fn=pin
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline().split() if ready else []
            if len(line) != 2 or line[0] != b"READY":
                raise RuntimeError(f"server did not announce readiness: {line!r}")
            self.port = int(line[1])
        except BaseException:
            self.close()
            raise
        self.pid = self.proc.pid

    def close(self) -> None:
        """Wait for a clean exit; escalate to terminate, then kill."""
        for action in (lambda: None, self.proc.terminate, self.proc.kill):
            action()
            try:
                self.proc.wait(timeout=5.0)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.stdout.close()


class InProcessServer:
    """An :class:`AssignmentServer` on a background thread's event loop.

    The traced pass needs the server's calls in *this* interpreter, where
    the span wrappers are installed; the wire in between stays real TCP.
    """

    def __init__(self, sizes, workdir: Path) -> None:
        self.engine = AssignmentEngine(
            solver=GreedySolver(), eta=sizes["eta"], rng=SERVER_SEED,
            durable_path=workdir / "wire.db",
            durable_snapshot_every=int(sizes["snapshot_every"]),
        )
        self.server: Optional[AssignmentServer] = None
        self.port = 0
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, args=(sizes,), daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0) or self._failure is not None:
            raise RuntimeError(f"in-process server failed to start: {self._failure!r}")

    def _run(self, sizes) -> None:
        async def serve() -> None:
            self.server = AssignmentServer(
                self.engine, port=0, capacity=int(sizes["capacity"])
            )
            await self.server.start()
            self.port = self.server.bound_port
            self._ready.set()
            await self.server.wait_stopped()

        try:
            asyncio.run(serve())
        except BaseException as exc:  # surfaced to the starting thread
            self._failure = exc
            self._ready.set()

    def close(self) -> None:
        """Join the loop thread (the ``shutdown`` op has stopped the server)."""
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("in-process server did not stop after shutdown")


# ---------------------------------------------------------------------- #
# The client
# ---------------------------------------------------------------------- #


class Conn:
    """One non-blocking, line-framed connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self._partial = b""

    def fileno(self) -> int:
        """The socket's descriptor (``select`` takes the connection itself)."""
        return self.sock.fileno()

    def send(self, data: bytes) -> None:
        """Queue ``data``; writes whatever the socket accepts right now."""
        self.out += data
        self.flush()

    def flush(self) -> None:
        """Write as much of the queued output as the socket accepts."""
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def receive(self) -> List[bytes]:
        """Every complete line that has arrived."""
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("server closed the connection")
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        return lines


class Session:
    """A fleet connection and a control connection to one server.

    Every request is registered as pending under its id with its due
    instant and op; every response is matched, timed from that due
    instant and counted as a succeeded or failed op.  Requests still
    pending when a wait's settle timeout expires are failed ops.
    """

    def __init__(self, port: int, ops: Ops) -> None:
        self.ops = ops
        self.fleet = Conn(port)
        self.control = Conn(port)
        self.pending: Dict[Conn, Dict[int, Tuple[int, str]]] = {
            self.fleet: {},
            self.control: {},
        }
        #: op -> ``(due_ns, answered_ns)`` per acknowledged request.
        self.answered: Dict[str, List[Tuple[int, int]]] = {}
        #: ``(due_ns, answered_ns)`` per epoch response, in order.
        self.epochs: List[Tuple[int, int]] = []
        self.last_response: Optional[dict] = None
        self.pushes = 0
        self._control_ids = iter(range(1, 1 << 62))
        self._chunk_cursor = 0

    def close(self) -> None:
        """Close both sockets."""
        self.fleet.sock.close()
        self.control.sock.close()

    def post(self, conn: Conn, frames: Sequence[Frame], due_ns: Optional[int] = None) -> None:
        """Send ``frames`` in one write, all due now (or at ``due_ns``)."""
        due = perf_counter_ns() if due_ns is None else due_ns
        pending = self.pending[conn]
        for request_id, op, _ in frames:
            pending[request_id] = (due, op)
        conn.send(b"".join(data for _, _, data in frames))

    def pump(self, timeout_s: float) -> None:
        """One ``select`` round: flush queued writes, match arrived responses."""
        conns = (self.fleet, self.control)
        readable, writable, _ = select.select(
            conns, [c for c in conns if c.out], [], max(0.0, timeout_s)
        )
        for conn in writable:
            conn.flush()
        for conn in readable:
            lines = conn.receive()
            now = perf_counter_ns()
            for line in lines:
                self._on_frame(conn, now, json.loads(line))

    def _on_frame(self, conn: Conn, now: int, frame: dict) -> None:
        if "push" in frame:
            self.pushes += 1
            return
        entry = self.pending[conn].pop(frame.get("id"), None)
        if entry is None:
            self.ops.fail(f"unexpected response {frame!r}")
            return
        due, op = entry
        if not frame.get("ok"):
            self.ops.fail(f"{op} refused: {frame.get('code')} {frame.get('error')}")
            return
        self.ops.add()
        self.answered.setdefault(op, []).append((due, now))
        if op == "epoch":
            self.epochs.append((due, now))
        self.last_response = frame

    def settle(self, timeout_s: float = SETTLE_S) -> None:
        """Wait until nothing is pending; what never answers is lost."""
        deadline = perf_counter_ns() + int(timeout_s * 1e9)
        while any(self.pending.values()) or self.fleet.out or self.control.out:
            remaining = (deadline - perf_counter_ns()) / 1e9
            if remaining <= 0:
                break
            self.pump(remaining)
        for pending in self.pending.values():
            if pending:
                self.ops.fail(
                    f"{len(pending)} requests unanswered after {timeout_s} s",
                    len(pending),
                )
                pending.clear()

    def ask(self, request_cls, *fields) -> Optional[dict]:
        """One awaited control request; its response (``None`` if lost)."""
        request = request_cls(next(self._control_ids), *fields)
        self.last_response = None
        self.post(self.control, encode([request]))
        self.settle()
        return self.last_response

    def send_chunks(self, frames: Sequence[Frame], chunk_size: int) -> None:
        """Stop-and-wait chunks on the fleet connection.

        The window stays below the server's per-connection outbox (256
        frames, oldest dropped when it wraps), so no ack can be lost to a
        burst the server answers without yielding to its writer.
        """
        for start in range(0, len(frames), chunk_size):
            self.post(self.fleet, frames[start : start + chunk_size])
            self.settle()

    def register(self, frames: Sequence[Frame], chunk_size: int) -> Optional[dict]:
        """Register the population and take the first decision."""
        self.send_chunks(frames, chunk_size)
        return self.ask(proto.Epoch, 0.0)

    def open_loop(
        self,
        frames: Sequence[Frame],
        due_s: Sequence[float],
        duration_s: float,
        epoch_every_s: float,
    ) -> List[int]:
        """Send each frame at its due instant; ``epoch`` on a fixed cadence.

        The schedule does not slow when the server does: a stalled
        server meets the same due instants, and the wait shows up in the
        latencies (timed from *due*).  The one concession is a window of
        ``MAX_IN_FLIGHT`` unanswered fleet requests, just below the
        server's per-connection outbox (256 frames, oldest dropped): past
        it the server can answer a buffered burst without yielding to its
        writer and drop acks, which would turn a slow run into a lossy
        one.  A send held back by the window is late, and counted so.
        ``due_s`` are offsets from the loop's start.  Returns how late
        each send actually ran (ns).
        """
        start = perf_counter_ns() + 20_000_000
        due_ns = [start + int(offset * 1e9) for offset in due_s]
        end_ns = start + int(duration_s * 1e9)
        step_ns = int(epoch_every_s * 1e9)
        epoch_due = start + step_ns
        late: List[int] = []
        pending = self.pending[self.fleet]
        sent = 0
        while True:
            now = perf_counter_ns()
            while (
                sent < len(frames)
                and due_ns[sent] <= now
                and len(pending) < MAX_IN_FLIGHT
            ):
                request_id, op, data = frames[sent]
                pending[request_id] = (due_ns[sent], op)
                self.fleet.send(data)
                late.append(now - due_ns[sent])
                sent += 1
                now = perf_counter_ns()
            while epoch_due <= now and epoch_due < end_ns:
                request = proto.Epoch(next(self._control_ids), 0.0)
                self.post(self.control, encode([request]), due_ns=epoch_due)
                epoch_due += step_ns
            if sent == len(frames) and now >= end_ns:
                break
            wake = min(due_ns[sent] if sent < len(frames) else end_ns, epoch_due)
            if len(pending) >= MAX_IN_FLIGHT:
                wake = max(wake, now + 1_000_000)  # held by the window: wait for acks
            self.pump((wake - perf_counter_ns()) / 1e9)
        self.settle()
        return late

    def closed_group(
        self, chunks: Sequence[Sequence[Frame]], count: int, epoch_after: bool = True
    ) -> float:
        """``count`` stop-and-wait chunks (cycling on); acked events per second.

        The awaited ``epoch`` that ends the group is inside its wall
        time: the capacity a fleet sees includes the re-planning its
        traffic triggers.
        """
        failed_before = self.ops.failed
        started = perf_counter_ns()
        events = 0
        for _ in range(count):
            chunk = chunks[self._chunk_cursor % len(chunks)]
            self._chunk_cursor += 1
            self.post(self.fleet, chunk)
            self.settle()
            events += len(chunk)
        if epoch_after:
            self.ask(proto.Epoch, 0.0)
        acked = events - (self.ops.failed - failed_before)
        return acked / ((perf_counter_ns() - started) / 1e9)


# ---------------------------------------------------------------------- #
# Verification
# ---------------------------------------------------------------------- #


def replay_reference(
    scenario: scenarios.WireScenario, sizes, served: List[Optional[dict]], ops: Ops
) -> Tuple[float, float]:
    """Replay registration + the scripted rounds on a direct engine.

    The wire must be invisible: every served epoch frame has to carry the
    dispatch and objective the direct engine produces from the same
    events, batched the same way (``IngestBatcher`` fold, one
    ``EventQueue`` flush per epoch).  Returns the objective ratios.
    """
    engine = AssignmentEngine(solver=GreedySolver(), eta=sizes["eta"], rng=SERVER_SEED)
    batcher = IngestBatcher(capacity=int(sizes["capacity"]))
    known = set()

    def ingest(requests) -> None:
        for request in requests:
            if isinstance(request, proto.SubmitTask):
                event = TaskArrive(time=request.time, task=request.task)
            elif request.worker.worker_id in known:
                event = WorkerUpdate(time=request.time, worker=request.worker)
            else:
                known.add(request.worker.worker_id)
                event = WorkerArrive(time=request.time, worker=request.worker)
            if not batcher.try_add(event):
                raise RuntimeError("reference batcher refused an event")

    served_std = served_rel = ref_std = ref_rel = 0.0
    try:
        for index, batch in enumerate([scenario.registration] + scenario.rounds):
            ingest(batch)
            queue = EventQueue(batcher.drain())
            queue.push(EpochTick(time=0.0))
            (result,) = engine.process(queue)
            expected = proto.epoch_payload(result)
            frame = served[index] if index < len(served) else None
            if not ops.check(frame is not None, f"round {index}: no epoch response"):
                continue
            ops.check(
                frame["dispatch"] == expected["dispatch"]
                and frame["objective"] == expected["objective"],
                f"round {index}: served plan differs from the direct engine's",
            )
            served_rel += frame["objective"][0]
            served_std += frame["objective"][1]
            ref_rel += expected["objective"][0]
            ref_std += expected["objective"][1]
    finally:
        engine.close()
    return served_std / ref_std, served_rel / ref_rel


def check_stats(stats: Optional[dict], ops: Ops) -> Dict[str, float]:
    """The server's own accounting must agree that nothing was lost."""
    if not ops.check(stats is not None, "no stats response"):
        return {}
    serve = stats["serve"]
    ops.check(stats["pending"] == 0, f"{stats['pending']} events never flushed")
    ops.check(
        serve["events_flushed"] == serve["events_ingested"],
        "server flushed fewer events than it admitted",
    )
    for counter in ("protocol_errors", "rejected_invalid", "admission_rejects"):
        ops.check(serve[counter] == 0, f"server counted {serve[counter]} {counter}")
    return serve




# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #


def _latencies_ms(samples) -> List[float]:
    return [(done - due) / 1e6 for due, done in samples]


def _decision_lags_ms(pings, epochs) -> List[float]:
    """Ping due -> response of the first epoch issued after the ping's ack."""
    issued = [due for due, _ in epochs]
    lags = []
    for due, acked in pings:
        index = bisect.bisect_left(issued, acked)
        if index < len(epochs):
            lags.append((epochs[index][1] - due) / 1e6)
    return lags


def _scenario(seed: int, sizes, stream_s: float, rate_hz: float) -> scenarios.WireScenario:
    return scenarios.wire_scenario(
        seed,
        num_tasks=int(sizes["num_tasks"]),
        num_workers=int(sizes["num_workers"]),
        rate_hz=rate_hz,
        stream_seconds=stream_s,
        rounds=int(sizes["rounds"]),
        round_pings=int(sizes["round_pings"]),
        chunk_size=int(sizes["chunk_size"]),
        num_chunks=int(sizes["num_chunks"]),
    )


def connect(port: int, sizes, registration: Sequence[Frame], ops: Ops):
    """Open a session, register the population, take the first decision."""
    session = Session(port, ops)
    try:
        first = session.register(registration, int(sizes["chunk_size"]))
        session.ask(proto.Subscribe)
    except BaseException:
        session.close()
        raise
    return session, first


def shutdown(session: Session, server) -> None:
    """Stop a server through its own ``shutdown`` op and reap it.

    The server closes its connections as it stops, possibly before the
    acknowledgement is read: a closed connection is the expected outcome
    here, not a lost request.
    """
    try:
        session.ask(proto.Shutdown)
    except ConnectionError:
        for pending in session.pending.values():
            pending.clear()
    session.close()
    server.close()


def run_timed(seed: int, seconds: float, sizes=None):
    """The untraced run against the pinned server subprocess.

    Like the direct workloads, the timed phases are a
    :class:`~e2e.measure.Timeline`: the open loop runs as ``OPEN_WINDOWS``
    back-to-back windows and the closed loop as groups, each between two
    host probes, with the set-up repeats (throwaway servers) in between.
    """
    sizes = sizes or SIZES
    warmup_s = sizes["warmup_s"]
    open_s = sizes["open_share"] * seconds
    window_s = open_s / OPEN_WINDOWS
    per_group = int(sizes["chunks_per_epoch"])
    groups = max(1, round(sizes["chunks_per_second"] * (seconds - open_s) / per_group))
    every = sizes["epoch_every_s"]
    scenario = _scenario(seed, sizes, warmup_s + open_s, sizes["rate_hz"])
    registration = encode(scenario.registration)
    rounds = [encode(batch) for batch in scenario.rounds]
    stream = encode(scenario.stream)
    chunks = [encode(batch) for batch in scenario.chunks]
    split = bisect.bisect_left(scenario.due_s, warmup_s)
    timed = stream[split:]
    timed_due = [due - warmup_s for due in scenario.due_s[split:]]
    ops = Ops()
    core, pin_note = pin_cores()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="wire_fleet-", dir=OUT_DIR))
    builds = iter(range(1 << 30))
    live: List[Tuple[ServerProcess, Session]] = []
    served: List[Optional[dict]] = []

    def timed_build(keep: bool) -> float:
        build_dir = workdir / f"build{next(builds)}"
        build_dir.mkdir()
        started = perf_counter_ns()
        server = ServerProcess(sizes, build_dir, core)
        try:
            session, first = connect(server.port, sizes, registration, ops)
        except BaseException:
            server.close()
            raise
        build_s = (perf_counter_ns() - started) / 1e9
        if keep:
            live.append((server, session))
            served.append(first)
        else:
            shutdown(session, server)
        return build_s

    def open_window(index: int) -> Dict[str, object]:
        server, session = live[0]
        lo = bisect.bisect_left(timed_due, index * window_s)
        hi = bisect.bisect_left(timed_due, (index + 1) * window_s)
        epochs_before = len(session.epochs)
        pings_before = len(session.answered["worker_ping"])
        cpu_before = measure.cpu_seconds([server.pid])
        late = session.open_loop(
            timed[lo:hi],
            [due - index * window_s for due in timed_due[lo:hi]],
            window_s,
            every,
        )
        cpu_s = measure.cpu_seconds([server.pid]) - cpu_before
        epochs = session.epochs[epochs_before:]
        pings = session.answered["worker_ping"][pings_before:]
        return {
            "epoch_ms": [(done - due) / 1e6 for due, done in epochs],
            "ingest_ms": _latencies_ms(pings),
            "lag_ms": _decision_lags_ms(pings, epochs),
            "late_ms": [ns / 1e6 for ns in late],
            "cpu_s": cpu_s,
        }

    timeline = measure.Timeline()
    try:
        timeline.run("setup", lambda: timed_build(keep=True))
        server, session = live[0]
        for batch in rounds:
            session.send_chunks(batch, int(sizes["chunk_size"]))
            served.append(session.ask(proto.Epoch, 0.0))
        session.open_loop(stream[:split], scenario.due_s[:split], warmup_s, every)

        measure.quiesce()
        rebuild_before = {
            round(k * OPEN_WINDOWS / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)
        }
        for index in range(OPEN_WINDOWS):
            if index in rebuild_before:
                timeline.run("setup", lambda: timed_build(keep=False))
            timeline.run("open", lambda: open_window(index))
        for _ in range(groups):
            timeline.run("closed", lambda: session.closed_group(chunks, per_group))

        serve = check_stats(session.ask(proto.Stats), ops)
        rss = measure.peak_rss_mb([server.pid])
        shutdown(session, server)
    finally:
        for server, session in live:
            session.close()
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)

    std_ratio, rel_ratio = replay_reference(scenario, sizes, served, ops)
    kept = timeline.clean("open")

    def pooled(key: str) -> List[float]:
        return [value for window in kept for value in window[key]]

    # Per window, then the median: one host stall makes one window's
    # generator late; a generator that cannot keep its schedule is late in
    # most of them.
    late_p99 = measure.median(
        [measure.percentile(window["late_ms"], 0.99) for window in kept]
    )
    ops.check(
        late_p99 <= MAX_LATE_P99_MS,
        f"load generator ran late (p99 {late_p99:.2f} ms): the load was not offered",
    )
    epoch_ms, ingest_ms = pooled("epoch_ms"), pooled("ingest_ms")
    values = {
        "setup_s": measure.median(timeline.clean("setup")),
        "epoch_p50_ms": measure.percentile(epoch_ms, 0.5),
        "events_per_s": measure.median(timeline.clean("closed")),
        # Pooled, not a median of windows: the server's CPU clock ticks at
        # 10 ms, too coarse for one window's ten epochs.
        "epoch_cpu_ms": 1000.0 * sum(w["cpu_s"] for w in kept) / len(epoch_ms),
        "peak_rss_mb": rss,
        "objective_std_ratio": std_ratio,
        "objective_minrel_ratio": rel_ratio,
    }
    info = {
        "pinning": pin_note,
        "timeline": timeline.summary(),
        "epochs": len(epoch_ms),
        "ungated_epoch_p50_ms": measure.median(
            [ms for window in timeline.every("open") for ms in window["epoch_ms"]]
        ),
        "ungated_events_per_s": measure.median(timeline.every("closed")),
        "epoch_p90_ms": measure.percentile(epoch_ms, 0.9),
        "p90_supported": measure.supported(len(epoch_ms), 0.9),
        "ingest_samples": len(ingest_ms),
        "ingest_p50_ms": measure.percentile(ingest_ms, 0.5),
        "ingest_p90_ms": measure.percentile(ingest_ms, 0.9),
        "ingest_p99_ms": measure.percentile(ingest_ms, 0.99),
        "decision_lag_p50_ms": measure.median(pooled("lag_ms")),
        "late_p99_ms": late_p99,
        "updates_shed": serve.get("updates_shed"),
        "pushes": session.pushes,
    }
    return values, ops, info


def run_traced(seed: int, sizes=None):
    """The traced run: the deployment's numbers, then in-process spans."""
    sizes = sizes or SIZES
    ops = Ops()
    core, pin_note = pin_cores()
    every = sizes["epoch_every_s"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="wire_fleet-", dir=OUT_DIR))
    try:
        # 1. The deployment shape, untraced: user-visible latencies, the
        #    server's own counters, and its CPU per ingested event (from
        #    closed-loop chunks with no epoch in between).
        open_s = sizes["trace_open_s"]
        scenario = _scenario(seed, sizes, open_s, sizes["rate_hz"])
        (workdir / "sub").mkdir()
        server = ServerProcess(sizes, workdir / "sub", core)
        session = None
        try:
            session, _ = connect(server.port, sizes, encode(scenario.registration), ops)
            late = session.open_loop(encode(scenario.stream), scenario.due_s, open_s, every)
            pings = list(session.answered["worker_ping"])
            epochs = list(session.epochs)
            session.ask(proto.Epoch, 0.0)  # flush the stream's last events
            serve = check_stats(session.ask(proto.Stats), ops)
            cpu_before = measure.cpu_seconds([server.pid])
            session.closed_group(
                [encode(batch) for batch in scenario.chunks],
                int(sizes["trace_cpu_chunks"]),
                epoch_after=False,
            )
            cpu_s = measure.cpu_seconds([server.pid]) - cpu_before
            chunk_acked = len(session.answered["worker_ping"]) - len(pings)
            shutdown(session, server)
        finally:
            if session is not None:
                session.close()
            server.close()
        ingest_ms = _latencies_ms(pings)
        values = {
            "serve.server_cpu_us_per_event": 1e6 * cpu_s / chunk_acked,
            "serve.shed_share": serve["updates_shed"]
            / (serve["updates_shed"] + serve["events_ingested"]),
            "serve.queue_high_watermark": serve["queue_high_watermark"],
            "serve.admission_waits": serve["admission_waits"],
            "serve.frames_streamed": serve["frames_streamed"],
            "serve.frames_dropped": serve["frames_dropped"],
            "serve.ingest_p50_ms": measure.percentile(ingest_ms, 0.5),
            "serve.ingest_p90_ms": measure.percentile(ingest_ms, 0.9),
            "serve.ingest_p99_ms": measure.percentile(ingest_ms, 0.99),
            "engine.epoch_p90_ms": measure.percentile(
                [(done - due) / 1e6 for due, done in epochs], 0.9
            ),
            "serve.decision_lag_p50_ms": measure.median(_decision_lags_ms(pings, epochs)),
            "loadgen.late_p99_ms": measure.percentile(late, 0.99) / 1e6,
        }
        values.update(codec_costs(scenario, sizes))

        # 2. The same stream shape against an in-process server, untraced
        #    and then traced: spans around the serve tier's own calls.
        open_s = sizes["trace_inprocess_s"]
        scenario = _scenario(seed, sizes, open_s, sizes["trace_inprocess_hz"])
        registration = encode(scenario.registration)
        stream = encode(scenario.stream)
        recorder = trace.Recorder()

        def in_process(label: str) -> dict:
            (workdir / label).mkdir()
            server = InProcessServer(sizes, workdir / label)
            session = None
            try:
                session, _ = connect(server.port, sizes, registration, ops)
                metrics = server.engine.metrics
                solve_before, epochs_before = metrics.solve_seconds, metrics.epochs
                recorder.spans.clear()  # keep the stream's spans only
                recorder.ident = 0
                session.open_loop(stream, scenario.due_s, open_s, every)
                stream_epochs = session.epochs[1:]
                session.ask(proto.Epoch, 0.0)  # flush the stream's last events
                check_stats(session.ask(proto.Stats), ops)
                out = {
                    "epoch_ms": [(done - due) / 1e6 for due, done in stream_epochs],
                    "records": metrics.history[
                        epochs_before : epochs_before + len(stream_epochs)
                    ],
                    "solve_s": metrics.solve_seconds - solve_before,
                    "wal": wal_stats(server.engine),
                }
                shutdown(session, server)
            finally:
                if session is not None:
                    session.close()
            return out

        plain = in_process("plain")
        with trace.installed(recorder):
            traced = in_process("traced")
        recorder.flush(OUT_DIR / "trace-wire_fleet.jsonl")
        values.update(_serve_layers(plain, traced, recorder.spans, len(stream), values))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return values, ops, {"pinning": pin_note, "spans": len(recorder.spans)}


def codec_costs(scenario: scenarios.WireScenario, sizes) -> Dict[str, float]:
    """Per-event cost of the serve tier's own calls on the stream's frames.

    Plain loops over ``protocol.decode_request`` / ``encode_ok`` and
    ``IngestBatcher.try_add`` / ``drain``, alone on a core: what the
    server pays per event before asyncio and the socket, without the
    tracing wrappers and the in-process server's GIL contention.
    """
    lines = [data for _, _, data in encode(scenario.stream)]
    started = perf_counter_ns()
    requests = [proto.decode_request(line) for line in lines]
    decode_ns = perf_counter_ns() - started
    pings = [r for r in requests if isinstance(r, proto.WorkerPing)]
    events = [WorkerUpdate(time=r.time, worker=r.worker) for r in pings]
    batcher = IngestBatcher(capacity=int(sizes["capacity"]))
    started = perf_counter_ns()
    for event in events:
        batcher.try_add(event)
    add_ns = perf_counter_ns() - started
    buffered = len(batcher)
    started = perf_counter_ns()
    batcher.drain()
    drain_ns = perf_counter_ns() - started
    started = perf_counter_ns()
    for request in requests:
        proto.encode_ok(request.request_id, pending=buffered)
    encode_ns = perf_counter_ns() - started
    return {
        "serve.decode_us": decode_ns / 1e3 / len(lines),
        "serve.batcher_add_us": add_ns / 1e3 / len(events),
        "serve.drain_us_per_event": drain_ns / 1e3 / buffered,
        "serve.encode_us": encode_ns / 1e3 / len(requests),
    }


def _serve_layers(plain, traced, spans, stream_events: int, deployed) -> Dict[str, float]:
    """Engine-layer and driver metrics from the in-process traced pass."""
    driver = trace.totals(spans).get("serve.driver_epoch", (0, 0, 0))
    records = traced["records"]
    layers = layer_values(
        records, driver[1] / 1e9, traced["solve_s"], spans, stream_events / len(records)
    )
    layers.update(
        {
            "serve.driver_epoch_ms": driver[1] / 1e6 / driver[0] if driver[0] else 0.0,
            "serve.residual_us": deployed["serve.server_cpu_us_per_event"]
            - sum(
                deployed[name]
                for name in ("serve.decode_us", "serve.batcher_add_us", "serve.encode_us")
            ),
            "wal.bytes_per_event": traced["wal"]["bytes"] / traced["wal"]["events"],
            "trace.overhead_ratio": measure.median(traced["epoch_ms"])
            / measure.median(plain["epoch_ms"]),
        }
    )
    return layers
