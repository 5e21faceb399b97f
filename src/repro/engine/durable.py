"""Durable engine state: a write-ahead event log + snapshot/restore.

Everything the long-lived engine knows — grid residents, the live
assignment, the previous epoch's plan, the RNG contract position — lives
in RAM, so a crash loses the session and post-hoc analytics must re-run
the solver.  This module adds the missing persistence layer:

``DurableLog``
    An append-only SQLite log (WAL mode) holding one row per typed churn
    event (:mod:`repro.engine.events`), one *epoch marker* per
    :meth:`~repro.engine.engine.AssignmentEngine.epoch` (its clock time,
    pinned profiles, forbidden pairs, RNG position, and — for analytics —
    the solved objective and dispatch), and periodic full-state
    snapshots.  The engine appends to it live; analytics read it cold
    (:meth:`DurableLog.epoch_history` walks the assignment history
    without re-running any solver).

codecs
    JSON round-trips for every persisted object.  Floats survive
    bit-exactly (``json`` serialises via ``repr``, which round-trips
    IEEE-754 doubles), and the NumPy bit-generator state dict is plain
    arbitrary-precision integers — so a restored engine resumes the
    *exact* RNG stream, which is what keeps SAMPLING plans bit-identical
    (``substream_base_seed`` draws from that stream every solve).

``restore_engine``
    The recovery contract: build the engine the log's meta row describes,
    install the latest snapshot (:func:`apply_snapshot`), then replay the
    log tail (:func:`replay_records`).  The result reproduces the live
    engine's per-epoch plans bit-exactly on both backends, full and warm
    solve modes, single or sharded — pinned by the kill-and-recover
    differential tests in ``tests/test_durable.py``.

The SQLite pragmas follow the battle-tested WAL recipe (readers never
block the appender; ``synchronous=NORMAL`` is durable at WAL
checkpoints; a generous busy timeout instead of instant lock errors).

Replay semantics: an epoch marker restores the logged RNG position
*before* re-running the epoch, so replay stays bit-exact even when the
engine's generator is shared with an outside consumer between epochs
(the platform simulator draws answer outcomes from the same stream).
For an engine-exclusive generator, the restored engine's post-replay
stream position equals the live engine's, so *continued* epochs match
too; with a shared generator the interleaved outside draws are not in
the log, so continuation beyond the replayed history is deterministic
but not guaranteed to match a run that never crashed.
"""

from __future__ import annotations

import json
import sqlite3
import time as _time
from datetime import datetime, timezone
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.diversity import WorkerProfile
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.solvers.incremental import EpochDelta, PreviousPlan

#: Bumped when the log/snapshot layout changes incompatibly.
SCHEMA_VERSION = 1

#: One decoded log row: ``(seq, kind, time, payload)``.
LogRecord = Tuple[int, str, float, Dict[str, Any]]

_SCHEMA = """
PRAGMA journal_mode = WAL;
PRAGMA foreign_keys = ON;
PRAGMA synchronous = NORMAL;
PRAGMA busy_timeout = 30000;

CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    kind    TEXT NOT NULL,
    time    REAL NOT NULL,
    payload TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS snapshots (
    snap_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    event_seq  INTEGER NOT NULL,
    created_at TEXT NOT NULL,
    payload    TEXT NOT NULL
);
"""


def _json_default(value: Any) -> Any:
    """Coerce NumPy scalars (bit-generator state words) to plain ints."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialise {type(value).__name__} to JSON")


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, separators=(",", ":"), default=_json_default)


class DurableLog:
    """The append-only session log: meta + events + snapshots.

    One ``DurableLog`` belongs to one engine session.  The engine appends
    typed events as they are applied and an epoch marker per tick; every
    ``durable_snapshot_every`` epochs it also serialises a full
    :class:`~repro.engine.engine.EngineSnapshot`, so recovery replays a
    bounded tail instead of the whole history.

    Attributes:
        timings: cumulative engine-side costs — ``append_seconds`` (WAL
            appends, the per-event overhead ``bench_durability.py``
            records) and ``snapshot_seconds`` (periodic serialisation).
        stats: ``events_appended`` / ``append_batches`` /
            ``snapshots_written`` / ``compactions`` counters.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        # The service tier runs epochs on worker threads while holding the
        # engine lock; access is serialised there, so the connection may
        # legitimately move between threads (never used concurrently).
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._closed = False
        self.timings: Dict[str, float] = {
            "append_seconds": 0.0,
            "snapshot_seconds": 0.0,
        }
        self.stats: Dict[str, int] = {
            "events_appended": 0,
            "append_batches": 0,
            "snapshots_written": 0,
            "compactions": 0,
        }

    # ------------------------------------------------------------------ #
    # Meta
    # ------------------------------------------------------------------ #

    def set_meta(self, mapping: Dict[str, Any]) -> None:
        """Upsert JSON-encoded session metadata (engine configuration)."""
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                [(key, _dumps({"v": value})) for key, value in mapping.items()],
            )

    def meta(self) -> Dict[str, Any]:
        """The decoded session metadata (empty for a virgin log)."""
        rows = self._conn.execute("SELECT key, value FROM meta").fetchall()
        return {key: json.loads(value)["v"] for key, value in rows}

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def append_events(
        self, records: Sequence[Tuple[str, float, Dict[str, Any]]]
    ) -> None:
        """Append ``(kind, time, payload)`` records as one transaction."""
        if not records:
            return
        started = _time.perf_counter()
        with self._conn:
            self._conn.executemany(
                "INSERT INTO events (kind, time, payload) VALUES (?, ?, ?)",
                [
                    (kind, event_time, _dumps(payload))
                    for kind, event_time, payload in records
                ],
            )
        self.timings["append_seconds"] += _time.perf_counter() - started
        self.stats["events_appended"] += len(records)
        self.stats["append_batches"] += 1

    def last_seq(self) -> int:
        """Sequence number of the newest event (0 for an empty log)."""
        row = self._conn.execute("SELECT COALESCE(MAX(seq), 0) FROM events").fetchone()
        return int(row[0])

    def tail(self, after_seq: int = 0) -> Iterator[LogRecord]:
        """Decoded events with ``seq > after_seq``, in append order."""
        cursor = self._conn.execute(
            "SELECT seq, kind, time, payload FROM events WHERE seq > ? ORDER BY seq",
            (after_seq,),
        )
        for seq, kind, event_time, payload in cursor:
            yield int(seq), kind, float(event_time), json.loads(payload)

    def epoch_history(self) -> List[Dict[str, Any]]:
        """Every epoch marker, decoded — the assignment history.

        Each entry carries ``now``, ``mode``, ``objective`` (``[min
        reliability, total E[STD]]``) and ``dispatch`` (sorted ``[worker
        id, task id]`` pairs), so reporting over a finished session needs
        no solver re-run.
        """
        return [
            {
                "seq": seq,
                "now": payload["now"],
                "mode": payload["mode"],
                "objective": payload["objective"],
                "dispatch": payload["dispatch"],
            }
            for seq, kind, _, payload in self.tail(0)
            if kind == "epoch"
        ]

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def write_snapshot(self, event_seq: int, payload: Dict[str, Any]) -> None:
        """Persist a full-state snapshot positioned after ``event_seq``."""
        started = _time.perf_counter()
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        with self._conn:
            self._conn.execute(
                "INSERT INTO snapshots (event_seq, created_at, payload) "
                "VALUES (?, ?, ?)",
                (event_seq, created_at, _dumps(payload)),
            )
        self.timings["snapshot_seconds"] += _time.perf_counter() - started
        self.stats["snapshots_written"] += 1

    def latest_snapshot(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """The newest ``(event_seq, payload)`` snapshot, if any."""
        row = self._conn.execute(
            "SELECT event_seq, payload FROM snapshots ORDER BY snap_id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return int(row[0]), json.loads(row[1])

    def num_snapshots(self) -> int:
        """Snapshots persisted over the session's lifetime."""
        row = self._conn.execute("SELECT COUNT(*) FROM snapshots").fetchone()
        return int(row[0])

    def compact(
        self, retain_snapshots: int = 1, vacuum: bool = False
    ) -> Dict[str, Any]:
        """Truncate history made redundant by newer snapshots.

        A multi-day session's log grows without bound even though
        recovery only ever needs the latest snapshot plus its tail.
        Compaction keeps the newest ``retain_snapshots`` snapshots and
        deletes every event (epoch markers included) at or before the
        *oldest retained* snapshot's position — exactly the prefix no
        retained restore point replays.  Restores from the surviving
        snapshots are bit-exact: their payloads and tails are untouched,
        and event sequence numbers are ``AUTOINCREMENT`` so later appends
        never reuse a truncated seq.

        Args:
            retain_snapshots: how many of the newest snapshots (and
                therefore restore points) to keep; at least 1.
            vacuum: also ``VACUUM`` afterwards to return the freed pages
                to the filesystem (a full file rewrite — worth it after a
                large truncation, not per call).

        Returns:
            Stats: ``events_deleted`` / ``snapshots_deleted`` counts, the
            ``cutoff_seq`` events were truncated through, and whether the
            file was vacuumed.

        Raises:
            ValueError: for ``retain_snapshots < 1`` or a log that has no
                snapshot yet (nothing is provably redundant).
        """
        if retain_snapshots < 1:
            raise ValueError(
                f"retain_snapshots must be at least 1, got {retain_snapshots}"
            )
        rows = self._conn.execute(
            "SELECT snap_id, event_seq FROM snapshots "
            "ORDER BY snap_id DESC LIMIT ?",
            (retain_snapshots,),
        ).fetchall()
        if not rows:
            raise ValueError(
                "cannot compact a log without a snapshot; write one first"
            )
        oldest_kept_id, cutoff_seq = rows[-1]
        with self._conn:
            events_deleted = self._conn.execute(
                "DELETE FROM events WHERE seq <= ?", (cutoff_seq,)
            ).rowcount
            snapshots_deleted = self._conn.execute(
                "DELETE FROM snapshots WHERE snap_id < ?", (oldest_kept_id,)
            ).rowcount
        if vacuum:
            # VACUUM must run outside a transaction; the context manager
            # above committed the deletes already.
            self._conn.execute("VACUUM")
        self.stats["compactions"] += 1
        return {
            "events_deleted": int(events_deleted),
            "snapshots_deleted": int(snapshots_deleted),
            "snapshots_retained": len(rows),
            "cutoff_seq": int(cutoff_seq),
            "vacuumed": bool(vacuum),
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and close the underlying connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._conn.close()

    def __enter__(self) -> "DurableLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Solver configuration fingerprints
# ---------------------------------------------------------------------- #


def solver_config(solver) -> Dict[str, Any]:
    """A solver's constructor-parameter fingerprint, JSON-safe.

    Written into the durable meta row alongside the solver class name and
    compared by :func:`restore_engine`, so a restore with the right class
    but the wrong parameters (a different sampling budget, a different
    backend, pruning toggled) fails loudly instead of silently replaying
    a different decision sequence.  Warm-start wrappers fingerprint their
    base recursively; unknown solver types record an empty dict (the
    class-name check still applies, parameters go unvalidated — exactly
    the pre-fingerprint behaviour).
    """
    from repro.algorithms.greedy import GreedySolver
    from repro.algorithms.sampling import SUBSTREAM_V1, SamplingSolver
    from repro.solvers.incremental import WarmStartSamplingSolver, WarmStartSolver

    if isinstance(solver, WarmStartSolver):
        config: Dict[str, Any] = {"base": solver_config(solver.base)}
        if isinstance(solver, WarmStartSamplingSolver):
            config["fresh_fraction"] = solver.fresh_fraction
            config["min_fresh"] = solver.min_fresh
        return config
    if isinstance(solver, GreedySolver):
        return {"use_pruning": solver.use_pruning, "backend": solver.backend}
    if isinstance(solver, SamplingSolver):
        return {
            "num_samples": solver.num_samples,
            "backend": solver.backend,
            "rng_contract": SUBSTREAM_V1,
        }
    return {}


# ---------------------------------------------------------------------- #
# Entity codecs (flat rows; floats round-trip bit-exactly through json)
# ---------------------------------------------------------------------- #


def task_row(task: SpatialTask) -> List[Any]:
    """``SpatialTask`` as a flat JSON row."""
    return [
        task.task_id,
        task.location.x,
        task.location.y,
        task.start,
        task.end,
        task.beta,
    ]


def task_from_row(row: Sequence[Any]) -> SpatialTask:
    """Inverse of :func:`task_row`."""
    return SpatialTask(
        task_id=int(row[0]),
        location=Point(row[1], row[2]),
        start=row[3],
        end=row[4],
        beta=row[5],
    )


def worker_row(worker: MovingWorker) -> List[Any]:
    """``MovingWorker`` as a flat JSON row.

    The stored cone ``lo`` is already normalised (``AngleInterval``
    normalises on construction and the mapping is idempotent), so the
    re-constructed interval is bit-identical.
    """
    return [
        worker.worker_id,
        worker.location.x,
        worker.location.y,
        worker.velocity,
        worker.cone.lo,
        worker.cone.width,
        worker.confidence,
        worker.depart_time,
    ]


def worker_from_row(row: Sequence[Any]) -> MovingWorker:
    """Inverse of :func:`worker_row`."""
    return MovingWorker(
        worker_id=int(row[0]),
        location=Point(row[1], row[2]),
        velocity=row[3],
        cone=AngleInterval(row[4], row[5]),
        confidence=row[6],
        depart_time=row[7],
    )


def encode_pinned(pinned) -> Optional[Dict[str, List[List[Any]]]]:
    """``{task id -> [WorkerProfile]}`` as JSON (None when empty)."""
    if not pinned:
        return None
    return {
        str(task_id): [
            [p.worker_id, p.angle, p.arrival, p.confidence] for p in profiles
        ]
        for task_id, profiles in pinned.items()
    }


def decode_pinned(obj) -> Optional[Dict[int, List[WorkerProfile]]]:
    """Inverse of :func:`encode_pinned`."""
    if not obj:
        return None
    return {
        int(task_id): [
            WorkerProfile(
                worker_id=int(row[0]),
                angle=row[1],
                arrival=row[2],
                confidence=row[3],
            )
            for row in rows
        ]
        for task_id, rows in obj.items()
    }


def encode_forbidden(forbidden) -> Optional[List[List[int]]]:
    """``{(worker id, task id)}`` as a sorted JSON list (None when empty)."""
    if not forbidden:
        return None
    return sorted([worker_id, task_id] for worker_id, task_id in forbidden)


def decode_forbidden(obj):
    """Inverse of :func:`encode_forbidden`."""
    if not obj:
        return None
    return {(int(worker_id), int(task_id)) for worker_id, task_id in obj}


# ---------------------------------------------------------------------- #
# RNG position
# ---------------------------------------------------------------------- #


def rng_spec(rng) -> Dict[str, Any]:
    """Serialise an engine's RNG so replay resumes the exact stream.

    An ``int`` seed is stateless across epochs (:func:`repro.algorithms.
    base.make_rng` builds a fresh generator from it each solve), so the
    value itself is the whole position.  A ``numpy.random.Generator``
    advances across epochs — ``substream_base_seed`` draws one integer
    from it per SAMPLING solve — so its *bit-generator state* is
    captured; a restore that re-seeded from scratch would silently
    diverge every subsequent plan.

    Raises:
        ValueError: for ``rng=None`` — a nondeterministic engine cannot
            honour the bit-identical replay contract.
        TypeError: for any other rng type.
    """
    if rng is None:
        raise ValueError(
            "durable logging requires a deterministic rng: pass an int seed "
            "or a numpy Generator to the engine, not rng=None"
        )
    if isinstance(rng, bool):
        raise TypeError(f"cannot serialise rng {rng!r}")
    if isinstance(rng, (int, np.integer)):
        return {"kind": "seed", "value": int(rng)}
    if isinstance(rng, np.random.Generator):
        return {"kind": "generator", "state": rng.bit_generator.state}
    raise TypeError(f"cannot serialise rng {type(rng).__name__!r}")


def rng_from_spec(spec: Dict[str, Any]):
    """Inverse of :func:`rng_spec`: the rng at its captured position."""
    if spec["kind"] == "seed":
        return int(spec["value"])
    state = spec["state"]
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ---------------------------------------------------------------------- #
# Snapshot codec
# ---------------------------------------------------------------------- #


def _encode_plan(plan: Optional[PreviousPlan]) -> Optional[Dict[str, Any]]:
    if plan is None:
        return None
    return {
        "assignment": sorted(plan.assignment.pairs()),
        "signatures": {
            str(worker_id): [[task_id, arrival] for task_id, arrival in signature]
            for worker_id, signature in plan.signatures.items()
        },
        "population": plan.population,
    }


def _decode_plan(obj: Optional[Dict[str, Any]]) -> Optional[PreviousPlan]:
    if obj is None:
        return None
    return PreviousPlan(
        assignment=Assignment.from_pairs(
            [(int(t), int(w)) for t, w in obj["assignment"]]
        ),
        signatures={
            int(worker_id): tuple((int(t), arrival) for t, arrival in rows)
            for worker_id, rows in obj["signatures"].items()
        },
        population=int(obj["population"]),
    )


_DELTA_SETS = (
    "workers_arrived",
    "workers_left",
    "workers_updated",
    "workers_reanchored",
    "workers_held",
    "tasks_arrived",
    "tasks_removed",
)


def _encode_delta(delta: Optional[EpochDelta]) -> Optional[Dict[str, List[int]]]:
    if delta is None:
        return None
    return {name: sorted(getattr(delta, name)) for name in _DELTA_SETS}


def _decode_delta(obj: Optional[Dict[str, List[int]]]) -> EpochDelta:
    delta = EpochDelta()
    if obj is not None:
        for name in _DELTA_SETS:
            getattr(delta, name).update(int(i) for i in obj.get(name, ()))
    return delta


def encode_snapshot(snapshot) -> Dict[str, Any]:
    """An extended :class:`~repro.engine.engine.EngineSnapshot` as JSON."""
    return {
        "schema": SCHEMA_VERSION,
        "tasks": [task_row(task) for task in snapshot.tasks],
        "workers": [worker_row(worker) for worker in snapshot.workers],
        "held": sorted(snapshot.held),
        "assignment": sorted(snapshot.assignment.pairs()),
        "plan": _encode_plan(snapshot.plan),
        "delta": _encode_delta(snapshot.delta),
        "solve_mode": snapshot.solve_mode,
        "rng": snapshot.rng_state,
        "metrics": snapshot.metrics,
        "clock": snapshot.clock,
        "topology": snapshot.topology,
    }


def decode_snapshot(payload: Dict[str, Any]):
    """Inverse of :func:`encode_snapshot`."""
    from repro.engine.engine import EngineSnapshot

    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"snapshot schema {payload.get('schema')!r} is not the supported "
            f"version {SCHEMA_VERSION}"
        )
    return EngineSnapshot(
        tasks=tuple(task_from_row(row) for row in payload["tasks"]),
        workers=tuple(worker_from_row(row) for row in payload["workers"]),
        assignment=Assignment.from_pairs(
            [(int(t), int(w)) for t, w in payload["assignment"]]
        ),
        held=frozenset(int(i) for i in payload["held"]),
        plan=_decode_plan(payload["plan"]),
        delta=_decode_delta(payload["delta"]),
        solve_mode=payload["solve_mode"],
        rng_state=payload["rng"],
        metrics=payload["metrics"],
        clock=payload["clock"],
        topology=payload.get("topology"),
    )


def apply_snapshot(engine, snapshot) -> None:
    """Install a decoded snapshot into a freshly constructed engine.

    Tasks and workers re-register through the public churn methods in
    snapshot (insertion) order, so the grid index, the slot slabs and —
    on the sharded engine — the routing tables and halo aggregates are
    rebuilt by the same code paths the live engine used.  The registration
    side-effects on the delta and the metrics are then overwritten with
    the snapshot's own, and the solver-facing state (assignment, previous
    plan, RNG position) is installed directly.
    """
    if engine.num_tasks or engine.num_workers or engine.metrics.epochs:
        raise ValueError(
            "snapshots restore into a freshly constructed engine only; "
            "this one already holds state"
        )
    if snapshot.topology is not None:
        # The elastic shard-ownership table must be in force *before* any
        # entity re-registers, so every registration routes against the
        # recovered topology from the start.
        engine._install_topology(snapshot.topology)
    if list(snapshot.tasks):
        engine.add_tasks(list(snapshot.tasks))
    if list(snapshot.workers):
        engine.add_workers(list(snapshot.workers))
    for worker_id in sorted(snapshot.held):
        engine.hold_worker(worker_id)
    engine._assignment = snapshot.assignment.copy()
    engine._plan = snapshot.plan
    engine._delta = snapshot.delta if snapshot.delta is not None else EpochDelta()
    engine.metrics.restore_counters(snapshot.metrics)
    if snapshot.rng_state is not None:
        engine.rng = rng_from_spec(snapshot.rng_state)
    engine._clock = snapshot.clock


# ---------------------------------------------------------------------- #
# Replay
# ---------------------------------------------------------------------- #


def replay_records(engine, records: Sequence[LogRecord]) -> int:
    """Re-apply decoded log records through the engine's own methods.

    Epoch markers restore the logged RNG position first, then re-run
    :meth:`~repro.engine.engine.AssignmentEngine.epoch` with the logged
    ``now`` / pinned / forbidden arguments — the solver reruns, which is
    what makes the replayed plans bit-identical rather than merely
    recorded.  Returns the number of records applied.
    """
    applied = 0
    for _, kind, _, payload in records:
        if kind == "task_arrive":
            engine.add_tasks([task_from_row(payload["task"])])
        elif kind == "task_withdraw":
            engine.withdraw_task(int(payload["task_id"]))
        elif kind == "worker_arrive":
            engine.add_workers([worker_from_row(payload["worker"])])
        elif kind == "worker_leave":
            engine.remove_worker(int(payload["worker_id"]))
        elif kind == "worker_update":
            engine.update_workers([worker_from_row(payload["worker"])])
        elif kind == "worker_hold":
            engine.hold_worker(int(payload["worker_id"]))
        elif kind == "worker_release":
            engine.release_worker(int(payload["worker_id"]))
        elif kind == "expire":
            engine.expire_tasks(payload["now"])
        elif kind == "rebalance":
            # Logged before its epoch marker by the elastic engine; the
            # replayed epoch's policy stays quiet (suppression is held),
            # so the logged ops are the only reshapes applied.
            engine.apply_rebalance(payload["ops"])
        elif kind == "epoch":
            engine.rng = rng_from_spec(payload["rng"])
            engine.epoch(
                payload["now"],
                pinned=decode_pinned(payload["pinned"]),
                forbidden=decode_forbidden(payload["forbidden"]),
            )
        else:
            raise ValueError(f"unknown durable event kind {kind!r}")
        applied += 1
    return applied


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def restore_engine(
    path,
    solver=None,
    solve_executor=None,
    shard_executor: Optional[str] = None,
):
    """Recover a live engine from a durable log: snapshot + tail replay.

    Builds the engine class recorded in the log's meta row with its
    recorded configuration, installs the latest snapshot, replays every
    event after it, and adopts the log so the recovered engine keeps
    appending where the dead one stopped.

    Args:
        path: the SQLite log written by an engine's ``durable_path=``.
        solver: the solver to plan with — it must be configured exactly
            as the original.  The log records the class name *and* the
            constructor-parameter fingerprint (:func:`solver_config`);
            both are checked, so a wrong sampling budget or backend fails
            here rather than replaying a different decision sequence.
            ``None`` keeps the engine's default solver.
        solve_executor: optional solve parallelism for the recovered
            engine (``None`` / process count / executor instance, as for
            the engine constructors).  Plans are bit-identical either
            way.
        shard_executor: override the sharded engine's fan-out executor
            (``"sequential"`` / ``"process"``); ``None`` keeps the
            recorded one.  State and plans are identical either way.

    Raises:
        ValueError: for a log without a session, a schema mismatch, or a
            solver class or configuration differing from the recorded
            ones.
    """
    from repro.engine.elastic import ElasticShardedAssignmentEngine
    from repro.engine.engine import AssignmentEngine

    log = DurableLog(path)
    try:
        meta = log.meta()
        if not meta:
            raise ValueError(f"{path} holds no durable engine session")
        if meta.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"durable log schema {meta.get('schema')!r} is not the "
                f"supported version {SCHEMA_VERSION}"
            )
        located = log.latest_snapshot()
        if located is None:
            raise ValueError(f"{path} holds no snapshot to restore from")
        snap_seq, snap_payload = located
        common = dict(
            solver=solver,
            eta=meta["eta"],
            validity=ValidityRule(allow_waiting=meta["allow_waiting"]),
            rng=None,
            backend=meta["backend"],
            reanchor_on_epoch=meta["reanchor_on_epoch"],
            solve_mode=meta["solve_mode"],
            warm_churn_threshold=meta["warm_churn_threshold"],
            solve_executor=solve_executor,
        )
        if meta["engine"] in (
            "ElasticShardedAssignmentEngine",
            # Logs written by the retired static-topology class: it had no
            # rebalance/diff_shipping keys, and the defaults below are
            # exactly its behaviour (static tiling, identical plans).
            "ShardedAssignmentEngine",
        ):
            engine = ElasticShardedAssignmentEngine(
                num_shards=meta["num_shards"],
                halo=meta["halo"],
                executor=shard_executor or meta["shard_executor"],
                rebalance=meta.get("rebalance"),
                diff_shipping=meta.get("diff_shipping", True),
                **common,
            )
        else:
            # Older logs also record whether the engine retrieved pairs
            # through the grid index; the no-index scan returned the same
            # pair set, so that key is ignored.
            engine = AssignmentEngine(**common)
        try:
            if type(engine.solver).__name__ != meta["solver"]:
                raise ValueError(
                    f"log was written with solver {meta['solver']!r} but the "
                    f"restore got {type(engine.solver).__name__!r}; pass the "
                    "original solver (configured identically) to restore_engine"
                )
            recorded_config = meta.get("solver_config")
            if recorded_config is not None:
                # Absent only in pre-fingerprint logs, which keep the old
                # class-name-only validation.  JSON round-trips the dict's
                # bools/ints/floats/strings losslessly, so plain equality
                # is the right comparison.
                actual_config = solver_config(engine.solver)
                if actual_config != recorded_config:
                    raise ValueError(
                        f"log was written with {meta['solver']} configured as "
                        f"{recorded_config!r} but the restore got "
                        f"{actual_config!r}; configure the solver exactly as "
                        "the original session did"
                    )
            engine._durable_suppress += 1
            try:
                apply_snapshot(engine, decode_snapshot(snap_payload))
                replay_records(engine, log.tail(snap_seq))
            finally:
                engine._durable_suppress -= 1
        except BaseException:
            engine.close()
            raise
        engine._adopt_durable(log, snapshot_every=meta.get("snapshot_every"))
    except BaseException:
        log.close()
        raise
    return engine
