"""Structure-of-arrays packing of workers and tasks.

The scalar object model (:class:`repro.core.worker.MovingWorker`,
:class:`repro.core.task.SpatialTask`) is the source of truth; these
containers are flat ``float64``/``int64`` views of the same data, laid out
so the batch kernels in :mod:`repro.fastpath.kernels` can evaluate every
(task, worker) combination with NumPy broadcasting instead of a Python
double loop.

Two packing disciplines coexist:

* :class:`WorkerArrays` / :class:`TaskArrays` — immutable snapshots packed
  from a sequence in one pass (the per-epoch re-pack an offline solver
  uses).
* :class:`WorkerSlots` — a mutable worker slab with *stable slot
  allocation*: each worker occupies one row for its whole lifetime, and
  churn events write single rows in place (free-list reuse, per-slot
  generation counters).  The incremental engine (:mod:`repro.engine`)
  keeps it current per event; a warm GREEDY repair reads its Eq. 8
  weights (:func:`repro.fastpath.kernels.slots_log_weights`).

Derived per-worker quantities that involve transcendental functions — the
Eq. 8 log-confidence weights — are copied from the objects' own scalar
properties rather than recomputed with NumPy ufuncs, so array-backed code
sees bit-identical values to the scalar path (``np.log`` and ``math.log``
may differ in the last ulp).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker


@dataclass(frozen=True)
class WorkerArrays:
    """Column-wise view of a worker set.

    Attributes:
        ids: worker identifiers, aligned with every other column.
        xs / ys: current positions.
        velocities: scalar speeds ``v_j``.
        cone_los / cone_widths: direction cones as (start, CCW width).
        confidences: success probabilities ``p_j``.
        depart_times: clock times the workers start moving.
        log_weights: the Eq. 8 weights ``-ln(1 - p_j)`` (``inf`` at
            ``p_j == 1``), copied from
            :attr:`repro.core.worker.MovingWorker.log_confidence_weight`.
        index_of: worker id -> column position.
    """

    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    velocities: np.ndarray
    cone_los: np.ndarray
    cone_widths: np.ndarray
    confidences: np.ndarray
    depart_times: np.ndarray
    log_weights: np.ndarray
    index_of: Dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def from_workers(cls, workers: Sequence[MovingWorker]) -> "WorkerArrays":
        """Pack a worker sequence, preserving order."""
        n = len(workers)
        ids = np.empty(n, dtype=np.int64)
        xs = np.empty(n)
        ys = np.empty(n)
        velocities = np.empty(n)
        cone_los = np.empty(n)
        cone_widths = np.empty(n)
        confidences = np.empty(n)
        depart_times = np.empty(n)
        log_weights = np.empty(n)
        for j, worker in enumerate(workers):
            ids[j] = worker.worker_id
            xs[j] = worker.location.x
            ys[j] = worker.location.y
            velocities[j] = worker.velocity
            cone_los[j] = worker.cone.lo
            cone_widths[j] = worker.cone.width
            confidences[j] = worker.confidence
            depart_times[j] = worker.depart_time
            log_weights[j] = worker.log_confidence_weight
        return cls(
            ids=ids,
            xs=xs,
            ys=ys,
            velocities=velocities,
            cone_los=cone_los,
            cone_widths=cone_widths,
            confidences=confidences,
            depart_times=depart_times,
            log_weights=log_weights,
            index_of={int(w): j for j, w in enumerate(ids)},
        )


@dataclass(frozen=True)
class TaskArrays:
    """Column-wise view of a task set.

    Attributes:
        ids: task identifiers, aligned with every other column.
        xs / ys: task locations.
        starts / ends: valid periods ``[s_i, e_i]``.
        betas: requester spatial/temporal weights.
        index_of: task id -> row position.
    """

    ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    betas: np.ndarray
    index_of: Dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @classmethod
    def from_tasks(cls, tasks: Sequence[SpatialTask]) -> "TaskArrays":
        """Pack a task sequence, preserving order."""
        m = len(tasks)
        ids = np.empty(m, dtype=np.int64)
        xs = np.empty(m)
        ys = np.empty(m)
        starts = np.empty(m)
        ends = np.empty(m)
        betas = np.empty(m)
        for i, task in enumerate(tasks):
            ids[i] = task.task_id
            xs[i] = task.location.x
            ys[i] = task.location.y
            starts[i] = task.start
            ends[i] = task.end
            betas[i] = task.beta
        return cls(
            ids=ids,
            xs=xs,
            ys=ys,
            starts=starts,
            ends=ends,
            betas=betas,
            index_of={int(t): i for i, t in enumerate(ids)},
        )


# --------------------------------------------------------------------- #
# Stable slot slab (incremental engine)
# --------------------------------------------------------------------- #


class WorkerSlots:
    """Mutable worker slab with stable slot allocation.

    Columns mirror :class:`WorkerArrays`.  Rows are allocated from a LIFO
    free list and stay put for a worker's whole lifetime, so a churn event
    touches exactly one row.  ``alive`` marks occupied rows;
    ``generations[slot]`` increments on every write to that slot (add,
    update, remove), and ``version`` counts mutations globally so callers
    can cache derived snapshots and invalidate them in O(1).
    """

    #: float64 column names beyond ``ids``.
    _float_columns: Tuple[str, ...] = (
        "xs",
        "ys",
        "velocities",
        "cone_los",
        "cone_widths",
        "confidences",
        "depart_times",
        "log_weights",
    )

    def __init__(self, capacity: int = 8) -> None:
        capacity = max(int(capacity), 1)
        self.ids = np.zeros(capacity, dtype=np.int64)
        for name in self._float_columns:
            setattr(self, name, np.zeros(capacity))
        self.alive = np.zeros(capacity, dtype=bool)
        self.generations = np.zeros(capacity, dtype=np.int64)
        self.version = 0
        self.slot_of: Dict[int, int] = {}
        self._objects: Dict[int, MovingWorker] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    # -- storage management -------------------------------------------- #

    @property
    def capacity(self) -> int:
        return int(self.ids.shape[0])

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("ids", "generations", "alive") + self._float_columns:
            column = getattr(self, name)
            grown = np.zeros(new, dtype=column.dtype)
            grown[:old] = column
            setattr(self, name, grown)
        self._free.extend(range(new - 1, old - 1, -1))

    def _alloc(self) -> int:
        if not self._free:
            self._grow()
        return self._free.pop()

    def _write_row(self, slot: int, worker: MovingWorker) -> None:
        self.xs[slot] = worker.location.x
        self.ys[slot] = worker.location.y
        self.velocities[slot] = worker.velocity
        self.cone_los[slot] = worker.cone.lo
        self.cone_widths[slot] = worker.cone.width
        self.confidences[slot] = worker.confidence
        self.depart_times[slot] = worker.depart_time
        self.log_weights[slot] = worker.log_confidence_weight

    # -- churn ---------------------------------------------------------- #

    def add(self, worker: MovingWorker) -> int:
        """Place a new worker; returns its slot.

        Raises:
            ValueError: if the id is already stored.
        """
        key = worker.worker_id
        if key in self.slot_of:
            raise ValueError(f"id {key} already stored")
        slot = self._alloc()
        self._write_row(slot, worker)
        self.ids[slot] = key
        self.alive[slot] = True
        self.generations[slot] += 1
        self.version += 1
        self.slot_of[key] = slot
        self._objects[key] = worker
        return slot

    def update(self, worker: MovingWorker) -> int:
        """Overwrite a worker's row in place; returns its slot.

        Raises:
            KeyError: if the id is not stored.
        """
        key = worker.worker_id
        slot = self.slot_of[key]
        self._write_row(slot, worker)
        self.generations[slot] += 1
        self.version += 1
        self._objects[key] = worker
        return slot

    def remove(self, worker_id: int) -> MovingWorker:
        """Free a worker's slot; returns the stored object.

        The row's payload is left in place (``alive`` marks it dead); the
        slot goes back on the free list for reuse.
        """
        slot = self.slot_of.pop(worker_id)
        worker = self._objects.pop(worker_id)
        self.alive[slot] = False
        self.generations[slot] += 1
        self.version += 1
        self._free.append(slot)
        return worker

    def live_slots(self) -> np.ndarray:
        """Slots currently alive, in ascending slot order."""
        return np.flatnonzero(self.alive)

    def compact(self) -> Tuple[List[MovingWorker], WorkerArrays]:
        """Live workers (slot order) plus an exact-size packed snapshot.

        Column values are sliced from the slab, so they are bit-identical
        to ``WorkerArrays.from_workers(live_objects)`` — every row was
        written from the same scalar attributes a fresh pack would read.
        """
        rows = self.live_slots()
        ids = self.ids[rows].copy()
        arrays = WorkerArrays(
            ids=ids,
            xs=self.xs[rows].copy(),
            ys=self.ys[rows].copy(),
            velocities=self.velocities[rows].copy(),
            cone_los=self.cone_los[rows].copy(),
            cone_widths=self.cone_widths[rows].copy(),
            confidences=self.confidences[rows].copy(),
            depart_times=self.depart_times[rows].copy(),
            log_weights=self.log_weights[rows].copy(),
            index_of={int(w): j for j, w in enumerate(ids)},
        )
        workers = [self._objects[int(w)] for w in ids]
        return workers, arrays


# --------------------------------------------------------------------- #
# Valid-pair wire packing
# --------------------------------------------------------------------- #

def pack_pairs(pairs: Sequence["ValidPair"]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack a valid-pair list into three flat arrays for cheap transport.

    One :class:`repro.core.problem.ValidPair` is a ~200-byte Python object
    whose pickle is dominated by per-instance overhead; a sharded engine's
    process-pool fan-out ships thousands of them back per epoch, so the
    wire format is ``(task_ids int64, worker_ids int64, arrivals
    float64)`` instead — one contiguous buffer per column.  Arrivals are
    copied bit-exactly (no rounding), so :func:`unpack_pairs` reproduces
    the original list exactly.
    """
    n = len(pairs)
    task_ids = np.empty(n, dtype=np.int64)
    worker_ids = np.empty(n, dtype=np.int64)
    arrivals = np.empty(n, dtype=np.float64)
    for k, pair in enumerate(pairs):
        task_ids[k] = pair.task_id
        worker_ids[k] = pair.worker_id
        arrivals[k] = pair.arrival
    return task_ids, worker_ids, arrivals


def unpack_pairs(
    packed: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> List["ValidPair"]:
    """Rebuild the :func:`pack_pairs` pair list, bit-identically."""
    from repro.core.problem import ValidPair

    task_ids, worker_ids, arrivals = packed
    return [
        ValidPair(int(task_id), int(worker_id), float(arrival))
        for task_id, worker_id, arrival in zip(task_ids, worker_ids, arrivals)
    ]


# --------------------------------------------------------------------- #
# Churn-diff wire packing (resident shard shipping)
# --------------------------------------------------------------------- #

#: Float columns of one packed worker row, in wire order.  ``log_weights``
#: is deliberately absent: :class:`repro.core.worker.MovingWorker`
#: recomputes it from ``confidence`` with the same scalar ``math.log``, so
#: shipping the seven constructor fields reproduces the object bit-exactly
#: (the same argument :mod:`repro.engine.durable` relies on).
WORKER_WIRE_FIELDS = (
    "x",
    "y",
    "velocity",
    "cone_lo",
    "cone_width",
    "confidence",
    "depart_time",
)

#: Float columns of one packed task row, in wire order.
TASK_WIRE_FIELDS = ("x", "y", "start", "end", "beta")

#: One packed churn run: ``(kind, payload)`` where worker/task arrivals
#: and updates carry ``(ids int64, fields float64[n, k])`` column blocks
#: and removals carry a bare ``int64`` id array.
PackedRun = Tuple[str, object]


def _pack_worker_rows(
    workers: Sequence[MovingWorker],
) -> Tuple[np.ndarray, np.ndarray]:
    ids = np.empty(len(workers), dtype=np.int64)
    fields = np.empty((len(workers), len(WORKER_WIRE_FIELDS)))
    for j, worker in enumerate(workers):
        ids[j] = worker.worker_id
        fields[j, 0] = worker.location.x
        fields[j, 1] = worker.location.y
        fields[j, 2] = worker.velocity
        fields[j, 3] = worker.cone.lo
        fields[j, 4] = worker.cone.width
        fields[j, 5] = worker.confidence
        fields[j, 6] = worker.depart_time
    return ids, fields


def _unpack_worker_rows(
    packed: Tuple[np.ndarray, np.ndarray]
) -> List[MovingWorker]:
    from repro.geometry.angles import AngleInterval
    from repro.geometry.points import Point

    ids, fields = packed
    return [
        MovingWorker(
            worker_id=int(ids[j]),
            location=Point(float(fields[j, 0]), float(fields[j, 1])),
            velocity=float(fields[j, 2]),
            cone=AngleInterval(float(fields[j, 3]), float(fields[j, 4])),
            confidence=float(fields[j, 5]),
            depart_time=float(fields[j, 6]),
        )
        for j in range(len(ids))
    ]


def _pack_task_rows(
    tasks: Sequence[SpatialTask],
) -> Tuple[np.ndarray, np.ndarray]:
    ids = np.empty(len(tasks), dtype=np.int64)
    fields = np.empty((len(tasks), len(TASK_WIRE_FIELDS)))
    for i, task in enumerate(tasks):
        ids[i] = task.task_id
        fields[i, 0] = task.location.x
        fields[i, 1] = task.location.y
        fields[i, 2] = task.start
        fields[i, 3] = task.end
        fields[i, 4] = task.beta
    return ids, fields


def _unpack_task_rows(packed: Tuple[np.ndarray, np.ndarray]) -> List[SpatialTask]:
    from repro.geometry.points import Point

    ids, fields = packed
    return [
        SpatialTask(
            task_id=int(ids[i]),
            location=Point(float(fields[i, 0]), float(fields[i, 1])),
            start=float(fields[i, 2]),
            end=float(fields[i, 3]),
            beta=float(fields[i, 4]),
        )
        for i in range(len(ids))
    ]


def pack_diff(runs: Sequence[Tuple[str, object]]) -> Tuple[PackedRun, ...]:
    """Pack a coalesced churn-run list into flat column blocks.

    Input is what :func:`repro.engine.scheduler.coalesce_churn` yields —
    ``(kind, payload)`` runs in application order.  Each run becomes one
    ``(kind, columns)`` entry: arrivals and updates as ``(ids int64,
    fields float64)`` blocks (:data:`WORKER_WIRE_FIELDS` /
    :data:`TASK_WIRE_FIELDS` columns), removals as bare ``int64`` id
    arrays.  Run order is preserved, so :func:`unpack_diff` feeds a shard
    grid the *same* grouped calls in the same order as an in-process
    apply — the bit-identity argument for resident diff shipping.  A
    typed-object event batch pickles at hundreds of bytes per entity;
    this is tens, which is what makes per-epoch shipping to resident
    processes cheap (see :mod:`repro.engine.elastic`).

    Raises:
        ValueError: for a run kind that is not plain churn (an epoch tick
            or expiry sweep cannot be routed to a shard).
    """
    packed: List[PackedRun] = []
    for kind, payload in runs:
        if kind in ("worker_arrive", "worker_update"):
            packed.append((kind, _pack_worker_rows(payload)))
        elif kind == "task_arrive":
            packed.append((kind, _pack_task_rows(payload)))
        elif kind in ("worker_leave", "task_withdraw"):
            packed.append((kind, np.asarray(list(payload), dtype=np.int64)))
        else:
            raise ValueError(f"unroutable churn run kind {kind!r}")
    return tuple(packed)


def unpack_diff(packed: Sequence[PackedRun]) -> List[Tuple[str, object]]:
    """Rebuild the :func:`pack_diff` churn-run list, bit-identically."""
    runs: List[Tuple[str, object]] = []
    for kind, columns in packed:
        if kind in ("worker_arrive", "worker_update"):
            runs.append((kind, _unpack_worker_rows(columns)))
        elif kind == "task_arrive":
            runs.append((kind, _unpack_task_rows(columns)))
        elif kind in ("worker_leave", "task_withdraw"):
            runs.append((kind, [int(entity_id) for entity_id in columns]))
        else:
            raise ValueError(f"unroutable churn run kind {kind!r}")
    return runs


def diff_nbytes(packed: Sequence[PackedRun]) -> int:
    """Wire payload bytes of a packed diff (column buffers only)."""
    total = 0
    for _, columns in packed:
        if isinstance(columns, tuple):
            total += sum(int(column.nbytes) for column in columns)
        else:
            total += int(columns.nbytes)
    return total
