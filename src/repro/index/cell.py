"""A single cell of the RDB-SC grid.

Per Section 7.1, each cell keeps its resident task and worker records plus
the aggregates cell-level pruning derives from them, each piece refreshed
at most once per change and only when it is itself read:

* worker side, two independently lazy pieces — the scalars ``v_max`` /
  ``depart_min`` (widened by ``add_worker``, staled by ``remove_worker`` /
  ``replace_worker``, refreshed together) and ``cone_union`` behind its
  own flag, folded in resident-dict order only when read, so a ``v_max``
  read never pays the cone sweep;
* task side — ``e_max`` / ``s_min`` (widened by ``add_task``, staled by
  ``remove_task``).

Stale aggregates would stay conservative (removal only shrinks them, so
pruning stays safe), but a read refreshes its piece first: exposed values
always equal a freshly built cell's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.geometry.angles import AngleInterval, enclosing_interval
from repro.geometry.points import Point


class GridCell:
    """Tasks, workers and aggregate bounds for one grid square.

    Attributes:
        cell_id: linearised cell index.
        row / col: grid coordinates.
        origin: lower-left corner of the cell square.
        side: cell side length ``eta``.
    """

    def __init__(self, cell_id: int, row: int, col: int, origin: Point, side: float) -> None:
        self.cell_id = cell_id
        self.row = row
        self.col = col
        self.origin = origin
        self.side = side
        self.tasks: Dict[int, SpatialTask] = {}
        self.workers: Dict[int, MovingWorker] = {}
        self._tasks_stale = False
        self._workers_stale = False
        self._cone_stale = False

        self._v_max = 0.0
        self._depart_min = math.inf
        self._e_max = -math.inf
        self._s_min = math.inf
        self._cone_union: Optional[AngleInterval] = None

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    def corners(self) -> Tuple[Point, Point, Point, Point]:
        """The four corners of the cell square."""
        x, y, s = self.origin.x, self.origin.y, self.side
        return (
            Point(x, y),
            Point(x + s, y),
            Point(x, y + s),
            Point(x + s, y + s),
        )

    def min_distance_to(self, other: "GridCell") -> float:
        """Minimum distance between any two points of the two cells."""
        dx = max(
            other.origin.x - (self.origin.x + self.side),
            self.origin.x - (other.origin.x + other.side),
            0.0,
        )
        dy = max(
            other.origin.y - (self.origin.y + self.side),
            self.origin.y - (other.origin.y + other.side),
            0.0,
        )
        return math.hypot(dx, dy)

    def max_distance_to(self, other: "GridCell") -> float:
        """Maximum distance between any two points of the two cells."""
        best = 0.0
        for a in self.corners():
            for b in other.corners():
                best = max(best, a.distance_to(b))
        return best

    # ------------------------------------------------------------------ #
    # Contents
    # ------------------------------------------------------------------ #

    def add_task(self, task: SpatialTask) -> None:
        """Place a task in the cell, widening the deadline aggregates."""
        self.tasks[task.task_id] = task
        self._e_max = max(self._e_max, task.end)
        self._s_min = min(self._s_min, task.start)

    def remove_task(self, task_id: int) -> SpatialTask:
        """Remove a resident task; deadline aggregates go lazily stale."""
        task = self.tasks.pop(task_id)
        self._tasks_stale = True
        return task

    def add_worker(self, worker: MovingWorker) -> None:
        """Place a worker in the cell, widening the worker-side aggregates."""
        self.workers[worker.worker_id] = worker
        self._v_max = max(self._v_max, worker.velocity)
        self._depart_min = min(self._depart_min, worker.depart_time)
        if not self._cone_stale:  # a stale cone is re-folded whole anyway
            self._cone_union = _widen(self._cone_union, worker.cone)

    def remove_worker(self, worker_id: int) -> MovingWorker:
        """Remove a resident worker; worker-side aggregates go lazily stale."""
        worker = self.workers.pop(worker_id)
        self._stale_workers()
        return worker

    def replace_worker(self, worker: MovingWorker) -> MovingWorker:
        """Swap a resident worker's record in place (same id, same cell).

        O(1): the dict slot is reused, worker-side aggregates merely go
        stale.  Used by same-cell position/heading/confidence refreshes.
        """
        old = self.workers[worker.worker_id]
        self.workers[worker.worker_id] = worker
        self._stale_workers()
        return old

    def _stale_workers(self) -> None:
        self._workers_stale = True
        self._cone_stale = True

    @property
    def is_empty(self) -> bool:
        """Whether the cell holds no tasks and no workers."""
        return not self.tasks and not self.workers

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def _refresh_workers(self) -> None:
        if not self._workers_stale:
            return
        self._v_max = max((w.velocity for w in self.workers.values()), default=0.0)
        self._depart_min = min(
            (w.depart_time for w in self.workers.values()), default=math.inf
        )
        self._workers_stale = False

    def _refresh_tasks(self) -> None:
        if not self._tasks_stale:
            return
        self._e_max = max((t.end for t in self.tasks.values()), default=-math.inf)
        self._s_min = min((t.start for t in self.tasks.values()), default=math.inf)
        self._tasks_stale = False

    @property
    def v_max(self) -> float:
        """Fastest resident worker's speed (0 with no workers)."""
        self._refresh_workers()
        return self._v_max

    @property
    def depart_min(self) -> float:
        """Earliest resident worker departure (inf with no workers)."""
        self._refresh_workers()
        return self._depart_min

    @property
    def e_max(self) -> float:
        """Latest resident task deadline (-inf with no tasks)."""
        self._refresh_tasks()
        return self._e_max

    @property
    def s_min(self) -> float:
        """Earliest resident task start (inf with no tasks)."""
        self._refresh_tasks()
        return self._s_min

    @property
    def cone_union(self) -> Optional[AngleInterval]:
        """An angular interval containing every resident worker's cone.

        ``None`` with no workers.  This is a conservative superset (interval
        union of intervals is an interval), so pruning against it is safe.
        """
        if self._cone_stale:
            union: Optional[AngleInterval] = None
            for worker in self.workers.values():
                union = _widen(union, worker.cone)
            self._cone_union = union
            self._cone_stale = False
        return self._cone_union


def _widen(
    current: Optional[AngleInterval], addition: AngleInterval
) -> AngleInterval:
    """Smallest interval covering both ``current`` and ``addition``."""
    if current is None:
        return addition
    if current.is_full() or addition.is_full():
        return AngleInterval.full_circle()
    if current.contains(addition.lo) and current.contains(addition.hi):
        # Possible full wrap: if addition also covers current, union is full.
        if addition.contains(current.lo) and addition.contains(current.hi):
            combined = current.width + addition.width
            if combined >= 2.0 * math.pi:
                return AngleInterval.full_circle()
        return current
    candidates = [
        AngleInterval.from_bounds(current.lo, addition.lo + addition.width),
        AngleInterval.from_bounds(addition.lo, current.lo + current.width),
    ]
    feasible = [
        c
        for c in candidates
        if c.contains(current.lo)
        and c.contains(current.hi)
        and c.contains(addition.lo)
        and c.contains(addition.hi)
    ]
    if not feasible:
        return AngleInterval.full_circle()
    return min(feasible, key=lambda c: c.width)
