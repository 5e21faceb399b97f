"""Validity of a (task, worker) pair.

Definition 4's constraint (1): a worker may be assigned to a task only if
their arrival time at the task's location falls inside the task's valid
period — and, per Definition 2, only if travelling there does not deviate
from the worker's registered direction cone.

The paper's reading is strict: the *arrival* time must fall in ``[s, e]``.
``ValidityRule(allow_waiting=True)`` relaxes that for callers who want early
arrivals to wait at the location until the period opens (useful in the
platform simulator, where walking times are short compared to task windows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.geometry.angles import bearing


@dataclass(frozen=True)
class ValidityRule:
    """Policy object deciding whether a worker may take a task.

    Attributes:
        allow_waiting: when true, a worker arriving before ``s`` is treated
            as starting the task at ``s`` instead of being rejected.
    """

    allow_waiting: bool = False

    def effective_arrival(
        self, worker: MovingWorker, task: SpatialTask
    ) -> Optional[float]:
        """The time the worker would begin the task, or ``None`` if invalid.

        Checks, in order: the (possibly waiting-adjusted) arrival time falls
        in the valid period, then the direction cone admits the bearing to
        the task — skipped when the worker stands on the task, as
        :meth:`MovingWorker.heads_towards` skips it.  The arrival is the
        float :meth:`MovingWorker.arrival_time_at` returns: the departure
        time plus the ``math.hypot`` distance over the speed, or plus
        ``0.0`` at distance zero; a stationary worker reaches no other
        point.  Both checks must pass and neither feeds the other, so the
        verdict and the arrival are those of the cone-first order for
        every pair; the time window goes first because it is cheaper and
        rejects most of the pairs the grid index probes.
        """
        origin, target = worker.location, task.location
        dist = math.hypot(origin.x - target.x, origin.y - target.y)
        if dist == 0.0:
            arrival = worker.depart_time + 0.0
        elif worker.velocity == 0.0:
            return None
        else:
            arrival = worker.depart_time + dist / worker.velocity
        start = task.start
        begin = start if self.allow_waiting and arrival < start else arrival
        if not start <= begin <= task.end or math.isinf(arrival):
            return None
        if dist != 0.0 and not worker.cone.contains(bearing(origin, target)):
            return None
        return begin

    def is_valid(self, worker: MovingWorker, task: SpatialTask) -> bool:
        """Whether the pair ``(task, worker)`` is assignable."""
        return self.effective_arrival(worker, task) is not None
