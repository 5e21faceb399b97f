"""Broadcast kernels over packed worker/task arrays.

Three hot paths of the reproduction are scalar Python loops at heart:

* valid-pair retrieval — the ``O(m * n)`` Definition 2/4 scan of
  :class:`repro.core.validity.ValidityRule`,
* the greedy solver's per-round ``Δmin_R`` scoring,
* the Lemma 4.3 bound-based candidate pruning sweep.

This module re-expresses each as NumPy array arithmetic.  The validity
kernel mirrors the scalar rule check for check (same ``fmod``-based angle
normalisation, same ``ANGLE_EPS`` slack, same waiting clamp); the only
latitude it takes is floating-point rounding — ``sqrt(dx² + dy²)`` versus
``math.hypot`` for the distance, ``np.arctan2`` versus ``math.atan2`` for
the bearing — which can move a pair's decision only when its arrival or
bearing sits within an ulp of a boundary.  Retrieval therefore runs in
two stages: a *candidate filter* whose boundary comparisons are widened
by :data:`FILTER_SLACK` (orders of magnitude beyond any rounding
divergence, so it can only over-accept, never drop a scalar-valid pair),
then scalar confirmation of the surviving minority.  The result of
:func:`batch_valid_pairs` is thereby *bit-identical* to brute force —
boundary cases included — while the Python loop over the (typically much
larger) invalid majority is skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import ValidPair
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.fastpath.arrays import TaskArrays, WorkerArrays
from repro.geometry.angles import ANGLE_EPS, TWO_PI


#: Boundary slack of the retrieval *candidate filter*.  The vectorised
#: distance/bearing can drift from their ``math.*`` twins by a few ulps
#: (relative error ~1e-16); widening the filter's comparisons by this much
#: turns any such drift into a false positive — removed by the scalar
#: confirmation pass — and never a silently dropped scalar-valid pair.
#: The strict validity matrix (:func:`batch_effective_arrival`) does not
#: apply it.
FILTER_SLACK = 1e-9


def _normalize_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorised :func:`repro.geometry.angles.normalize_angle`.

    Replicates the scalar three-step form (``fmod``, negative shift,
    top-edge fold) so results match ``math.fmod``-based code bitwise.
    """
    out = np.fmod(theta, TWO_PI)
    out = np.where(out < 0.0, out + TWO_PI, out)
    return np.where(out >= TWO_PI, out - TWO_PI, out)


def _validity_mask(
    tasks: TaskArrays,
    workers: WorkerArrays,
    allow_waiting: bool,
    slack: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(valid, arrival)`` matrices of the Definition 2/4 checks.

    With ``slack == 0`` the mask is the kernel's best strict answer; a
    positive ``slack`` widens every boundary comparison (valid-period
    edges absolutely and relatively, cone edges by ``slack`` radians) so
    the mask becomes a guaranteed superset of the scalar rule's verdicts.
    """
    dx = tasks.xs[:, None] - workers.xs[None, :]
    dy = tasks.ys[:, None] - workers.ys[None, :]

    dist = np.sqrt(dx * dx + dy * dy)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        travel = dist / workers.velocities[None, :]
    # Zero distance is free regardless of speed (fixes the 0/0 NaN too);
    # a stationary worker facing a positive distance is already +inf, and
    # so is a subnormal-speed one whose quotient overflows: unreachable.
    travel[dist == 0.0] = 0.0
    arrival = workers.depart_times[None, :] + travel

    valid = np.isfinite(arrival)
    if allow_waiting:
        arrival = np.maximum(arrival, tasks.starts[:, None])
    starts = tasks.starts[:, None]
    ends = tasks.ends[:, None]
    if slack > 0.0:
        pad_lo = slack * np.maximum(1.0, np.abs(starts))
        pad_hi = slack * np.maximum(1.0, np.abs(ends))
        valid &= arrival >= starts - pad_lo
        valid &= arrival <= ends + pad_hi
    else:
        valid &= arrival >= starts
        valid &= arrival <= ends

    # Direction-cone membership (Definition 2) is the expensive check
    # (bearing = arctan2 + two angle normalisations), so it only runs on
    # pairs that survived the deadline filter and involve a worker with a
    # real cone; full circles and coincident locations always pass.
    constrained = workers.cone_widths < TWO_PI - ANGLE_EPS
    if np.any(constrained):
        rows, cols = np.nonzero(valid & constrained[None, :])
        if rows.size:
            sdx = dx[rows, cols]
            sdy = dy[rows, cols]
            bearings = _normalize_angles(np.arctan2(sdy, sdx))
            offsets = _normalize_angles(bearings - workers.cone_los[cols])
            cone_ok = (
                (offsets <= workers.cone_widths[cols] + ANGLE_EPS + slack)
                | (offsets >= TWO_PI - ANGLE_EPS - slack)
                | ((sdx == 0.0) & (sdy == 0.0))
            )
            valid[rows, cols] = cone_ok
    return valid, arrival


def batch_effective_arrival(
    tasks: TaskArrays,
    workers: WorkerArrays,
    allow_waiting: bool = False,
) -> np.ndarray:
    """The full validity matrix of a (task set, worker set) product.

    Returns an ``(m, n)`` float matrix: entry ``[i, j]`` is worker ``j``'s
    effective arrival time at task ``i`` when the pair is valid under the
    Definition 2/4 checks (direction cone, reachability, valid period) and
    ``NaN`` otherwise.  Semantics match
    :meth:`repro.core.validity.ValidityRule.effective_arrival` up to
    floating-point rounding of the distance/bearing ufuncs.
    """
    valid, arrival = _validity_mask(tasks, workers, allow_waiting, slack=0.0)
    return np.where(valid, arrival, np.nan)


def batch_any_valid(
    tasks: Sequence[SpatialTask],
    workers: Sequence[MovingWorker],
    validity: Optional[ValidityRule] = None,
    task_arrays: Optional[TaskArrays] = None,
    worker_arrays: Optional[WorkerArrays] = None,
) -> bool:
    """Whether any (task, worker) pair of the product is valid.

    Filter-then-confirm existence check with the scalar rule as the final
    word, so the verdict matches a scalar double loop exactly; used by the
    grid index's cell confirmation.  ``task_arrays`` / ``worker_arrays``
    are optional prepacked columns aligned with ``tasks`` / ``workers``
    (the grid passes its cells' resident blocks); a side left out is
    packed here.
    """
    rule = validity if validity is not None else ValidityRule()
    if task_arrays is None:
        task_arrays = TaskArrays.from_tasks(tasks)
    if worker_arrays is None:
        worker_arrays = WorkerArrays.from_workers(workers)
    valid, _ = _validity_mask(
        task_arrays,
        worker_arrays,
        rule.allow_waiting,
        slack=FILTER_SLACK,
    )
    rows, cols = np.nonzero(valid)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if rule.is_valid(workers[j], tasks[i]):
            return True
    return False


def batch_valid_pairs(
    tasks: Sequence[SpatialTask],
    workers: Sequence[MovingWorker],
    validity: Optional[ValidityRule] = None,
    refine: bool = True,
    task_arrays: Optional[TaskArrays] = None,
    worker_arrays: Optional[WorkerArrays] = None,
) -> List[ValidPair]:
    """Array-backed replacement for the brute-force valid-pair scan.

    Produces the same edge set as
    :func:`repro.index.grid.retrieve_pairs_without_index` (task-major
    order rather than worker-major; callers that care about order sort or
    canonicalise, as :class:`repro.core.problem.RdbscProblem` does).

    Args:
        tasks / workers: the instance, as objects.
        validity: pair-validity policy (strict arrival by default).
        refine: when true (default), candidates pass through a
            slack-widened filter (a guaranteed superset of the scalar
            verdicts) and are then confirmed through the scalar rule,
            making the result bit-identical to the Python backend —
            boundary pairs and arrivals included.  When false the strict
            vectorised mask and arrivals are returned directly (at most
            one ulp apart from scalar, and pairs sitting exactly on a
            boundary may differ).
        task_arrays / worker_arrays: optional prepacked columns aligned
            with ``tasks`` / ``workers``, to amortise packing across calls.
    """
    rule = validity if validity is not None else ValidityRule()
    if task_arrays is None:
        task_arrays = TaskArrays.from_tasks(tasks)
    if worker_arrays is None:
        worker_arrays = WorkerArrays.from_workers(workers)
    valid, arrival = _validity_mask(
        task_arrays,
        worker_arrays,
        rule.allow_waiting,
        slack=FILTER_SLACK if refine else 0.0,
    )
    rows, cols = np.nonzero(valid)
    pairs: List[ValidPair] = []
    if refine:
        for i, j in zip(rows.tolist(), cols.tolist()):
            exact = rule.effective_arrival(workers[j], tasks[i])
            if exact is not None:
                pairs.append(ValidPair(tasks[i].task_id, workers[j].worker_id, exact))
    else:
        arrivals = arrival[rows, cols]
        task_ids = task_arrays.ids[rows]
        worker_ids = worker_arrays.ids[cols]
        for t, w, a in zip(task_ids.tolist(), worker_ids.tolist(), arrivals.tolist()):
            pairs.append(ValidPair(t, w, a))
    return pairs


# --------------------------------------------------------------------- #
# Solver-side kernels
# --------------------------------------------------------------------- #


def batch_delta_min_r(
    task_r_values: np.ndarray,
    task_has_state: np.ndarray,
    log_weights: np.ndarray,
    best: float,
    second: float,
) -> np.ndarray:
    """Vectorised :meth:`IncrementalEvaluator.delta_min_r` over candidates.

    Args:
        task_r_values: per-candidate ``R`` of the target task (0 where the
            task has no workers yet).
        task_has_state: per-candidate flag — does the target task already
            have assigned workers?
        log_weights: per-candidate worker weight ``-ln(1 - p_j)``.
        best / second: the evaluator's current two smallest task ``R``
            values (``inf``-padded), from ``min_two_r()``.

    Returns:
        The change of the minimum log-reliability per candidate, matching
        the scalar method bit-for-bit (same additions, same comparisons).
    """
    new_r = task_r_values + log_weights
    # A task at the current minimum may be lifted past the runner-up; any
    # other touched task leaves the minimum alone; a fresh task competes
    # with the minimum directly.
    new_min = np.where(
        task_has_state,
        np.where(
            task_r_values == best,
            np.minimum(new_r, second),
            best,
        ),
        np.minimum(best, new_r),
    )
    if np.isinf(best):
        return new_min
    return new_min - best


def lemma43_prune_order(
    delta_min_r: np.ndarray,
    lb_delta_std: np.ndarray,
    ub_delta_std: np.ndarray,
) -> np.ndarray:
    """Vectorised Lemma 4.3 pruning sweep.

    Candidate ``c'`` is dropped when some other candidate ``c`` has
    ``Δmin_R(c) >= Δmin_R(c')`` and ``lb(c) > ub(c')`` — the same rule as
    :func:`repro.algorithms.pruning.prune_candidates`, including the
    tie-group handling (candidates tied on ``Δmin_R`` threaten each other,
    each tested against the group's best lower bound *excluding itself*).

    Returns:
        Indices of the surviving candidates, ordered by descending
        ``Δmin_R`` with ties in input order — exactly the scalar sweep's
        survivor order, which dominance tie-breaking downstream relies on.
    """
    n = int(delta_min_r.shape[0])
    if n == 0:
        return np.empty(0, dtype=np.intp)
    order = np.argsort(-delta_min_r, kind="stable")
    dr = delta_min_r[order]
    lb = lb_delta_std[order]
    ub = ub_delta_std[order]

    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = dr[1:] != dr[:-1]
    group_id = np.cumsum(group_start) - 1
    starts = np.nonzero(group_start)[0]

    group_max = np.maximum.reduceat(lb, starts)
    max_per_elem = group_max[group_id]
    is_max = lb == max_per_elem
    max_count = np.add.reduceat(is_max.astype(np.int64), starts)
    demoted = np.where(is_max, -np.inf, lb)
    group_second = np.maximum.reduceat(demoted, starts)

    # Best lower bound among strictly better Δmin_R groups (exclusive
    # running maximum over the group maxima).
    prev_max = np.empty(group_max.shape[0])
    prev_max[0] = -np.inf
    np.maximum.accumulate(group_max[:-1], out=prev_max[1:])

    others_best = np.where(
        is_max & (max_count[group_id] == 1),
        group_second[group_id],
        max_per_elem,
    )
    threat = np.maximum(prev_max[group_id], others_best)
    return order[threat <= ub]


def slots_log_weights(worker_slots, worker_ids: Sequence[int]) -> Dict[int, float]:
    """Gather Eq. 8 log-confidence weights for live workers from the slab.

    The warm-start greedy path re-scores only the dirty workers, so the
    engine hands the round loop a weight map covering exactly those ids —
    gathered here as one fancy-indexed read of the slot slab's
    ``log_weights`` column (written in place per churn event, so the
    values are bit-identical to the workers' own scalar properties)
    instead of touching the worker objects.  Ids without a live slot
    (e.g. per-epoch virtual workers, which are never slab-resident) are
    skipped; the caller fills them from the scalar path.
    """
    slot_of = worker_slots.slot_of
    ids = [worker_id for worker_id in worker_ids if worker_id in slot_of]
    if not ids:
        return {}
    slots = np.fromiter(
        (slot_of[worker_id] for worker_id in ids), dtype=np.intp, count=len(ids)
    )
    weights = worker_slots.log_weights[slots]
    return dict(zip(ids, weights.tolist()))
