"""Bound-based candidate pruning for the greedy solver (Section 4.3).

Computing the exact diversity increase of a candidate (task, worker) pair
means re-running the expected-STD reduction on the task's enlarged worker
set — ``O(r^2)`` per pair.  The paper instead derives cheap lower/upper
bounds on the increase and discards pairs whose upper bound is beaten by
another pair's lower bound while also losing on the reliability increase
(Lemma 4.3).  Only the survivors pay for exact evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.diversity import WorkerProfile
from repro.core.expected import expected_std_bounds
from repro.core.task import SpatialTask


@dataclass(frozen=True)
class CandidateBounds:
    """A candidate pair with its reliability delta and diversity-delta bounds.

    Attributes:
        task_id / worker_id: the candidate pair.
        delta_min_r: exact increase of the minimum log-reliability
            (cheap to compute, so never bounded).
        lb_delta_std: lower bound on the pair's E[STD] increase.
        ub_delta_std: upper bound on the pair's E[STD] increase.
    """

    task_id: int
    worker_id: int
    delta_min_r: float
    lb_delta_std: float
    ub_delta_std: float


def diversity_increase_bounds(
    task: SpatialTask,
    current_profiles: Sequence[WorkerProfile],
    new_profile: WorkerProfile,
) -> Tuple[float, float]:
    """``(lb, ub)`` of the E[STD] increase from adding ``new_profile``."""
    return task_increase_bounds(task, current_profiles, [new_profile])[0]


def task_increase_bounds(
    task: SpatialTask,
    current_profiles: Sequence[WorkerProfile],
    new_profiles: Sequence[WorkerProfile],
) -> List[Tuple[float, float]]:
    """``(lb, ub)`` of the E[STD] increase, per candidate of one task.

    Following Section 4.3: with ``lb_b/ub_b`` the bounds before insertion
    and ``lb_a/ub_a`` after, the increase lies within
    ``[lb_a - ub_b, ub_a - lb_b]``.  The lower end is clamped at zero since
    the increase is non-negative by Lemma 4.2.  The "before" bounds depend
    only on the task, so they are computed once for all candidates.
    """
    lb_before, ub_before = expected_std_bounds(task, current_profiles)
    out = []
    for new_profile in new_profiles:
        lb_after, ub_after = expected_std_bounds(
            task, [*current_profiles, new_profile]
        )
        lower = max(lb_after - ub_before, 0.0)
        out.append((lower, max(ub_after - lb_before, lower)))
    return out


def prune_candidates(candidates: Sequence[CandidateBounds]) -> List[CandidateBounds]:
    """Apply Lemma 4.3: drop pairs provably inferior to some other pair.

    Pair ``c'`` is pruned when another pair ``c`` (``c != c'``) has
    ``delta_min_r(c) >= delta_min_r(c')`` *and*
    ``lb_delta_std(c) > ub_delta_std(c')``.

    Implemented as a sweep over candidates sorted by ``delta_min_r``
    descending.  Candidates tied on ``delta_min_r`` may prune each other
    (the lemma's reliability condition is non-strict), so each tie group
    tests its members against the running maximum lower bound *excluding
    the member itself*.
    """
    if not candidates:
        return []
    order = sorted(range(len(candidates)), key=lambda i: -candidates[i].delta_min_r)
    survivors: List[CandidateBounds] = []
    max_lb_prev = -math.inf  # max lb among strictly better delta_min_r
    idx = 0
    n = len(order)
    while idx < n:
        group_end = idx
        dr = candidates[order[idx]].delta_min_r
        while group_end < n and candidates[order[group_end]].delta_min_r == dr:
            group_end += 1
        group = [candidates[order[i]] for i in range(idx, group_end)]

        best_lb = -math.inf
        second_lb = -math.inf
        best_count = 0
        for c in group:
            if c.lb_delta_std > best_lb:
                second_lb = best_lb
                best_lb = c.lb_delta_std
                best_count = 1
            elif c.lb_delta_std == best_lb:
                best_count += 1
            elif c.lb_delta_std > second_lb:
                second_lb = c.lb_delta_std

        for c in group:
            if c.lb_delta_std == best_lb and best_count == 1:
                others_best = second_lb
            else:
                others_best = best_lb
            threat = max(max_lb_prev, others_best)
            if threat <= c.ub_delta_std:
                survivors.append(c)
        max_lb_prev = max(max_lb_prev, best_lb)
        idx = group_end
    return survivors
