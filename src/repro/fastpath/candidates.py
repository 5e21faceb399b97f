"""The GREEDY round loop's resident candidate table.

A greedy commit changes exactly two things: the chosen worker's
candidates disappear and the chosen task's ``(R, profiles)`` state moves.
So the candidate rows are packed *once per solve* and afterwards only
edited where a commit touched them; a round is array gathers over the
live rows instead of a rebuilt Python pair list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class CandidateTable:
    """Array-backed candidate (task, worker) rows of one greedy solve.

    Rows keep the scalar loop's order: ``unassigned``-worker major, tasks
    sorted per worker.  Per row: ``task_ids`` / ``worker_ids``,
    ``task_index`` (position in the sorted distinct ``tasks``), the
    worker's Eq. 8 ``weights``, the Section 4.3 ``lb`` / ``ub`` bounds,
    the exact ``dstd`` with its ``known`` mask (a known row also carries
    ``lb == ub == dstd``) and ``alive``.  Per distinct task: ``task_r`` /
    ``task_has``, the ``(R, occupied)`` inputs of
    :func:`repro.fastpath.kernels.batch_delta_min_r`, read off
    ``evaluator`` (which may already hold assignments — warm starts).
    ``log_weights`` optionally maps worker id to ``-ln(1 - p_j)``; the
    worker objects are read when it is omitted.
    """

    def __init__(
        self,
        problem,
        evaluator,
        unassigned: Sequence[int],
        log_weights: Optional[Dict[int, float]] = None,
    ) -> None:
        per_worker = [sorted(problem.candidate_tasks(w)) for w in unassigned]
        degrees = np.fromiter(map(len, per_worker), dtype=np.intp, count=len(per_worker))
        weights = (
            [log_weights[w] for w in unassigned]
            if log_weights is not None
            else [problem.workers_by_id[w].log_confidence_weight for w in unassigned]
        )
        self.task_ids = np.array(
            [task_id for tasks in per_worker for task_id in tasks], dtype=np.int64
        )
        self.worker_ids = np.repeat(np.asarray(unassigned, dtype=np.int64), degrees)
        self.weights = np.repeat(np.asarray(weights, dtype=np.float64), degrees)
        # A worker's rows are contiguous: [row_stop - degree, row_stop).
        self._row_stop = np.repeat(np.cumsum(degrees), degrees)
        self._row_start = self._row_stop - np.repeat(degrees, degrees)
        self.tasks, self.task_index = np.unique(self.task_ids, return_inverse=True)
        # Rows grouped by task (row order kept inside a group).
        self._by_task = np.argsort(self.task_index, kind="stable")
        self._task_offsets = np.searchsorted(
            self.task_index[self._by_task], np.arange(self.tasks.shape[0] + 1)
        )
        n = self.task_ids.shape[0]
        self.lb, self.ub, self.dstd = np.zeros(n), np.zeros(n), np.zeros(n)
        self.known = np.zeros(n, dtype=bool)
        self.alive = np.ones(n, dtype=bool)
        states = [evaluator.state_of(task_id) for task_id in self.tasks.tolist()]
        self.task_r = np.array([state.r_value for state in states], dtype=np.float64)
        self.task_has = np.array([bool(state.profiles) for state in states], dtype=bool)

    def live(self) -> np.ndarray:
        """Indices of the rows still in play, in candidate order."""
        return np.flatnonzero(self.alive)

    def task_rows(self, index: int) -> np.ndarray:
        """Live rows of the ``index``-th distinct task, in candidate order."""
        rows = self._by_task[self._task_offsets[index] : self._task_offsets[index + 1]]
        return rows[self.alive[rows]]

    def pairs(self, rows: np.ndarray) -> List[Tuple[int, int]]:
        """The ``(task_id, worker_id)`` pairs of ``rows``."""
        return list(zip(self.task_ids[rows].tolist(), self.worker_ids[rows].tolist()))

    def set_exact(self, rows: np.ndarray, values) -> None:
        """Record exact ``ΔE[STD]`` values (they double as tight bounds)."""
        self.dstd[rows] = self.lb[rows] = self.ub[rows] = values
        self.known[rows] = True

    def commit(self, row: int, evaluator) -> np.ndarray:
        """Fold the commit of ``row``'s pair (already applied to ``evaluator``).

        Drops the worker's rows, refreshes the task's ``(R, occupied)``
        and forgets the exact values of the task's remaining live rows,
        which are returned: their bounds are stale until refilled.
        """
        self.alive[self._row_start[row] : self._row_stop[row]] = False
        index = int(self.task_index[row])
        self.task_r[index] = evaluator.state_of(int(self.task_ids[row])).r_value
        self.task_has[index] = True
        stale = self.task_rows(index)
        self.known[stale] = False
        return stale
