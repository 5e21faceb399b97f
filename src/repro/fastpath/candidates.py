"""The GREEDY round loop's resident candidate table and its cross-solve memo.

A greedy commit changes exactly two things: the chosen worker's
candidates disappear and the chosen task's ``(R, profiles)`` state moves.
So the candidate rows are packed *once per solve* and afterwards only
edited where a commit touched them; a round is array gathers over the
live rows instead of a rebuilt Python pair list.

Across solves, an engine re-solves an instance that mostly did not
change: the same task states meet the same candidates again.  The
Section 4.3 bounds and the exact ``E[STD]`` of a (task state, candidate)
pair are pure in the values they read, so a :class:`TaskStateMemo` keyed
by those values lets a re-solve pay only for the states the last solve
did not visit.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np


def profile_key(profile) -> Tuple[float, float, float]:
    """The values of a :class:`~repro.core.diversity.WorkerProfile` the
    diversity math reads: ``(angle, arrival, confidence)``.

    A plain float tuple hashes and compares in C, where the frozen
    dataclass would run its generated Python ``__hash__`` / ``__eq__``.
    Floats compare by value, so ``-0.0`` and ``0.0`` share a key — which
    is sound because neither the exact ``E[STD]`` nor its bounds depend
    on the sign of a zero (pinned in ``tests/test_fastpath_equivalence.py``).
    """
    return (profile.angle, profile.arrival, profile.confidence)


class TaskStateMemo:
    """Value-keyed results of the last two solves, in two dict generations.

    :meth:`rotate` (once at the start of every solve) retires the older
    generation; :meth:`get` promotes a hit from the older generation into
    the live one.  The memo therefore holds exactly the keys the last two
    solves touched — bounded by the work those solves did, so it needs no
    size option.  ``hits`` / ``misses`` count :meth:`get` outcomes over the
    memo's lifetime.  A value is only ever found under the key it was
    computed for, so losing entries (to rotation, or to two solves racing
    on one solver) can cost recomputation but never change a result.
    """

    def __init__(self) -> None:
        self._live: Dict[Hashable, object] = {}
        self._older: Dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def rotate(self) -> None:
        """Start a new solve: the live generation becomes the older one."""
        self._older, self._live = self._live, {}

    def get(self, key: Hashable):
        """The value stored under ``key``, or ``None`` (a miss)."""
        value = self._live.get(key)
        if value is None:
            value = self._older.pop(key, None)
            if value is None:
                self.misses += 1
                return None
            self._live[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Store a freshly computed value in the live generation."""
        self._live[key] = value

    def __len__(self) -> int:
        return len(self._live) + len(self._older)


class CandidateTable:
    """Array-backed candidate (task, worker) rows of one greedy solve.

    Rows keep the scalar loop's order: ``unassigned``-worker major, tasks
    sorted per worker.  Per row: ``task_ids`` / ``worker_ids``,
    ``task_index`` (position in the sorted distinct ``tasks``), the
    worker's Eq. 8 ``weights``, the Section 4.3 ``lb`` / ``ub`` bounds,
    the exact ``dstd`` with its ``known`` mask (a known row also carries
    ``lb == ub == dstd``, and ``after``, its task's ``E[STD]`` once the
    pair is committed) and ``alive``; ``profiles`` holds the rows'
    :meth:`~repro.core.problem.RdbscProblem.pair_profile`.  Per distinct
    task: ``task_r`` / ``task_has``, the ``(R, occupied)`` inputs of
    :func:`repro.fastpath.kernels.batch_delta_min_r`, the current
    ``task_estd``, and the memo ``state_keys`` ``(task_id, beta, start,
    end, profile keys in assignment order)`` — everything
    ``expected_std`` and ``expected_std_bounds`` read — all read off
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
        self.profiles = [
            problem.pair_profile(task_id, worker_id)
            for worker_id, tasks in zip(unassigned, per_worker)
            for task_id in tasks
        ]
        self._profile_keys = [profile_key(profile) for profile in self.profiles]
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
        self.lb, self.ub = np.zeros(n), np.zeros(n)
        self.dstd, self.after = np.zeros(n), np.zeros(n)
        self.known = np.zeros(n, dtype=bool)
        self.alive = np.ones(n, dtype=bool)
        task_ids = self.tasks.tolist()
        states = [evaluator.state_of(task_id) for task_id in task_ids]
        self.task_r = np.array([state.r_value for state in states], dtype=np.float64)
        self.task_has = np.array([bool(state.profiles) for state in states], dtype=bool)
        self.task_estd = np.array([state.estd for state in states], dtype=np.float64)
        tasks = [problem.tasks_by_id[task_id] for task_id in task_ids]
        self.state_keys: List[tuple] = [
            (
                task.task_id, task.beta, task.start, task.end,
                tuple(map(profile_key, state.profiles)),
            )
            for task, state in zip(tasks, states)
        ]

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

    def memo_keys(self, rows: np.ndarray) -> List[tuple]:
        """``(task state key, candidate profile key)`` of ``rows``."""
        state_keys, profile_keys = self.state_keys, self._profile_keys
        return [
            (state_keys[index], profile_keys[row])
            for index, row in zip(self.task_index[rows].tolist(), rows.tolist())
        ]

    def set_exact(self, rows: np.ndarray, after: np.ndarray) -> None:
        """Record the exact post-commit ``E[STD]`` of ``rows``.

        The ``ΔE[STD]`` is ``after`` minus the task's current ``E[STD]``
        — the subtraction ``IncrementalEvaluator.delta_estd`` does, so the
        bits match — and doubles as both tight bounds.
        """
        self.after[rows] = after
        self.dstd[rows] = self.lb[rows] = self.ub[rows] = (
            after - self.task_estd[self.task_index[rows]]
        )
        self.known[rows] = True

    def commit(self, row: int, evaluator) -> np.ndarray:
        """Fold the commit of ``row``'s pair (already applied to ``evaluator``).

        Drops the worker's rows, refreshes the task's ``(R, occupied,
        E[STD])`` and state key, and forgets the exact values of the
        task's remaining live rows, which are returned: their bounds are
        stale until refilled.
        """
        self.alive[self._row_start[row] : self._row_stop[row]] = False
        index = int(self.task_index[row])
        state = evaluator.state_of(int(self.task_ids[row]))
        self.task_r[index] = state.r_value
        self.task_has[index] = True
        self.task_estd[index] = state.estd
        *task_key, profile_keys = self.state_keys[index]
        self.state_keys[index] = (*task_key, profile_keys + (self._profile_keys[row],))
        stale = self.task_rows(index)
        self.known[stale] = False
        return stale
