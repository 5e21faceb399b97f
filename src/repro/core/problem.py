"""The RDB-SC problem instance: tasks, workers and the valid-pair graph.

An instance is the bipartite graph of Figure 4: task nodes, worker nodes,
and an edge wherever a worker can validly serve a task.  All solvers consume
this object; the grid index (``repro.index``) can build the same edge set
faster, so :class:`RdbscProblem` accepts precomputed pairs.

The ``O(m * n)`` edge scan runs on one of two backends: ``"python"`` (the
scalar reference loop over :class:`repro.core.validity.ValidityRule`) or
``"numpy"`` (the broadcast kernel of :mod:`repro.fastpath`, which produces
a bit-identical edge set batch-wise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker


@dataclass(frozen=True)
class ValidPair:
    """An edge of the assignment graph.

    Attributes:
        task_id: the task endpoint.
        worker_id: the worker endpoint.
        arrival: the worker's effective arrival time at the task location.
    """

    task_id: int
    worker_id: int
    arrival: float


class RdbscProblem:
    """A static RDB-SC instance (Definition 4's input).

    The valid-pair graph is computed once, eagerly, either by brute force
    over all (task, worker) combinations or from ``precomputed_pairs``
    supplied by an index.

    Args:
        tasks: the time-constrained spatial tasks.
        workers: the dynamically moving workers.
        validity: the pair-validity policy (strict arrival by default).
        precomputed_pairs: optional valid pairs from an external retriever
            (e.g. :class:`repro.index.grid.RdbscGrid`); skips the O(m*n)
            scan when given.
        backend: ``"python"`` (scalar scan) or ``"numpy"`` (batch kernel)
            for building the valid-pair graph; irrelevant when
            ``precomputed_pairs`` is supplied.  Both produce the same
            edges and arrivals.

    Raises:
        ValueError: on duplicate task or worker identifiers, or an unknown
            backend.
    """

    def __init__(
        self,
        tasks: Sequence[SpatialTask],
        workers: Sequence[MovingWorker],
        validity: Optional[ValidityRule] = None,
        precomputed_pairs: Optional[Iterable[ValidPair]] = None,
        backend: str = "python",
    ) -> None:
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.validity = validity if validity is not None else ValidityRule()
        self.tasks: Tuple[SpatialTask, ...] = tuple(tasks)
        self.workers: Tuple[MovingWorker, ...] = tuple(workers)
        self.tasks_by_id: Dict[int, SpatialTask] = {t.task_id: t for t in self.tasks}
        self.workers_by_id: Dict[int, MovingWorker] = {
            w.worker_id: w for w in self.workers
        }
        if len(self.tasks_by_id) != len(self.tasks):
            raise ValueError("duplicate task_id in tasks")
        if len(self.workers_by_id) != len(self.workers):
            raise ValueError("duplicate worker_id in workers")

        self._reset_graph()
        if precomputed_pairs is None:
            self.build_pairs(backend)
        else:
            self._ingest_pairs(precomputed_pairs)
            self._canonicalise_candidates()

    def _reset_graph(self) -> None:
        self._arrivals: Dict[Tuple[int, int], float] = {}
        self._profiles: Dict[Tuple[int, int], object] = {}
        self._worker_candidates: Dict[int, List[int]] = {
            w.worker_id: [] for w in self.workers
        }
        self._task_candidates: Dict[int, List[int]] = {
            t.task_id: [] for t in self.tasks
        }

    def _canonicalise_candidates(self) -> None:
        # Canonical candidate order: solver behaviour (especially seeded
        # sampling) must depend on the instance, not on whether its edges
        # arrived from a brute-force scan or a grid-index retrieval.
        for candidates in self._worker_candidates.values():
            candidates.sort()
        for candidates in self._task_candidates.values():
            candidates.sort()

    def build_pairs(self, backend: str = "python") -> None:
        """(Re)populate the valid-pair graph with the selected backend.

        Called by the constructor when no precomputed pairs are supplied;
        ``"python"`` is the scalar reference scan, ``"numpy"`` delegates
        to :func:`repro.fastpath.kernels.batch_valid_pairs` (identical
        edge set, batch-evaluated).  Any previously held edges and cached
        profiles are discarded first, so calling it again is idempotent.
        """
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self._reset_graph()
        if backend == "numpy":
            from repro.fastpath.kernels import batch_valid_pairs

            for pair in batch_valid_pairs(self.tasks, self.workers, self.validity):
                self._add_pair(pair.task_id, pair.worker_id, pair.arrival)
        else:
            for worker in self.workers:
                for task in self.tasks:
                    arrival = self.validity.effective_arrival(worker, task)
                    if arrival is not None:
                        self._add_pair(task.task_id, worker.worker_id, arrival)
        self._canonicalise_candidates()

    def _ingest_pairs(self, pairs: Iterable[ValidPair]) -> None:
        for pair in pairs:
            if pair.task_id not in self.tasks_by_id:
                raise ValueError(f"unknown task_id {pair.task_id} in precomputed pair")
            if pair.worker_id not in self.workers_by_id:
                raise ValueError(
                    f"unknown worker_id {pair.worker_id} in precomputed pair"
                )
            self._add_pair(pair.task_id, pair.worker_id, pair.arrival)

    def _add_pair(self, task_id: int, worker_id: int, arrival: float) -> None:
        self._arrivals[(task_id, worker_id)] = arrival
        self._worker_candidates[worker_id].append(task_id)
        self._task_candidates[task_id].append(worker_id)

    # ------------------------------------------------------------------ #
    # Graph accessors
    # ------------------------------------------------------------------ #

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def candidate_tasks(self, worker_id: int) -> List[int]:
        """Task ids the given worker can validly serve."""
        return list(self._worker_candidates[worker_id])

    def candidate_workers(self, task_id: int) -> List[int]:
        """Worker ids that can validly serve the given task."""
        return list(self._task_candidates[task_id])

    def degree(self, worker_id: int) -> int:
        """Number of valid tasks for a worker — ``deg(w_j)`` of Section 5."""
        return len(self._worker_candidates[worker_id])

    def is_valid_pair(self, task_id: int, worker_id: int) -> bool:
        """Whether the edge ``(task, worker)`` exists."""
        return (task_id, worker_id) in self._arrivals

    def arrival(self, task_id: int, worker_id: int) -> float:
        """Effective arrival time for a valid pair.

        Raises:
            KeyError: if the pair is not valid.
        """
        return self._arrivals[(task_id, worker_id)]

    def valid_pairs(self) -> List[ValidPair]:
        """All edges of the assignment graph."""
        return [
            ValidPair(task_id, worker_id, arrival)
            for (task_id, worker_id), arrival in self._arrivals.items()
        ]

    def pair_profile(self, task_id: int, worker_id: int):
        """The worker's diversity profile for a valid pair (memoised).

        Uses the *stored* pair arrival rather than re-deriving it from the
        validity rule, so instances built from precomputed pairs (grid
        index retrieval, the platform's pinned virtual workers) evaluate
        exactly as constructed.

        Raises:
            KeyError: if the pair is not a valid edge of this instance.
        """
        cached = self._profiles.get((task_id, worker_id))
        if cached is None:
            from repro.core.diversity import WorkerProfile, approach_angle

            arrival = self._arrivals[(task_id, worker_id)]
            worker = self.workers_by_id[worker_id]
            cached = WorkerProfile(
                worker_id,
                approach_angle(self.tasks_by_id[task_id], worker),
                arrival,
                worker.confidence,
            )
            self._profiles[(task_id, worker_id)] = cached
        return cached

    @property
    def num_pairs(self) -> int:
        return len(self._arrivals)

    # ------------------------------------------------------------------ #
    # Population statistics (Section 5.2)
    # ------------------------------------------------------------------ #

    def log_population_size(self) -> float:
        """``ln N`` where ``N = prod_j deg(w_j)`` over workers with edges.

        The sampling population is the set of all full assignments; its size
        overflows any float for realistic instances, so it is only ever
        handled in log space.  Workers with no valid task contribute no
        factor (they simply stay unassigned in every sample).
        """
        total = 0.0
        for worker in self.workers:
            deg = self.degree(worker.worker_id)
            if deg > 0:
                total += math.log(deg)
        return total

    def restricted_to(
        self,
        task_ids: Iterable[int],
        worker_ids: Iterable[int],
    ) -> "RdbscProblem":
        """Sub-instance induced by the given tasks and workers.

        Valid pairs are inherited (not recomputed), so restriction is cheap;
        the divide-and-conquer solver relies on this.
        """
        task_set = set(task_ids)
        worker_set = set(worker_ids)
        tasks = [t for t in self.tasks if t.task_id in task_set]
        workers = [w for w in self.workers if w.worker_id in worker_set]
        pairs = [
            ValidPair(task_id, worker_id, arrival)
            for (task_id, worker_id), arrival in self._arrivals.items()
            if task_id in task_set and worker_id in worker_set
        ]
        return RdbscProblem(tasks, workers, self.validity, precomputed_pairs=pairs)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"RdbscProblem(tasks={self.num_tasks}, workers={self.num_workers}, "
            f"pairs={self.num_pairs})"
        )
