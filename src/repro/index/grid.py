"""RDB-SC-Grid: the dynamic grid index over workers and tasks (Section 7).

The unit square is divided into square cells of side ``eta`` (chosen by the
Appendix I cost model).  Each cell tracks its resident tasks and workers
with aggregate bounds; for each cell holding workers, a ``tcell_list``
records which cells contain at least one task reachable by at least one
resident worker.  Valid-pair retrieval then only probes (worker-cell,
task-cell) pairs on those lists instead of the full ``O(m * n)`` cross
product — the Figure 17 comparison.

Cell-level pruning (Section 7.1): a target cell ``cell_j`` is skipped when
the earliest possible arrival ``d_min / v_max(cell_i)`` exceeds the latest
deadline in the *target* cell, or when the direction cone union of
``cell_i``'s workers cannot point at ``cell_j`` at all.  (The paper's text
compares against ``e_max(cell_i)``; the tasks being reached live in
``cell_j``, so we prune against ``e_max(cell_j)`` — a strict improvement
with identical safety.)
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.problem import ValidPair
from repro.core.task import SpatialTask
from repro.core.validity import ValidityRule
from repro.core.worker import MovingWorker
from repro.geometry.angles import bearing, enclosing_interval
from repro.geometry.points import Point
from repro.index.cell import GridCell

#: Smallest cached ``tcell_list`` considered for compaction — rebuilding
#: shorter lists costs more than the handful of dead probes they can hold.
COMPACT_MIN_MEMBERS = 4

#: Stale-member fraction at which a cached ``tcell_list`` is rebuilt tight.
#: Superset maintenance never shrinks a list, so long churn accumulates
#: members that only ever yield dead probes; once this share of a list
#: (of at least ``COMPACT_MIN_MEMBERS``) is stale, the next retrieval
#: rebuilds it.
COMPACT_STALE_RATIO = 0.5


def cell_coords(point: Point, eta: float, n_cols: int) -> Tuple[int, int]:
    """The ``(row, col)`` grid coordinates of the cell containing ``point``.

    Points on or past the unit-square border are clamped into the edge
    cells, exactly as :class:`RdbscGrid` places residents.  The helper is
    shared with :class:`repro.engine.sharding.ShardMap` so event routing
    and grid indexing can never disagree about cell membership.
    """
    col = min(int(point.x / eta), n_cols - 1)
    row = min(int(point.y / eta), n_cols - 1)
    return max(row, 0), max(col, 0)


def retrieve_pairs_without_index(
    tasks: Sequence[SpatialTask],
    workers: Sequence[MovingWorker],
    validity: Optional[ValidityRule] = None,
) -> List[ValidPair]:
    """Baseline ``O(m * n)`` valid-pair retrieval (no index)."""
    rule = validity if validity is not None else ValidityRule()
    pairs: List[ValidPair] = []
    for worker in workers:
        for task in tasks:
            arrival = rule.effective_arrival(worker, task)
            if arrival is not None:
                pairs.append(ValidPair(task.task_id, worker.worker_id, arrival))
    return pairs


class RdbscGrid:
    """The cost-model-based grid index.

    Args:
        eta: cell side length; the Appendix I cost model supplies good
            values (see :func:`repro.index.cost_model.optimal_eta`).
        validity: pair-validity policy used by retrieval and by the exact
            confirmation step of ``tcell_list`` construction: cells
            surviving the aggregate pruning enter a freshly built list
            only once an exact worker-task probe confirms them.
        backend: ``"python"`` probes surviving (worker cell, task cell)
            combinations with the scalar validity rule pair by pair;
            ``"numpy"`` batches each worker cell's probes through the
            :mod:`repro.fastpath` kernel (same pair set; ``pair_checks``
            counts whole batches instead of stopping at the first hit
            during exact confirmation, and retrieved pairs come out
            task-major within a batch).  The kernels read the two
            cells' resident column blocks, packed once per change of a
            cell, not per probe; the python backend builds no block.

    Cached lists are kept as safe supersets under churn and rebuilt tight
    once ``COMPACT_STALE_RATIO`` of their members has gone stale.
    """

    def __init__(
        self,
        eta: float,
        validity: Optional[ValidityRule] = None,
        backend: str = "python",
    ) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.eta = eta
        self.validity = validity if validity is not None else ValidityRule()
        self.backend = backend
        self.n_cols = max(1, math.ceil(1.0 / eta))
        self._cells: Dict[int, GridCell] = {}
        self._task_cell: Dict[int, int] = {}
        self._worker_cell: Dict[int, int] = {}
        # Ids of the cells currently holding at least one task — the only
        # candidates a tcell_list build or widening looks at.  A cell
        # leaves with its last task, so before it can be dropped as empty.
        self._task_cells: Set[int] = set()
        # tcell_list cache per worker cell, plus reverse references so task
        # removals can re-check exactly the lists that mention their cell.
        self._tcell: Dict[int, Set[int]] = {}
        self._rtcell: Dict[int, Set[int]] = {}
        # Cell-pair rectangle distances, keyed by ordered (cell id, cell
        # id).  A cell id fixes its rectangle for the grid's lifetime, so
        # entries are never invalidated — churn only changes *residents*.
        self._rect_dist: Dict[Tuple[int, int], float] = {}
        # Persistent valid-pair cache, keyed by (worker cell, task cell).
        # An entry holds the exact ValidPair list one retrieval probe of
        # that cell pair would produce; churn drops only the affected
        # entries (dirty tracking by deletion), so valid_pairs() re-probes
        # dirty entries and streams the rest straight from the cache.
        self._pair_cache: Dict[Tuple[int, int], List[ValidPair]] = {}
        #: Counters for the Figure 17 instrumentation; the pair-cache pair
        #: records the incremental engine's hit rate.
        self.stats: Dict[str, int] = {
            "cells_pruned_time": 0,
            "cells_pruned_angle": 0,
            "cells_confirmed": 0,
            "pair_checks": 0,
            "pair_cache_hits": 0,
            "pair_cache_misses": 0,
            "tcell_compactions": 0,
            "tcell_members_dropped": 0,
        }

    # ------------------------------------------------------------------ #
    # Cell addressing
    # ------------------------------------------------------------------ #

    def _coords_of(self, point: Point) -> Tuple[int, int]:
        return cell_coords(point, self.eta, self.n_cols)

    def _cell_id(self, row: int, col: int) -> int:
        return row * self.n_cols + col

    def cell_at(self, point: Point) -> GridCell:
        """The cell containing ``point`` (created on first touch)."""
        row, col = self._coords_of(point)
        cell_id = self._cell_id(row, col)
        cell = self._cells.get(cell_id)
        if cell is None:
            cell = GridCell(
                cell_id,
                row,
                col,
                Point(col * self.eta, row * self.eta),
                self.eta,
            )
            self._cells[cell_id] = cell
        return cell

    def cells(self) -> Iterator[GridCell]:
        """All non-empty materialised cells."""
        return iter(self._cells.values())

    def cell_pair_distance(self, a: GridCell, b: GridCell) -> float:
        """Cached minimum rectangle distance between two cells.

        Cell rectangles are fixed by cell id for the grid's lifetime —
        churn moves residents, never geometry — so every (cell, cell)
        distance is computed once (``math.hypot``, exactly as the uncached
        :meth:`repro.index.cell.GridCell.min_distance_to`) and then served
        from the cache by every pruning probe.
        """
        key = (
            (a.cell_id, b.cell_id)
            if a.cell_id <= b.cell_id
            else (b.cell_id, a.cell_id)
        )
        distance = self._rect_dist.get(key)
        if distance is None:
            distance = a.min_distance_to(b)
            self._rect_dist[key] = distance
        return distance

    @property
    def num_cells(self) -> int:
        """Count of currently materialised (non-empty) cells."""
        return len(self._cells)

    # ------------------------------------------------------------------ #
    # Dynamic maintenance (Section 7.2)
    # ------------------------------------------------------------------ #

    def insert_worker(self, worker: MovingWorker) -> None:
        """Index one worker: :meth:`insert_workers` with a batch of one."""
        self.insert_workers((worker,))

    def remove_worker(self, worker_id: int) -> MovingWorker:
        """Remove a worker; the home cell's tcell_list is kept as a superset.

        Removal can only shrink reachability, so the cached list stays
        *safe* (possibly over-complete — retrieval probes are exact, so a
        stale member merely yields an empty probe).  Only the cell's
        cached pair entries are dropped: the removed worker's pairs must
        vanish from the next retrieval.
        """
        cell_id = self._worker_cell.pop(worker_id)
        worker = self._cells[cell_id].remove_worker(worker_id)
        self._dirty_worker_cell(cell_id)
        self._drop_if_empty(cell_id)
        return worker

    def update_worker(self, worker: MovingWorker) -> MovingWorker:
        """:meth:`update_workers` with a batch of one; returns the old record.

        Raises:
            KeyError: if the worker is not indexed.
        """
        cell_id = self._worker_cell[worker.worker_id]
        old = self._cells[cell_id].workers[worker.worker_id]
        self.update_workers((worker,))
        return old

    def update_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Refresh indexed workers' records, grouping same-cell refreshes.

        A worker staying in its grid cell is swapped in place (the cell's
        aggregates go stale, its cached pair entries are dropped, and its
        list is widened for the new records' reach); a cross-cell move
        falls back to remove + insert.  The (typically dominant) same-cell
        refreshes are grouped so each touched cell pays its pair-entry
        invalidation and its tcell_list widening sweep *once* per batch
        instead of once per worker — the amortisation the engine's
        batched per-instant event application relies on.  Worker ids
        **must** be distinct within one batch —
        the engine's batch methods and the coalescer both guarantee it;
        a cross-cell duplicate would desynchronise the remove + insert
        bookkeeping.  The widened lists may differ from the sequential
        outcome in membership but remain safe supersets of the true
        reachability, so retrieval is unaffected.

        Raises:
            KeyError: if any worker is not indexed — checked for the
                whole batch before any record moves, so a bad batch
                cannot leave earlier cross-cell members removed but
                never re-inserted.
        """
        for worker in workers:
            if worker.worker_id not in self._worker_cell:
                raise KeyError(f"worker {worker.worker_id} not indexed")
        same_cell: Dict[int, List[MovingWorker]] = {}
        moved: List[MovingWorker] = []
        for worker in workers:
            cell_id = self._worker_cell[worker.worker_id]
            target = self._cell_id(*self._coords_of(worker.location))
            if target == cell_id:
                same_cell.setdefault(cell_id, []).append(worker)
            else:
                self.remove_worker(worker.worker_id)
                moved.append(worker)
        if moved:
            # Cross-cell arrivals grouped by destination, like fresh inserts.
            self.insert_workers(moved)
        for cell_id, group in same_cell.items():
            cell = self._cells[cell_id]
            for worker in group:
                cell.replace_worker(worker)
            self._dirty_worker_cell(cell_id)
            self._extend_tcell_for_workers(cell_id, group)

    def insert_workers(self, workers: Sequence[MovingWorker]) -> None:
        """Place workers and widen their cells' tcell_lists incrementally.

        A new resident can only *extend* its cell's reachability, so a
        cached tcell_list is kept and widened by a reachability sweep (no
        pair probes) instead of being rebuilt, and the cell's cached pair
        entries are dropped (the new workers may add pairs to any of
        them).  All workers are placed first; each destination cell then
        pays one invalidation and one group widening sweep, instead of
        one per arrival.  Duplicate ids (within the batch or already
        indexed) raise ValueError before any placement, so the cached
        lists are never left un-widened for a half-placed batch.
        """
        fresh: Set[int] = set()
        for worker in workers:
            if worker.worker_id in self._worker_cell or worker.worker_id in fresh:
                raise ValueError(f"worker {worker.worker_id} already indexed")
            fresh.add(worker.worker_id)
        groups: Dict[int, List[MovingWorker]] = {}
        for worker in workers:
            cell = self.cell_at(worker.location)
            cell.add_worker(worker)
            self._worker_cell[worker.worker_id] = cell.cell_id
            groups.setdefault(cell.cell_id, []).append(worker)
        for cell_id, group in groups.items():
            self._dirty_worker_cell(cell_id)
            self._extend_tcell_for_workers(cell_id, group)

    def insert_task(self, task: SpatialTask) -> None:
        """Index one task: :meth:`insert_tasks` with a batch of one."""
        self.insert_tasks((task,))

    def insert_tasks(self, tasks: Sequence[SpatialTask]) -> None:
        """Place tasks and extend existing tcell_lists incrementally.

        All tasks are placed first, then each *distinct* touched cell pays
        a single sweep over the cached worker-cell lists: one cell-level
        check per worker cell (the paper's worst case of touching all
        workers, amortised), so k same-cell arrivals within one instant
        cost one check per worker cell instead of k.  The resulting lists
        are a safe superset of the sequential outcome (a grouped
        reachability check sees the cell's full new content, which can
        only admit more members), so exact retrieval probes return
        identical pairs either way.
        """
        touched: Dict[int, GridCell] = {}
        for task in tasks:
            self._place_task(task)
            cell = self._cells[self._task_cell[task.task_id]]
            touched[cell.cell_id] = cell
        for cell in touched.values():
            self._link_task_cell(cell)

    def _place_task(self, task: SpatialTask) -> None:
        """Put a task into its cell's records (no list maintenance yet)."""
        if task.task_id in self._task_cell:
            raise ValueError(f"task {task.task_id} already indexed")
        cell = self.cell_at(task.location)
        cell.add_task(task)
        self._task_cell[task.task_id] = cell.cell_id
        self._task_cells.add(cell.cell_id)

    def _link_task_cell(self, cell: GridCell) -> None:
        """Extend cached worker-cell lists for a cell with new tasks."""
        for worker_cell_id in list(self._tcell.keys()):
            if cell.cell_id in self._tcell[worker_cell_id]:
                # Already listed (possibly from before the cell emptied and
                # was re-materialised): re-anchor the reverse reference so
                # later task churn keeps dirtying this entry.
                self._rtcell.setdefault(cell.cell_id, set()).add(worker_cell_id)
                continue
            if self._cell_reachable(self._cells[worker_cell_id], cell):
                self._tcell[worker_cell_id].add(cell.cell_id)
                self._rtcell.setdefault(cell.cell_id, set()).add(worker_cell_id)
        self._dirty_task_cell(cell.cell_id)

    def remove_task(self, task_id: int) -> SpatialTask:
        """Remove a task; lists referencing its cell are kept as supersets.

        Removal can only shrink reachability, so no list is re-checked —
        a member that lost its last reachable task merely yields an empty
        (and cached) probe on the next retrieval.  The referencing pair
        entries are dropped so the removed task's pairs vanish.
        """
        cell_id = self._task_cell.pop(task_id)
        cell = self._cells[cell_id]
        task = cell.remove_task(task_id)
        if not cell.tasks:
            self._task_cells.discard(cell_id)
        self._dirty_task_cell(cell_id)
        self._drop_if_empty(cell_id)
        return task

    def _drop_if_empty(self, cell_id: int) -> None:
        cell = self._cells.get(cell_id)
        if cell is not None and cell.is_empty:
            del self._cells[cell_id]
            self._invalidate_tcell(cell_id)
            for worker_cell_id in self._rtcell.pop(cell_id, set()):
                self._tcell.get(worker_cell_id, set()).discard(cell_id)
                self._pair_cache.pop((worker_cell_id, cell_id), None)

    def _invalidate_tcell(self, cell_id: int) -> None:
        """Worker-side dirtying: drop the cell's list and its pair entries."""
        stale = self._tcell.pop(cell_id, None)
        if stale:
            for target in stale:
                refs = self._rtcell.get(target)
                if refs is not None:
                    refs.discard(cell_id)
                self._pair_cache.pop((cell_id, target), None)

    def _dirty_task_cell(self, cell_id: int) -> None:
        """Task-side dirtying: drop every pair entry targeting ``cell_id``."""
        for worker_cell_id in self._rtcell.get(cell_id, ()):
            self._pair_cache.pop((worker_cell_id, cell_id), None)

    def _dirty_worker_cell(self, cell_id: int) -> None:
        """Worker-side dirtying: drop the cell's own pair entries.

        The tcell_list itself is kept — worker churn is handled by keeping
        lists as safe supersets (removals) and extending them with
        widening sweeps (insertions), never by a full rebuild.
        """
        for target in self._tcell.get(cell_id, ()):
            self._pair_cache.pop((cell_id, target), None)

    def _extend_tcell_for_workers(
        self, cell_id: int, workers: Sequence[MovingWorker]
    ) -> None:
        """Widen a cached tcell_list with a group of new residents' reach.

        Cells already listed stay (the old residents' reach is unchanged);
        cells off the list join when *any of the new workers alone* might
        serve a task there — a superset of the exact condition, kept
        honest by the exact retrieval probes.  One scalar pass over the
        unlisted task-holding cells covers the whole group: each is first
        screened with the group-aggregate time bound (the group's fastest
        worker, earliest departure, against the cached cell-pair distance
        and the candidate's latest deadline — the Section 7.1 shape of
        :meth:`_cell_reachable`), and only the surviving minority pays the
        per-worker check.  No-op without a cached list (it will be built
        tight, lazily, on the next retrieval).
        """
        cached = self._tcell.get(cell_id)
        if cached is None:
            return
        home = self._cells[cell_id]
        v_max = max(worker.velocity for worker in workers)
        depart_min = min(worker.depart_time for worker in workers)
        for target_id in self._task_cells - cached:
            candidate = self._cells[target_id]
            d_min = self.cell_pair_distance(home, candidate)
            if d_min > 0.0:
                if v_max <= 0.0:
                    continue
                if depart_min + d_min / v_max > candidate.e_max:
                    continue  # even the group's best composite cannot arrive
            if any(self._worker_reaches_cell(worker, candidate) for worker in workers):
                cached.add(target_id)
                self._rtcell.setdefault(target_id, set()).add(cell_id)

    def _worker_reaches_cell(self, worker: MovingWorker, task_cell: GridCell) -> bool:
        """Conservative single-worker version of :meth:`_cell_reachable`.

        Same time and direction pruning, applied to one worker's own
        speed, departure and cone against the cell's aggregate deadline —
        with no exact confirmation, so a ``True`` is a may-reach verdict.
        """
        x, y = worker.location.x, worker.location.y
        dx = max(
            task_cell.origin.x - x, x - (task_cell.origin.x + task_cell.side), 0.0
        )
        dy = max(
            task_cell.origin.y - y, y - (task_cell.origin.y + task_cell.side), 0.0
        )
        d_min = math.hypot(dx, dy)
        if worker.velocity <= 0.0 and d_min > 0.0:
            return False
        t_min = d_min / worker.velocity if worker.velocity > 0.0 else 0.0
        if worker.depart_time + t_min > task_cell.e_max:
            self.stats["cells_pruned_time"] += 1
            return False
        if d_min > 0.0 and not worker.cone.is_full():
            bearings = [
                bearing(worker.location, corner)
                for corner in task_cell.corners()
                if corner != worker.location
            ]
            if bearings and not worker.cone.overlaps(enclosing_interval(bearings)):
                self.stats["cells_pruned_angle"] += 1
                return False
        return True

    # ------------------------------------------------------------------ #
    # Cell-level pruning (Section 7.1)
    # ------------------------------------------------------------------ #

    def _cell_reachable(self, worker_cell: GridCell, task_cell: GridCell) -> bool:
        """Whether some worker of ``worker_cell`` may serve ``task_cell``."""
        if not worker_cell.workers or not task_cell.tasks:
            return False
        if worker_cell.cell_id == task_cell.cell_id:
            return self._confirm_exact(worker_cell, task_cell)
        v_max = worker_cell.v_max
        d_min = self.cell_pair_distance(worker_cell, task_cell)
        if v_max <= 0.0 and d_min > 0.0:
            return False
        t_min = d_min / v_max if v_max > 0.0 else 0.0
        if worker_cell.depart_min + t_min > task_cell.e_max:
            self.stats["cells_pruned_time"] += 1
            return False
        if d_min > 0.0:
            # With a positive gap, the set of point-to-point directions from
            # worker_cell into task_cell is the angular extent of the convex
            # Minkowski difference, which is spanned by corner-to-corner
            # bearings; the cone union missing that span proves no worker
            # can head towards any task there.
            cone = worker_cell.cone_union
            if cone is not None and not cone.is_full():
                bearings = [
                    bearing(a, b)
                    for a in worker_cell.corners()
                    for b in task_cell.corners()
                    if a != b
                ]
                if bearings and not cone.overlaps(enclosing_interval(bearings)):
                    self.stats["cells_pruned_angle"] += 1
                    return False
        return self._confirm_exact(worker_cell, task_cell)

    def _confirm_exact(self, worker_cell: GridCell, task_cell: GridCell) -> bool:
        """Exact confirmation: does any valid (worker, task) pair exist?

        The numpy backend filters the whole cell-pair product in one
        batch over the two cells' resident blocks, then confirms
        candidates with the scalar rule (so its verdict matches the
        python backend exactly); it accounts for every probe in
        ``pair_checks`` instead of short-circuiting.
        """
        if self.backend == "numpy":
            from repro.fastpath.kernels import batch_any_valid

            workers = list(worker_cell.workers.values())
            tasks = list(task_cell.tasks.values())
            self.stats["pair_checks"] += len(workers) * len(tasks)
            if batch_any_valid(
                tasks, workers, self.validity,
                task_arrays=task_cell.task_block(),
                worker_arrays=worker_cell.worker_block(),
            ):
                self.stats["cells_confirmed"] += 1
                return True
            return False
        for worker in worker_cell.workers.values():
            for task in task_cell.tasks.values():
                self.stats["pair_checks"] += 1
                if self.validity.is_valid(worker, task):
                    self.stats["cells_confirmed"] += 1
                    return True
        return False

    # ------------------------------------------------------------------ #
    # tcell_list construction and retrieval
    # ------------------------------------------------------------------ #

    def tcell_list(self, worker_cell: GridCell) -> Set[int]:
        """Reachable task-cell ids for a worker cell (cached).

        Fresh builds are tight (cell-level pruning plus exact
        confirmation); under churn the cached list is maintained as a
        *safe superset* — removals never shrink it, worker arrivals widen
        it with a reachability sweep — so retrieval (whose per-entry
        probes are exact) stays correct while maintenance stays O(delta).
        """
        cached = self._tcell.get(worker_cell.cell_id)
        if cached is not None:
            return cached
        reachable: Set[int] = set()
        for target_id in self._task_cells:
            candidate = self._cells[target_id]
            if self._cell_reachable(worker_cell, candidate):
                reachable.add(candidate.cell_id)
                self._rtcell.setdefault(candidate.cell_id, set()).add(
                    worker_cell.cell_id
                )
        self._tcell[worker_cell.cell_id] = reachable
        return reachable

    def build_all_tcell_lists(self) -> int:
        """Materialise every worker cell's tcell_list; returns list count.

        This is the construction step timed in Figure 17(a).
        """
        built = 0
        for cell in list(self._cells.values()):
            if cell.workers:
                self.tcell_list(cell)
                built += 1
        return built

    def _stale_members(self, cell_id: int, members: Set[int]) -> int:
        """How many of a cached list's members a tight rebuild would drop.

        A member is stale when its target cell no longer exists or holds
        no tasks any more — superset maintenance keeps both around
        forever — or when its cached probe came back empty, which the
        rebuild's exact confirmation drops.
        """
        stale = 0
        for target_id in members:
            target = self._cells.get(target_id)
            if (
                target is None
                or not target.tasks
                or self._pair_cache.get((cell_id, target_id)) == []
            ):
                stale += 1
        return stale

    def _maybe_compact_tcell(self, worker_cell: GridCell) -> Set[int]:
        """Rebuild a worker cell's superset list tight when it goes stale.

        Called per retrieval with the cached list; when the stale-member
        ratio reaches ``COMPACT_STALE_RATIO`` the list is rebuilt from the
        cell-level pruning (exactly like a fresh lazy build), reverse
        references and cached pair entries of dropped members are
        discarded, and kept members retain their cached probes.  Returns
        the (possibly rebuilt) list to iterate.
        """
        members = self.tcell_list(worker_cell)
        if len(members) < COMPACT_MIN_MEMBERS:
            return members
        cell_id = worker_cell.cell_id
        if self._stale_members(cell_id, members) < COMPACT_STALE_RATIO * len(members):
            return members
        del self._tcell[cell_id]
        rebuilt = self.tcell_list(worker_cell)
        for target_id in members - rebuilt:
            refs = self._rtcell.get(target_id)
            if refs is not None:
                refs.discard(cell_id)
            self._pair_cache.pop((cell_id, target_id), None)
        self.stats["tcell_compactions"] += 1
        self.stats["tcell_members_dropped"] += len(members) - len(rebuilt)
        return rebuilt

    def valid_pairs(self) -> List[ValidPair]:
        """Index-assisted valid-pair retrieval (Figure 17(b) with index).

        Retrieval is incremental across calls: each (worker cell, task
        cell) entry of a ``tcell_list`` is probed at most once and cached;
        churn (insert/remove/update of tasks and workers) drops exactly the
        affected entries, so a retrieval after a small delta re-probes only
        the dirty entries and streams the rest from the cache.  The
        returned pair set is identical to a from-scratch retrieval on a
        freshly built grid — in both backends.  Superset lists whose
        stale-member ratio crossed ``COMPACT_STALE_RATIO`` are rebuilt
        tight on the way (see :meth:`_maybe_compact_tcell`), so week-long
        churn does not accumulate dead probes.

        With ``backend="numpy"`` each dirty entry is probed by one batched
        kernel call over the two cells' resident blocks instead of a
        scalar double loop, so a worker cell with k dirty targets packs
        its residents once, not k times; pairs are identical (the kernel
        confirms candidates through the scalar rule).
        """
        pairs: List[ValidPair] = []
        for worker_cell in list(self._cells.values()):
            if not worker_cell.workers:
                continue
            for target_id in sorted(self._maybe_compact_tcell(worker_cell)):
                cached = self._pair_cache.get((worker_cell.cell_id, target_id))
                if cached is not None:
                    self.stats["pair_cache_hits"] += 1
                    pairs.extend(cached)
                    continue
                target = self._cells.get(target_id)
                if target is None:
                    continue
                entry = self._probe_pairs(worker_cell, target)
                self._pair_cache[(worker_cell.cell_id, target_id)] = entry
                self.stats["pair_cache_misses"] += 1
                pairs.extend(entry)
        return pairs

    def _probe_pairs(self, worker_cell: GridCell, target: GridCell) -> List[ValidPair]:
        """Exact valid pairs between one worker cell and one task cell."""
        if self.backend == "numpy":
            from repro.fastpath.kernels import batch_valid_pairs

            tasks = list(target.tasks.values())
            workers = list(worker_cell.workers.values())
            if not tasks:
                return []
            self.stats["pair_checks"] += len(workers) * len(tasks)
            return batch_valid_pairs(
                tasks, workers, self.validity,
                task_arrays=target.task_block(),
                worker_arrays=worker_cell.worker_block(),
            )
        entry: List[ValidPair] = []
        for worker in worker_cell.workers.values():
            for task in target.tasks.values():
                self.stats["pair_checks"] += 1
                arrival = self.validity.effective_arrival(worker, task)
                if arrival is not None:
                    entry.append(ValidPair(task.task_id, worker.worker_id, arrival))
        return entry

    # ------------------------------------------------------------------ #
    # Bulk loading
    # ------------------------------------------------------------------ #

    @classmethod
    def bulk_load(
        cls,
        tasks: Sequence[SpatialTask],
        workers: Sequence[MovingWorker],
        eta: float,
        validity: Optional[ValidityRule] = None,
        backend: str = "python",
    ) -> "RdbscGrid":
        """Build an index over a static snapshot of tasks and workers."""
        grid = cls(eta, validity, backend)
        for task in tasks:
            grid.insert_task(task)
        for worker in workers:
            grid.insert_worker(worker)
        return grid
