"""Shard topology: which shard owns which grid cell, and where tasks go.

:class:`ShardMap` splits the grid into rectangular **cell blocks**, one
per shard, and answers the two routing questions the sharded engine
(:class:`repro.engine.elastic.ElasticShardedAssignmentEngine`) asks.

**Routing.**  A worker lives in exactly one shard — the owner of its
grid cell.  A task is *replicated* into every shard owning a cell within
``halo`` of the task's cell, so each shard can compute every valid pair
of its own workers locally.  A pair whose task lives in a different
block than its worker (a *halo-crossing* pair) is therefore produced
exactly once — by the worker's owner shard — and merging shard reports
is a deterministic concatenate-and-sort, no conflict resolution needed.

**The halo invariant.**  Replication is sound iff ``halo`` is at least
the farthest any worker can travel within any task's valid period:
``max over (t, w) of v_j * max(0, e_i - dp_j)``.  :meth:`ShardMap.
halo_bound` computes that bound for a population; ``halo=None`` (the
default) replicates tasks to every shard, which is always safe.

**Reshaping.**  The tiling is the topology at version 0; split / merge /
migrate ops move explicit cell sets between shards afterwards (see
``docs/SHARDING.md``).  This module holds no engine, executor or
per-shard state — only the map.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.task import SpatialTask
from repro.core.worker import MovingWorker
from repro.geometry.points import Point
from repro.index.grid import cell_coords


def _rect_distance(
    a: Tuple[float, float, float, float], b: Tuple[float, float, float, float]
) -> float:
    """Minimum distance between two axis-aligned ``(x0, y0, x1, y1)`` rects."""
    dx = max(a[0] - b[2], b[0] - a[2], 0.0)
    dy = max(a[1] - b[3], b[1] - a[3], 0.0)
    return math.hypot(dx, dy)


class ShardMap:
    """Cell-block partition of the unit-square grid, statically tiled or
    elastically re-owned.

    Freshly built, the ``num_shards`` shards tile the grid in
    ``shard_rows x shard_cols`` blocks of near-equal cell counts (the
    factorisation closest to square).  The tiling can then be *reshaped*
    at runtime: :meth:`split`, :meth:`merge` and :meth:`migrate` move
    explicit cell sets between shards through a per-cell ownership table,
    so a drifting workload can be rebalanced without changing the shard
    (and resident-process) count — a shard that owns zero cells is
    *dormant*, holding capacity for a later split.  Every reshape bumps
    :attr:`topology_version` and is expressible as a JSON-serialisable op
    dict that :meth:`apply_op` re-applies verbatim, which is how the
    durable log replays a topology trajectory bit-exactly.  Cell
    membership uses the same clamped coordinate mapping as
    :class:`repro.index.grid.RdbscGrid`
    (:func:`repro.index.grid.cell_coords`), so routing and indexing can
    never disagree.

    Args:
        num_shards: number of blocks; 1 degenerates to no partitioning.
        eta: grid cell side, shared with the shard grids.
        halo: task-replication radius in unit-square units.  A task is
            routed to every shard owning a cell within ``halo`` of the
            task's *cell* (cell-granular, so replicated cells hold
            exactly the same residents as the single grid's).  ``None``
            replicates every task to every shard — always safe; an
            explicit value must satisfy the halo invariant (see
            :meth:`halo_bound`).

    Raises:
        ValueError: for a non-positive shard count, an ``eta`` outside
            ``(0, 1]``, a negative halo, or more blocks per axis than
            grid cells.
    """

    def __init__(
        self, num_shards: int, eta: float, halo: Optional[float] = None
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        if halo is not None and halo < 0.0:
            raise ValueError(f"halo must be non-negative or None, got {halo}")
        self.num_shards = num_shards
        self.eta = eta
        self.halo = halo
        self.n_cols = max(1, math.ceil(1.0 / eta))
        rows = 1
        for divisor in range(int(math.isqrt(num_shards)), 0, -1):
            if num_shards % divisor == 0:
                rows = divisor
                break
        self.shard_rows = rows
        self.shard_cols = num_shards // rows
        if self.shard_rows > self.n_cols or self.shard_cols > self.n_cols:
            raise ValueError(
                f"{num_shards} shards need a {self.shard_rows}x{self.shard_cols} "
                f"block tiling but the grid has only {self.n_cols} cells per axis"
            )
        self._bounds = tuple(
            self._block_bounds(shard_id) for shard_id in range(num_shards)
        )
        #: Bumped by every ownership reshape; 0 means the static tiling.
        self.topology_version = 0
        # Explicit cell -> shard ownership (row-major flat list), or None
        # while the static tiling is still in force.  Derived per-shard
        # cell-rect lists and the per-cell task-routing cache rebuild on
        # every reshape.
        self._ownership: Optional[List[int]] = None
        self._owned_rects: Optional[
            List[List[Tuple[float, float, float, float]]]
        ] = None
        self._route_cache: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------ #

    def _block_rows(self, block: int, blocks: int) -> Tuple[int, int]:
        """Inclusive cell-row range of one block axis (near-even split)."""
        first = -(-block * self.n_cols // blocks)  # ceil
        last = -(-(block + 1) * self.n_cols // blocks) - 1
        return first, last

    def _block_bounds(self, shard_id: int) -> Tuple[float, float, float, float]:
        block_row, block_col = divmod(shard_id, self.shard_cols)
        row0, row1 = self._block_rows(block_row, self.shard_rows)
        col0, col1 = self._block_rows(block_col, self.shard_cols)
        return (
            col0 * self.eta,
            row0 * self.eta,
            (col1 + 1) * self.eta,
            (row1 + 1) * self.eta,
        )

    def block_bounds(self, shard_id: int) -> Tuple[float, float, float, float]:
        """The ``(x0, y0, x1, y1)`` rectangle of a shard's *static* block.

        The last row/column may extend past 1.0 when ``1 / eta`` is not
        integral — exactly like the grid's edge cells.  Reshapes do not
        change this value; elastic ownership is per cell, not per rect
        (see :meth:`owned_cells`).
        """
        return self._bounds[shard_id]

    def _static_shard_of_cell(self, row: int, col: int) -> int:
        block_row = row * self.shard_rows // self.n_cols
        block_col = col * self.shard_cols // self.n_cols
        return block_row * self.shard_cols + block_col

    def _cell_rect(
        self, row: int, col: int
    ) -> Tuple[float, float, float, float]:
        return (
            col * self.eta,
            row * self.eta,
            (col + 1) * self.eta,
            (row + 1) * self.eta,
        )

    def shard_of_cell(self, row: int, col: int) -> int:
        """Owner shard of the grid cell at ``(row, col)``."""
        if self._ownership is not None:
            return self._ownership[row * self.n_cols + col]
        return self._static_shard_of_cell(row, col)

    def shard_of_point(self, point: Point) -> int:
        """Owner shard of the cell containing ``point`` (worker routing)."""
        return self.shard_of_cell(*cell_coords(point, self.eta, self.n_cols))

    def shards_for_task(self, location: Point) -> Tuple[int, ...]:
        """Every shard a task at ``location`` must be replicated into.

        The owner shard (cell distance zero) plus every shard owning a
        cell within ``halo`` of the task's cell rectangle, in shard id
        order.  With ``halo=None`` this is all shards.  Under the static
        tiling the per-shard distance uses the block rectangle; under
        elastic ownership it is the minimum over the shard's owned cell
        rects (identical for a block, since the block is their union),
        cached per cell until the next reshape.
        """
        if self.halo is None or self.num_shards == 1:
            return tuple(range(self.num_shards))
        row, col = cell_coords(location, self.eta, self.n_cols)
        cell_rect = self._cell_rect(row, col)
        if self._ownership is None:
            return tuple(
                shard_id
                for shard_id in range(self.num_shards)
                if _rect_distance(self._bounds[shard_id], cell_rect) <= self.halo
            )
        index = row * self.n_cols + col
        cached = self._route_cache.get(index)
        if cached is None:
            assert self._owned_rects is not None
            cached = tuple(
                shard_id
                for shard_id in range(self.num_shards)
                if any(
                    _rect_distance(rect, cell_rect) <= self.halo
                    for rect in self._owned_rects[shard_id]
                )
            )
            self._route_cache[index] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Elastic ownership (split / merge / migrate)
    # ------------------------------------------------------------------ #

    def _materialise(self) -> List[int]:
        """The explicit ownership table, built lazily from the tiling."""
        if self._ownership is None:
            self._ownership = [
                self._static_shard_of_cell(row, col)
                for row in range(self.n_cols)
                for col in range(self.n_cols)
            ]
            self._refresh_derived()
        return self._ownership

    def _refresh_derived(self) -> None:
        assert self._ownership is not None
        rects: List[List[Tuple[float, float, float, float]]] = [
            [] for _ in range(self.num_shards)
        ]
        for index, shard_id in enumerate(self._ownership):
            row, col = divmod(index, self.n_cols)
            rects[shard_id].append(self._cell_rect(row, col))
        self._owned_rects = rects
        self._route_cache = {}

    def owned_cells(self, shard_id: int) -> List[Tuple[int, int]]:
        """The ``(row, col)`` cells a shard currently owns, sorted."""
        if not 0 <= shard_id < self.num_shards:
            raise ValueError(f"no shard {shard_id} in {self.num_shards}")
        if self._ownership is None:
            return [
                (row, col)
                for row in range(self.n_cols)
                for col in range(self.n_cols)
                if self._static_shard_of_cell(row, col) == shard_id
            ]
        return sorted(
            divmod(index, self.n_cols)
            for index, owner in enumerate(self._ownership)
            if owner == shard_id
        )

    def is_dormant(self, shard_id: int) -> bool:
        """True when a shard owns no cells (capacity for a later split)."""
        return not self.owned_cells(shard_id)

    def split(
        self, donor: int, target: int, cells: Sequence[Tuple[int, int]]
    ) -> Dict[str, object]:
        """Activate a dormant shard with part of a donor's cells.

        Returns the applied op dict (``kind``/``from``/``to``/``cells``)
        for WAL logging; :meth:`apply_op` re-applies it on replay.
        """
        op = {
            "kind": "split",
            "from": int(donor),
            "to": int(target),
            "cells": sorted([int(r), int(c)] for r, c in cells),
        }
        self.apply_op(op)
        return op

    def merge(self, donor: int, target: int) -> Dict[str, object]:
        """Move *all* of a donor's cells into a target shard.

        The donor goes dormant; its resident becomes spare capacity.
        Returns the applied op dict for WAL logging.
        """
        op = {
            "kind": "merge",
            "from": int(donor),
            "to": int(target),
            "cells": sorted([int(r), int(c)] for r, c in self.owned_cells(donor)),
        }
        self.apply_op(op)
        return op

    def migrate(
        self, donor: int, target: int, cells: Sequence[Tuple[int, int]]
    ) -> Dict[str, object]:
        """Move a cell subset between two *active* shards.

        Returns the applied op dict for WAL logging.
        """
        op = {
            "kind": "migrate",
            "from": int(donor),
            "to": int(target),
            "cells": sorted([int(r), int(c)] for r, c in cells),
        }
        self.apply_op(op)
        return op

    def apply_op(self, op: Dict[str, object]) -> None:
        """Apply one serialized reshape op (live call or WAL replay).

        Validates the op against the current ownership — every moved cell
        must belong to ``from``, a split's target must be dormant and its
        donor must keep at least one cell, a migrate's target must be
        active, and a merge must name the donor's full cell set — so a
        corrupt or out-of-order log fails loudly instead of silently
        diverging from the live trajectory.

        Raises:
            ValueError: for an unknown kind, out-of-range shard ids, an
                empty or non-donor-owned cell set, or a kind whose
                dormancy precondition does not hold.
        """
        kind = op["kind"]
        donor = int(op["from"])  # type: ignore[arg-type]
        target = int(op["to"])  # type: ignore[arg-type]
        cells = [(int(r), int(c)) for r, c in op["cells"]]  # type: ignore[union-attr]
        if kind not in ("split", "merge", "migrate"):
            raise ValueError(f"unknown rebalance op kind {kind!r}")
        for shard_id in (donor, target):
            if not 0 <= shard_id < self.num_shards:
                raise ValueError(f"no shard {shard_id} in {self.num_shards}")
        if donor == target:
            raise ValueError(f"{kind} from shard {donor} to itself")
        if not cells:
            raise ValueError(f"{kind} with an empty cell set")
        ownership = self._materialise()
        donor_cells = {
            divmod(index, self.n_cols)
            for index, owner in enumerate(ownership)
            if owner == donor
        }
        missing = [cell for cell in cells if cell not in donor_cells]
        if missing:
            raise ValueError(
                f"{kind}: cells {missing} are not owned by shard {donor}"
            )
        target_dormant = not any(owner == target for owner in ownership)
        if kind == "split":
            if not target_dormant:
                raise ValueError(
                    f"split target shard {target} is not dormant; use migrate"
                )
            if len(cells) >= len(donor_cells):
                raise ValueError(
                    f"split would leave donor shard {donor} with no cells; "
                    "use merge"
                )
        elif kind == "migrate":
            if target_dormant:
                raise ValueError(
                    f"migrate target shard {target} is dormant; use split"
                )
            if len(cells) >= len(donor_cells):
                raise ValueError(
                    f"migrate would leave donor shard {donor} with no cells; "
                    "use merge"
                )
        else:  # merge
            if set(cells) != donor_cells:
                raise ValueError(
                    "merge must move the donor's full cell set "
                    f"({sorted(donor_cells)}), got {sorted(cells)}"
                )
        for row, col in cells:
            ownership[row * self.n_cols + col] = target
        self.topology_version += 1
        self._refresh_derived()

    def topology(self) -> Dict[str, object]:
        """The ownership state as a JSON-serialisable snapshot payload."""
        return {
            "version": self.topology_version,
            "ownership": (
                None if self._ownership is None else list(self._ownership)
            ),
        }

    def install(self, topology: Dict[str, object]) -> None:
        """Adopt a :meth:`topology` payload (snapshot restore).

        Raises:
            ValueError: when the ownership table's length or shard ids do
                not match this map's grid and shard count.
        """
        ownership = topology["ownership"]
        if ownership is None:
            self._ownership = None
            self._owned_rects = None
            self._route_cache = {}
        else:
            table = [int(owner) for owner in ownership]  # type: ignore[union-attr]
            if len(table) != self.n_cols * self.n_cols:
                raise ValueError(
                    f"ownership table has {len(table)} cells; this grid has "
                    f"{self.n_cols * self.n_cols}"
                )
            bad = [owner for owner in table if not 0 <= owner < self.num_shards]
            if bad:
                raise ValueError(
                    f"ownership table names shards {sorted(set(bad))} outside "
                    f"0..{self.num_shards - 1}"
                )
            self._ownership = table
            self._refresh_derived()
        self.topology_version = int(topology["version"])  # type: ignore[arg-type]

    @staticmethod
    def halo_bound(
        tasks: Sequence[SpatialTask], workers: Sequence[MovingWorker]
    ) -> float:
        """The smallest halo provably safe for these populations.

        A pair ``(t, w)`` can only be valid when the worker covers the
        distance within the task's window: ``|l_i - l_j| <= v_j * (e_i -
        dp_j)``.  The bound returned is ``max(0, max e_i - min dp_j) *
        max v_j`` — conservative (it pairs the extremes), monotone under
        growth, and cheap.  Pass the *full pools* a stream will draw
        from, not just the initial population.
        """
        max_end = max((task.end for task in tasks), default=0.0)
        min_depart = min((worker.depart_time for worker in workers), default=0.0)
        v_max = max((worker.velocity for worker in workers), default=0.0)
        return max(0.0, max_end - min_depart) * v_max
