"""Shard-map geometry and the static-topology shard/no-shard differential.

The contract under test is the bit-identity acceptance bar of the
sharded engine on its static tiling (``rebalance=None``): on the same
churn event stream — arrive / leave / update / expire, including workers
parked exactly on block boundaries and halo crossings — an
:class:`ElasticShardedAssignmentEngine` at any shard count, on either
executor, produces exactly the unsharded engine's valid pairs (ids *and*
arrivals), assignments and objectives, epoch after epoch.  Alongside:
:class:`ShardMap` partition/routing geometry, the halo invariant guard,
the :class:`ResidentShard` report contract, and the session façade's
sharded mode.  The rebalancing half of the invariant lives in
``tests/test_elastic.py``.  The differential classes carry the ``churn``
marker (``pytest -m churn``).
"""

import math

import numpy as np
import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.dynamic import CrowdsourcingSession
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    ResidentShard,
    ShardDiff,
    ShardMap,
)
from repro.engine.elastic import task_digest, worker_digest
from repro.engine.sharding import _rect_distance
from repro.fastpath.arrays import pack_diff
from repro.geometry.points import Point
from repro.index.grid import cell_coords
from tests.conftest import make_pools as shared_make_pools
from tests.conftest import make_task, make_worker

ETA = 0.125


def pair_key(pairs):
    """Canonical, rounding-sensitive view of a pair list."""
    return sorted((p.task_id, p.worker_id, p.arrival) for p in pairs)


# --------------------------------------------------------------------- #
# ShardMap geometry
# --------------------------------------------------------------------- #


class TestShardMap:
    def test_near_square_factorisation(self):
        assert (ShardMap(4, ETA).shard_rows, ShardMap(4, ETA).shard_cols) == (2, 2)
        assert (ShardMap(6, ETA).shard_rows, ShardMap(6, ETA).shard_cols) == (2, 3)
        assert (ShardMap(5, ETA).shard_rows, ShardMap(5, ETA).shard_cols) == (1, 5)
        assert (ShardMap(1, ETA).shard_rows, ShardMap(1, ETA).shard_cols) == (1, 1)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 6])
    def test_every_cell_has_exactly_one_owner(self, num_shards):
        shard_map = ShardMap(num_shards, ETA)
        counts = {shard_id: 0 for shard_id in range(num_shards)}
        for row in range(shard_map.n_cols):
            for col in range(shard_map.n_cols):
                owner = shard_map.shard_of_cell(row, col)
                assert 0 <= owner < num_shards
                counts[owner] += 1
        # Near-even block sizes: no shard owns zero cells.
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == shard_map.n_cols**2

    def test_point_routing_matches_cell_routing_on_boundaries(self):
        shard_map = ShardMap(4, ETA)
        for x, y in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.5, 0.0), (0.999, 0.5)]:
            point = Point(x, y)
            row, col = cell_coords(point, ETA, shard_map.n_cols)
            assert shard_map.shard_of_point(point) == shard_map.shard_of_cell(row, col)

    def test_block_bounds_tile_the_square(self):
        shard_map = ShardMap(4, ETA)
        area = 0.0
        for shard_id in range(4):
            x0, y0, x1, y1 = shard_map.block_bounds(shard_id)
            assert x1 > x0 and y1 > y0
            area += (x1 - x0) * (y1 - y0)
        assert area == pytest.approx(1.0)

    def test_halo_none_replicates_everywhere(self):
        shard_map = ShardMap(4, ETA, halo=None)
        assert shard_map.shards_for_task(Point(0.1, 0.1)) == (0, 1, 2, 3)

    def test_zero_halo_routes_to_owner_only_in_block_interior(self):
        shard_map = ShardMap(4, ETA, halo=0.0)
        # Cell (1, 1) is strictly inside shard 0's block (cols/rows 0-3).
        assert shard_map.shards_for_task(Point(0.2, 0.2)) == (0,)

    def test_halo_owner_always_included_and_monotone(self):
        point = Point(0.45, 0.2)  # one cell left of the vertical block cut
        owner = ShardMap(4, ETA).shard_of_point(point)
        previous = set()
        for halo in (0.0, 0.05, 0.2, 0.6, None):
            shards = set(ShardMap(4, ETA, halo=halo).shards_for_task(point))
            assert owner in shards
            assert previous <= shards
            previous = shards

    def test_boundary_cell_with_small_halo_replicates_across_the_cut(self):
        shard_map = ShardMap(2, ETA, halo=0.01)  # blocks split at x = 0.5
        assert shard_map.shards_for_task(Point(0.45, 0.5)) == (0, 1)
        assert shard_map.shards_for_task(Point(0.55, 0.5)) == (0, 1)
        assert shard_map.shards_for_task(Point(0.2, 0.5)) == (0,)

    def test_halo_bound(self):
        tasks = [make_task(0, end=4.0), make_task(1, end=10.0)]
        workers = [
            make_worker(0, velocity=0.2, depart_time=2.0),
            make_worker(1, velocity=0.05, depart_time=0.0),
        ]
        assert ShardMap.halo_bound(tasks, workers) == pytest.approx(10.0 * 0.2)
        assert ShardMap.halo_bound([], []) == 0.0
        late = [make_worker(0, velocity=1.0, depart_time=20.0)]
        assert ShardMap.halo_bound(tasks, late) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardMap(0, ETA)
        with pytest.raises(ValueError):
            ShardMap(4, ETA, halo=-0.1)
        with pytest.raises(ValueError):
            ShardMap(4, 2.0)
        with pytest.raises(ValueError):
            ShardMap(8, 0.5)  # 2x2 cells cannot host a 2x4 block tiling

    def test_rect_distance(self):
        a = (0.0, 0.0, 1.0, 1.0)
        assert _rect_distance(a, (0.5, 0.5, 2.0, 2.0)) == 0.0
        assert _rect_distance(a, (2.0, 0.0, 3.0, 1.0)) == pytest.approx(1.0)
        assert _rect_distance(a, (2.0, 2.0, 3.0, 3.0)) == pytest.approx(math.sqrt(2))


# --------------------------------------------------------------------- #
# Differential churn equivalence
# --------------------------------------------------------------------- #


def make_pools(seed, num_tasks=50, num_workers=110):
    """Slow-worker pools so a sub-unit halo is provably safe."""
    return shared_make_pools(
        seed,
        num_tasks=num_tasks,
        num_workers=num_workers,
        velocity_range=(0.02, 0.1),
        expiration_range=(0.5, 1.5),
    )


class MirrorDriver:
    """One random op stream applied to a single and a sharded engine."""

    def __init__(self, seed, num_shards, backend="python", executor="sequential",
                 halo="bound", solver=None, solve_mode="full"):
        task_pool, worker_pool = make_pools(seed)
        if halo == "bound":
            halo = ShardMap.halo_bound(task_pool, worker_pool)
        make_solver = solver if solver is not None else GreedySolver
        common = dict(
            eta=ETA, rng=seed, backend=backend, solve_mode=solve_mode
        )
        self.single = AssignmentEngine(solver=make_solver(), **common)
        self.sharded = ElasticShardedAssignmentEngine(
            solver=make_solver(),
            num_shards=num_shards,
            halo=halo,
            executor=executor,
            **common,
        )
        self.engines = (self.single, self.sharded)
        self.rng = np.random.default_rng(seed + 1)
        self.now = 0.0
        self.task_pool = task_pool[15:]
        self.worker_pool = worker_pool[30:]
        self.live_tasks = []
        self.live_workers = {}
        for task in task_pool[:15]:
            self._each("add_task", task)
            self.live_tasks.append(task.task_id)
        for worker in worker_pool[:30]:
            self._each("add_worker", worker)
            self.live_workers[worker.worker_id] = worker

    def _each(self, method, *args):
        for engine in self.engines:
            getattr(engine, method)(*args)

    def step(self):
        roll = int(self.rng.integers(0, 10))
        if roll == 0 and self.task_pool:
            task = self.task_pool.pop()
            self._each("add_task", task)
            self.live_tasks.append(task.task_id)
        elif roll == 1 and len(self.live_tasks) > 4:
            index = int(self.rng.integers(0, len(self.live_tasks)))
            self._each("withdraw_task", self.live_tasks.pop(index))
        elif roll in (2, 3) and self.worker_pool:
            worker = self.worker_pool.pop()
            self._each("add_worker", worker)
            self.live_workers[worker.worker_id] = worker
        elif roll == 4 and len(self.live_workers) > 8:
            ids = list(self.live_workers)
            worker_id = ids[int(self.rng.integers(0, len(ids)))]
            del self.live_workers[worker_id]
            self._each("remove_worker", worker_id)
        elif roll in (5, 6, 7) and self.live_workers:
            # In-place update; roll 7 jumps far enough to cross shard
            # blocks, exercising the leave + arrive migration path.
            ids = list(self.live_workers)
            worker_id = ids[int(self.rng.integers(0, len(ids)))]
            worker = self.live_workers[worker_id]
            scale = 0.01 if roll == 5 else (0.1 if roll == 6 else 0.45)
            moved = worker.moved_to(
                Point(
                    float(np.clip(worker.location.x + self.rng.normal(0.0, scale), 0.0, 1.0)),
                    float(np.clip(worker.location.y + self.rng.normal(0.0, scale), 0.0, 1.0)),
                ),
                self.now,
            )
            self.live_workers[worker_id] = moved
            self._each("update_worker", moved)
        elif roll == 8:
            self.now += float(self.rng.uniform(0.0, 0.1))
            expired_single = self.single.expire_tasks(self.now)
            expired_sharded = self.sharded.expire_tasks(self.now)
            assert expired_single == expired_sharded
            for task_id in expired_single:
                self.live_tasks.remove(task_id)
        # roll == 9: quiet step

    def assert_pairs_identical(self):
        assert pair_key(self.single.current_pairs()) == pair_key(
            self.sharded.current_pairs()
        )

    def assert_epoch_identical(self):
        a = self.single.epoch(self.now)
        b = self.sharded.epoch(self.now)
        assert a.num_pairs == b.num_pairs
        assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
        assert a.objective == b.objective
        assert a.mode == b.mode
        return a, b

    def close(self):
        self.sharded.close()


@pytest.mark.churn
class TestShardedDifferential:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_pairs_and_epochs_match_single_shard(self, num_shards, seed):
        driver = MirrorDriver(seed, num_shards)
        driver.assert_epoch_identical()
        for _ in range(5):
            for _ in range(15):
                driver.step()
            driver.assert_pairs_identical()
            driver.assert_epoch_identical()
        assert driver.sharded.fanouts > 0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_backends_match_across_shards(self, backend):
        driver = MirrorDriver(7, num_shards=4, backend=backend)
        for _ in range(3):
            for _ in range(12):
                driver.step()
            driver.assert_epoch_identical()

    def test_halo_none_matches_too(self):
        driver = MirrorDriver(11, num_shards=4, halo=None)
        for _ in range(3):
            for _ in range(12):
                driver.step()
            driver.assert_epoch_identical()

    def test_sampling_solver_rng_stream_identical(self):
        driver = MirrorDriver(
            5, num_shards=4, solver=lambda: SamplingSolver(num_samples=12)
        )
        for _ in range(3):
            for _ in range(10):
                driver.step()
            driver.assert_epoch_identical()

    def test_warm_mode_matches_single_shard(self):
        driver = MirrorDriver(13, num_shards=4, solve_mode="warm")
        modes = set()
        driver.assert_epoch_identical()
        for _ in range(6):
            for _ in range(4):  # light churn so warm repair engages
                driver.step()
            a, _ = driver.assert_epoch_identical()
            modes.add(a.mode)
        assert "warm" in modes

    def test_process_executor_matches_single_shard(self):
        driver = MirrorDriver(19, num_shards=2, executor="process")
        try:
            for _ in range(2):
                for _ in range(10):
                    driver.step()
                driver.assert_epoch_identical()
        finally:
            driver.close()


@pytest.mark.churn
class TestHaloBoundary:
    """Workers parked exactly on block cuts, tasks just across them."""

    def _engines(self, halo, num_shards=2):
        single = AssignmentEngine(solver=GreedySolver(), eta=ETA, rng=1)
        sharded = ElasticShardedAssignmentEngine(
            solver=GreedySolver(), eta=ETA, rng=1,
            num_shards=num_shards, halo=halo,
        )
        return single, sharded

    def test_halo_crossing_pairs_survive_the_cut(self):
        # 2 shards split at x = 0.5; workers sit on and beside the cut,
        # tasks just across it, within reach.
        single, sharded = self._engines(halo=0.2)
        workers = [
            make_worker(0, x=0.5, y=0.5, velocity=0.1),    # on the cut (owner: shard 1)
            make_worker(1, x=0.499, y=0.5, velocity=0.1),  # last cell of shard 0
            make_worker(2, x=0.51, y=0.5, velocity=0.1),   # first cell of shard 1
        ]
        tasks = [
            make_task(0, x=0.52, y=0.5, end=2.0),   # shard 1, reachable from 0
            make_task(1, x=0.48, y=0.5, end=2.0),   # shard 0, reachable from 1
            make_task(2, x=0.62, y=0.5, end=2.0),   # deeper into shard 1
        ]
        for engine in (single, sharded):
            for task in tasks:
                engine.add_task(task)
            for worker in workers:
                engine.add_worker(worker)
        assert pair_key(single.current_pairs()) == pair_key(sharded.current_pairs())
        # Cross-cut pairs genuinely exist (the scenario is non-trivial).
        crossing = {
            (p.task_id, p.worker_id)
            for p in single.current_pairs()
            if (p.task_id in (0, 2)) != (p.worker_id in (0, 2))
        }
        assert crossing
        a = single.epoch(0.0)
        b = sharded.epoch(0.0)
        assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
        assert a.objective == b.objective

    def test_boundary_worker_migration_between_shards(self):
        single, sharded = self._engines(halo=0.5)
        task = make_task(0, x=0.5, y=0.5, end=5.0)
        worker = make_worker(0, x=0.49, y=0.5, velocity=0.1)
        for engine in (single, sharded):
            engine.add_task(task)
            engine.add_worker(worker)
        assert sharded._worker_shard[0] == 0
        for x in (0.51, 0.49, 0.52):  # ping-pong across the cut
            moved = worker.moved_to(Point(x, 0.5), 0.0)
            for engine in (single, sharded):
                engine.update_worker(moved)
            assert pair_key(single.current_pairs()) == pair_key(
                sharded.current_pairs()
            )
        assert sharded._worker_shard[0] == 1

    def test_halo_guard_raises_when_reach_outgrows_halo(self):
        sharded = ElasticShardedAssignmentEngine(
            solver=GreedySolver(), eta=ETA, num_shards=2, halo=0.05
        )
        sharded.add_task(make_task(0, end=1.0))
        sharded.add_worker(make_worker(0, velocity=0.04, depart_time=0.0))
        with pytest.raises(ValueError, match="halo"):
            sharded.add_worker(make_worker(1, velocity=1.0, depart_time=0.0))
        with pytest.raises(ValueError, match="halo"):
            sharded.add_task(make_task(1, end=50.0))
        # The guard fires *before* registration: nothing is stranded in
        # the dicts without routing state, and cleanup paths stay sound.
        assert 1 not in sharded.tasks
        assert 1 not in sharded.workers
        assert sharded.expire_tasks(100.0) == [0]


class TestShardStateAndSession:
    def test_shard_state_reports_stat_deltas(self):
        task = make_task(0, x=0.1, y=0.1, end=5.0)
        worker = make_worker(0, x=0.1, y=0.1)
        fingerprint = task_digest(task) ^ worker_digest(worker)
        resident = ResidentShard(0, ETA)
        kind, version, pairs, delta = resident.apply(
            ShardDiff(
                shard_id=0,
                base_version=0,
                version=1,
                full=False,
                runs=pack_diff(
                    [("task_arrive", [task]), ("worker_arrive", [worker])]
                ),
                fingerprint=fingerprint,
            )
        )
        assert (kind, version) == ("ok", 1)
        assert len(pairs) == 1
        assert delta["pair_cache_misses"] == 1
        _, _, _, again = resident.apply(
            ShardDiff(
                shard_id=0,
                base_version=1,
                version=2,
                full=False,
                runs=pack_diff([]),
                fingerprint=fingerprint,
            )
        )
        assert again["pair_cache_misses"] == 0
        assert again["pair_cache_hits"] == 1

    def test_unroutable_event_rejected(self):
        with pytest.raises(TypeError):
            ResidentShard(0, ETA)._apply_runs([("epoch_tick", [])])

    def test_sharded_session_matches_unsharded(self):
        tasks, workers = make_pools(23, num_tasks=20, num_workers=40)
        halo = ShardMap.halo_bound(tasks, workers)
        plain = CrowdsourcingSession(solver=GreedySolver(), eta=ETA, rng=2)
        sharded = CrowdsourcingSession(
            solver=GreedySolver(), eta=ETA, rng=2, num_shards=4, halo=halo
        )
        assert isinstance(sharded.engine, ElasticShardedAssignmentEngine)
        assert sharded.engine.policy is None
        for session in (plain, sharded):
            for task in tasks:
                session.add_task(task)
            for worker in workers:
                session.add_worker(worker)
        a = plain.reassign(0.0)
        b = sharded.reassign(0.0)
        assert sorted(a.assignment.pairs()) == sorted(b.assignment.pairs())
        assert a.objective == b.objective
        sharded.close()
        plain.close()
