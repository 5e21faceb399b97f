"""Elastic-shard differential equivalence under adversarial load drift.

The contract under test is the standing invariant of
:class:`~repro.engine.elastic.ElasticShardedAssignmentEngine`: for any
shard count, any rebalance schedule (``rebalance=None`` — the static
tiling, whose random-op differential is ``tests/test_sharding.py`` — and
aggressive split/merge/migrate churn) and either resident executor, the
per-epoch plans *and* the :meth:`EngineMetrics.counters` lifetime
counters are bit-identical to the single-shard engine on the same churn
stream.  The adversarial drift scenarios (``DRIFT_SCENARIOS`` in
``conftest``) are built to provoke reshapes: a marching population that
walks load across block boundaries, flash-crowd hotspots that spike and
drain shards, and an oscillating cohort that punishes a rebalancer for
chasing the current hot block.

Alongside the differential families: Hypothesis properties for the two
load-bearing mechanisms — reshape interleavings preserve the
cell-partition invariant (and plans), and diff-build ∘ diff-apply is
identity against a full-resync rebuild — plus the diff-protocol failure
modes (stale resident → resync heal).  All differential classes carry
the ``churn`` marker.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedySolver
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    RebalancePolicy,
)
from repro.engine.elastic import ResidentShard
from repro.geometry.points import Point
from tests.conftest import (
    DRIFT_SCENARIOS,
    make_task,
    make_worker,
    drive,
    seed_population,
)

ETA = 0.125
EPOCHS = 8


def pair_key(pairs):
    """Canonical, rounding-sensitive view of a pair list."""
    return sorted((p.task_id, p.worker_id, p.arrival) for p in pairs)


def aggressive_policy():
    """A reshape-happy policy: decide every epoch, low imbalance bar."""
    return RebalancePolicy(every=1, imbalance=1.2, min_workers=4)


def make_elastic(num_shards, backend="numpy", solve_mode="full", **kwargs):
    kwargs.setdefault("rebalance", aggressive_policy())
    return ElasticShardedAssignmentEngine(
        solver=GreedySolver(),
        eta=ETA,
        rng=3,
        backend=backend,
        solve_mode=solve_mode,
        num_shards=num_shards,
        **kwargs,
    )


def run_scenario(engine, scenario, epochs=EPOCHS):
    """Seed the shared base population, then drive the drift trace."""
    seed_population(engine, num_tasks=6, num_workers=12, seed=5)
    plans = drive(engine, DRIFT_SCENARIOS[scenario](), epochs)
    return plans, engine.metrics.counters()


_REFERENCE_CACHE = {}


def reference_run(scenario, backend="numpy", solve_mode="full", epochs=EPOCHS):
    """Memoised single-shard reference (plans, counters) per axis combo."""
    key = (scenario, backend, solve_mode, epochs)
    if key not in _REFERENCE_CACHE:
        engine = AssignmentEngine(
            solver=GreedySolver(),
            eta=ETA,
            rng=3,
            backend=backend,
            solve_mode=solve_mode,
        )
        _REFERENCE_CACHE[key] = run_scenario(engine, scenario, epochs)
    return _REFERENCE_CACHE[key]


# --------------------------------------------------------------------- #
# Adversarial-churn differential suite
# --------------------------------------------------------------------- #


@pytest.mark.churn
class TestElasticDifferential:
    @pytest.mark.parametrize("scenario", sorted(DRIFT_SCENARIOS))
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_matches_single_engine_under_drift(self, scenario, num_shards):
        plans, counters = run_scenario(make_elastic(num_shards), scenario)
        assert (plans, counters) == reference_run(scenario)

    @pytest.mark.parametrize(
        "backend,solve_mode",
        [("python", "full"), ("python", "warm"), ("numpy", "warm")],
    )
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_backend_and_mode_matrix(self, backend, solve_mode, num_shards):
        # numpy/full at every shard count is covered above; together the
        # two tests sweep {python,numpy} x {full,warm} x {1,2,4}.
        engine = make_elastic(num_shards, backend=backend, solve_mode=solve_mode)
        plans, counters = run_scenario(engine, "marching")
        assert (plans, counters) == reference_run(
            "marching", backend=backend, solve_mode=solve_mode
        )

    @pytest.mark.parametrize("scenario", sorted(DRIFT_SCENARIOS))
    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_static_topology_matches_single_engine_under_drift(
        self, scenario, num_shards
    ):
        # The other end of the rebalance axis: no policy, so the tiling
        # never reshapes and the drift piles load onto whichever block it
        # visits (one shard is a single block either way, covered above).
        engine = make_elastic(num_shards, rebalance=None)
        plans, counters = run_scenario(engine, scenario)
        assert (plans, counters) == reference_run(scenario)
        assert engine.shard_map.topology_version == 0

    @pytest.mark.parametrize(
        "backend,solve_mode",
        [("python", "full"), ("python", "warm"), ("numpy", "warm")],
    )
    def test_static_topology_backend_and_mode_matrix(self, backend, solve_mode):
        engine = make_elastic(
            4, backend=backend, solve_mode=solve_mode, rebalance=None
        )
        plans, counters = run_scenario(engine, "marching")
        assert (plans, counters) == reference_run(
            "marching", backend=backend, solve_mode=solve_mode
        )

    def test_marching_drift_provokes_rebalances(self):
        engine = make_elastic(4)
        plans, counters = run_scenario(engine, "marching", epochs=10)
        assert engine.elastic_stats["rebalance_ops"] >= 2
        assert (plans, counters) == reference_run("marching", epochs=10)

    def test_process_executor_differential(self):
        engine = make_elastic(2, solve_mode="warm", executor="process")
        try:
            plans, counters = run_scenario(engine, "marching")
        finally:
            engine.close()
        assert (plans, counters) == reference_run("marching", solve_mode="warm")

    def test_static_topology_process_executor_differential(self):
        engine = make_elastic(
            4, solve_mode="warm", executor="process", rebalance=None
        )
        try:
            plans, counters = run_scenario(engine, "oscillating")
        finally:
            engine.close()
        assert (plans, counters) == reference_run("oscillating", solve_mode="warm")

    def test_full_reship_mode_is_identical(self):
        # diff_shipping=False re-ships every resident's full state each
        # epoch — the honest baseline the benchmark compares against.
        engine = make_elastic(4, diff_shipping=False)
        plans, counters = run_scenario(engine, "oscillating")
        assert (plans, counters) == reference_run("oscillating")
        assert engine.elastic_stats["resyncs"] == 0

    def test_diff_shipping_beats_full_ship_under_drift(self):
        engine = make_elastic(4)
        run_scenario(engine, "marching", epochs=10)
        stats = engine.elastic_stats
        assert 0 < stats["diff_bytes"] < stats["full_bytes"]

    def test_stale_resident_heals_via_resync(self):
        # Corrupt one resident's protocol state mid-run: the version
        # check flags it, the engine ships a full resync on the same
        # fan-out, and the plan stream never notices.
        engine = make_elastic(4)
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        churn = DRIFT_SCENARIOS["hotspot"]()
        plans = drive(engine, churn, 4)
        engine.executor.residents[0].version += 7
        plans += drive(engine, churn, EPOCHS, start=4)
        assert engine.elastic_stats["resyncs"] >= 1
        reference_plans, reference_counters = reference_run("hotspot")
        assert plans == reference_plans
        assert engine.metrics.counters() == reference_counters

    def test_serve_resume_adopts_an_elastic_log(self, tmp_path):
        # The service tier's resume path must come back as the elastic
        # engine — topology trajectory included — because restore_engine
        # dispatches on the durable meta row.
        from repro.serve import AssignmentServer

        path = tmp_path / "elastic-serve.db"
        engine = ElasticShardedAssignmentEngine(
            solver=GreedySolver(),
            eta=ETA,
            rng=3,
            backend="numpy",
            num_shards=4,
            rebalance=aggressive_policy(),
            durable_path=path,
            durable_snapshot_every=2,
        )
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        churn = DRIFT_SCENARIOS["marching"]()
        plans = drive(engine, churn, 4)
        topology = engine.shard_map.topology()
        del engine  # crash: no close(), nothing beyond the WAL

        server = AssignmentServer.resume(path, solver=GreedySolver())
        resumed = server.engine
        assert isinstance(resumed, ElasticShardedAssignmentEngine)
        assert resumed.shard_map.topology() == topology
        plans += drive(resumed, churn, EPOCHS, start=4)
        reference_plans, reference_counters = reference_run("marching")
        assert plans == reference_plans
        assert resumed.metrics.counters() == reference_counters
        resumed.close()

    def test_drifted_fingerprint_heals_via_resync(self):
        # Same heal path, triggered by state drift rather than a version
        # gap: the resident's fingerprint no longer matches the engine's.
        engine = make_elastic(4)
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        churn = DRIFT_SCENARIOS["marching"]()
        plans = drive(engine, churn, 4)
        engine.executor.residents[1].fingerprint ^= 0xDEADBEEF
        plans += drive(engine, churn, EPOCHS, start=4)
        assert engine.elastic_stats["resyncs"] >= 1
        reference_plans, _ = reference_run("marching")
        assert plans == reference_plans


# --------------------------------------------------------------------- #
# Hypothesis properties
# --------------------------------------------------------------------- #


def _reshape_candidates(shard_map):
    """Every currently-valid single reshape op, deterministically ordered."""
    active = [s for s in range(shard_map.num_shards) if not shard_map.is_dormant(s)]
    dormant = [s for s in range(shard_map.num_shards) if shard_map.is_dormant(s)]
    ops = []
    for donor in active:
        cells = shard_map.owned_cells(donor)
        if len(cells) >= 2:
            for target in dormant:
                ops.append(
                    {
                        "kind": "split",
                        "from": donor,
                        "to": target,
                        "cells": [list(c) for c in cells[: len(cells) // 2]],
                    }
                )
            for target in active:
                if target != donor:
                    ops.append(
                        {
                            "kind": "migrate",
                            "from": donor,
                            "to": target,
                            "cells": [list(cells[0])],
                        }
                    )
        if len(active) >= 2:
            for target in active:
                if target != donor:
                    ops.append(
                        {
                            "kind": "merge",
                            "from": donor,
                            "to": target,
                            "cells": [list(c) for c in cells],
                        }
                    )
    return ops


class TestElasticProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6))
    def test_reshape_interleavings_preserve_partition_and_pairs(self, draws):
        # Any interleaving of valid split/merge/migrate ops keeps the
        # cell ownership table a partition, keeps every entity routed to
        # its owner, and leaves the merged pair set bit-identical to the
        # single-shard engine's.
        engine = make_elastic(4, rebalance=None)
        seed_population(engine, num_tasks=6, num_workers=18, seed=5)
        reference = AssignmentEngine(
            solver=GreedySolver(), eta=ETA, rng=3, backend="numpy"
        )
        seed_population(reference, num_tasks=6, num_workers=18, seed=5)
        expected = pair_key(reference.current_pairs())

        shard_map = engine.shard_map
        total_cells = shard_map.n_cols**2
        for draw in draws:
            candidates = _reshape_candidates(shard_map)
            if not candidates:
                break
            engine.apply_rebalance([candidates[draw % len(candidates)]])

            owned = [shard_map.owned_cells(s) for s in range(shard_map.num_shards)]
            assert sum(len(cells) for cells in owned) == total_cells
            seen = set()
            for cells in owned:
                seen.update(cells)
            assert len(seen) == total_cells, "ownership must stay a partition"
            for worker_id, shard_id in engine._worker_shard.items():
                location = engine.workers[worker_id].location
                assert shard_map.shard_of_point(location) == shard_id
            assert pair_key(engine.current_pairs()) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=999),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_diff_apply_of_diff_build_is_identity(self, script):
        # Drive arbitrary churn through the engine (residents advance by
        # incremental diffs), then rebuild a fresh resident per shard
        # from a full-resync diff: fingerprints and valid pairs agree,
        # so diff-apply ∘ diff-build == full rebuild.
        engine = make_elastic(2, rebalance=None)
        clock = 0.0
        for code, value in script:
            position = Point(
                ((value * 2654435761) % 1000) / 1000.0,
                ((value * 40503) % 1000) / 1000.0,
            )
            if code == 0:
                worker_id = 100 + value % 40
                if worker_id not in engine.workers:
                    engine.add_worker(
                        make_worker(
                            worker_id,
                            x=position.x,
                            y=position.y,
                            velocity=0.3,
                            confidence=0.8,
                        )
                    )
            elif code == 1 and engine.workers:
                worker_id = sorted(engine.workers)[value % len(engine.workers)]
                engine.update_worker(
                    engine.workers[worker_id].moved_to(position, clock)
                )
            elif code == 2 and engine.workers:
                worker_id = sorted(engine.workers)[value % len(engine.workers)]
                engine.remove_worker(worker_id)
            elif code == 3:
                task_id = 600 + value % 40
                if task_id not in engine.tasks:
                    engine.add_task(
                        make_task(task_id, x=position.x, y=position.y, end=90.0)
                    )
            elif code == 4 and engine.tasks:
                task_id = sorted(engine.tasks)[value % len(engine.tasks)]
                engine.withdraw_task(task_id)
            clock += 0.125
            engine.current_pairs()  # flush this batch as one diff fan-out

        for shard_id in range(2):
            resident = engine.executor.residents[shard_id]
            full = engine._build_full_diff(shard_id)
            fresh = ResidentShard(shard_id, ETA, engine.validity)
            kind, version, _, _ = fresh.apply(full)
            assert kind == "ok"
            assert version == resident.version
            assert fresh.fingerprint == full.fingerprint == resident.fingerprint
            assert pair_key(fresh.grid.valid_pairs()) == pair_key(
                resident.grid.valid_pairs()
            )
