"""Durable engine state: WAL log, snapshot/restore, bit-identical replay.

The contract under test (``repro.engine.durable``): ``restore(snapshot) +
replay(log tail)`` reproduces the live engine's per-epoch plans
bit-exactly — on both backends, in full and warm solve modes, single and
sharded.  The kill-and-recover differential classes carry the ``churn``
marker (``pytest -m churn``) like the other engine-equivalence suites;
the codec and lifecycle units run in the default selection.
"""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedySolver
from repro.algorithms.sampling import SamplingSolver, substream_base_seed
from repro.core.diversity import WorkerProfile
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    RebalancePolicy,
)
from repro.engine.durable import (
    DurableLog,
    decode_snapshot,
    encode_snapshot,
    replay_records,
    restore_engine,
    rng_from_spec,
    rng_spec,
    solver_config,
    task_from_row,
    task_row,
    worker_from_row,
    worker_row,
)
from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.serve.__main__ import solver_from_log
from repro.solvers.incremental import WarmStartSamplingSolver
from tests.conftest import (
    DRIFT_SCENARIOS,
    ScriptedChurn,
    drive,
    make_task,
    make_worker,
    seed_population,
)


# ---------------------------------------------------------------------- #
# Codecs
# ---------------------------------------------------------------------- #


class TestCodecs:
    def test_task_row_round_trip_bit_exact(self):
        task = make_task(3, x=0.1234567890123456, y=1 / 3, start=0.1, end=7.7)
        assert task_from_row(task_row(task)) == task

    def test_worker_row_round_trip_bit_exact(self):
        worker = make_worker(
            9,
            x=2 / 3,
            y=0.9999999999999999,
            velocity=0.123,
            cone=AngleInterval(1.234567, 2.345678),
            confidence=0.87,
            depart_time=3.3,
        )
        restored = worker_from_row(worker_row(worker))
        assert restored == worker
        assert restored.cone.lo == worker.cone.lo  # normalisation idempotent

    def test_rng_seed_spec_round_trip(self):
        spec = rng_spec(17)
        assert rng_from_spec(spec) == 17

    def test_rng_generator_position_round_trip(self):
        generator = np.random.default_rng(5)
        generator.integers(0, 2**63, size=13)  # advance mid-stream
        restored = rng_from_spec(rng_spec(generator))
        assert restored.integers(0, 2**63, size=8).tolist() == (
            generator.integers(0, 2**63, size=8).tolist()
        )

    def test_rng_spec_survives_json(self):
        import json

        generator = np.random.default_rng(11)
        generator.random(7)
        spec = json.loads(json.dumps(rng_spec(generator)))
        restored = rng_from_spec(spec)
        assert restored.random(5).tolist() == generator.random(5).tolist()

    def test_rng_none_is_rejected(self):
        with pytest.raises(ValueError, match="deterministic rng"):
            rng_spec(None)

    def test_substream_position_round_trip(self):
        # The bug being pinned: ``substream_base_seed`` draws one integer
        # per SAMPLING solve from the engine's stream, so a restore that
        # re-seeded from scratch would draw different base seeds and
        # silently diverge every subsequent plan.
        generator = np.random.default_rng(23)
        for _ in range(4):  # four solves already happened
            substream_base_seed(generator)
        twin = rng_from_spec(rng_spec(generator))
        assert [substream_base_seed(twin) for _ in range(3)] == [
            substream_base_seed(generator) for _ in range(3)
        ]

    def test_snapshot_codec_round_trip(self, tmp_path):
        engine = AssignmentEngine(solver=GreedySolver(), rng=3, solve_mode="warm")
        seed_population(engine)
        engine.epoch(0.0)
        engine.hold_worker(4)
        snapshot = engine.snapshot()
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.tasks == snapshot.tasks
        assert decoded.workers == snapshot.workers
        assert decoded.assignment == snapshot.assignment
        assert decoded.held == snapshot.held
        assert decoded.plan.signatures == snapshot.plan.signatures
        assert decoded.plan.assignment == snapshot.plan.assignment
        assert decoded.delta.workers_held == snapshot.delta.workers_held
        assert decoded.metrics == snapshot.metrics


# ---------------------------------------------------------------------- #
# The log itself
# ---------------------------------------------------------------------- #


class TestDurableLog:
    def test_wal_mode_and_pragmas(self, tmp_path):
        log = DurableLog(tmp_path / "s.db")
        mode = log._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        log.close()
        log.close()  # idempotent

    def test_append_and_tail(self, tmp_path):
        log = DurableLog(tmp_path / "s.db")
        log.append_events([("task_arrive", 0.0, {"task": task_row(make_task(1))})])
        log.append_events([("worker_hold", 1.0, {"worker_id": 4})])
        records = list(log.tail(0))
        assert [r[1] for r in records] == ["task_arrive", "worker_hold"]
        assert list(log.tail(records[0][0])) == [records[1]]
        assert log.last_seq() == records[1][0]
        log.close()

    def test_fresh_engine_refuses_populated_log(self, tmp_path):
        path = tmp_path / "s.db"
        engine = AssignmentEngine(solver=GreedySolver(), rng=1, durable_path=path)
        engine.add_task(make_task(0))
        engine.close()
        with pytest.raises(ValueError, match="already holds a session"):
            AssignmentEngine(solver=GreedySolver(), rng=1, durable_path=path)

    def test_durable_requires_deterministic_rng(self, tmp_path):
        with pytest.raises(ValueError, match="deterministic rng"):
            AssignmentEngine(
                solver=GreedySolver(), rng=None, durable_path=tmp_path / "s.db"
            )

    def test_snapshot_cadence(self, tmp_path):
        engine = AssignmentEngine(
            solver=GreedySolver(),
            rng=1,
            durable_path=tmp_path / "s.db",
            durable_snapshot_every=2,
        )
        seed_population(engine, num_tasks=4, num_workers=8)
        assert engine.durable.num_snapshots() == 1  # snapshot zero
        for k in range(4):
            engine.epoch(float(k))
        assert engine.durable.num_snapshots() == 3
        engine.close()

    def test_epoch_history_analytics(self, tmp_path):
        engine = AssignmentEngine(
            solver=GreedySolver(), rng=1, durable_path=tmp_path / "s.db"
        )
        seed_population(engine, num_tasks=4, num_workers=8)
        first = engine.epoch(0.0)
        engine.epoch(1.0)
        history = engine.durable.epoch_history()
        assert [h["now"] for h in history] == [0.0, 1.0]
        assert history[0]["dispatch"] == sorted(
            [w, t] for w, t in first.dispatch.items()
        )
        assert history[0]["objective"] == [
            first.objective.min_reliability,
            first.objective.total_std,
        ]
        engine.close()

    def test_restore_checks_solver_class(self, tmp_path):
        path = tmp_path / "s.db"
        engine = AssignmentEngine(solver=GreedySolver(), rng=1, durable_path=path)
        engine.close()
        with pytest.raises(ValueError, match="GreedySolver"):
            restore_engine(path, solver=SamplingSolver(num_samples=4))


# ---------------------------------------------------------------------- #
# Inclusive-deadline boundary across snapshot/restore
# ---------------------------------------------------------------------- #


class TestDeadlineBoundary:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_restore_at_deadline_instant_keeps_task_live(self, backend, tmp_path):
        # A task whose window closes exactly at the snapshot instant must
        # survive the restore (``expired_at`` is ``now > end``: inclusive
        # deadline) and then expire on the next tick exactly like the
        # uninterrupted engine — same plans, same expiry sweep.
        deadline = 2.0

        def build(path=None):
            engine = AssignmentEngine(
                solver=GreedySolver(),
                rng=1,
                backend=backend,
                durable_path=path,
                durable_snapshot_every=1,
            )
            seed_population(engine, num_tasks=6, num_workers=12, end_lo=6.0)
            engine.add_task(make_task(99, x=0.5, y=0.5, end=deadline))
            return engine

        live = build()
        live_at = live.epoch(deadline)  # snapshot-every=1 twin snapshots here
        live_after = live.epoch(deadline + 1.0)

        path = tmp_path / "boundary.db"
        durable = build(path)
        at = durable.epoch(deadline)
        assert sorted(at.dispatch.items()) == sorted(live_at.dispatch.items())
        assert 99 in durable.tasks  # inclusive: end == now is still live
        del durable  # kill exactly at the deadline instant

        restored = restore_engine(path, solver=GreedySolver())
        assert 99 in restored.tasks, (
            "restore at the deadline instant must not expire the task early"
        )
        after = restored.epoch(deadline + 1.0)
        assert 99 in after.expired and 99 in live_after.expired
        assert sorted(after.dispatch.items()) == sorted(live_after.dispatch.items())
        restored.close()


# ---------------------------------------------------------------------- #
# Kill-and-recover differentials (the replay contract)
# ---------------------------------------------------------------------- #


@pytest.mark.churn
class TestKillAndRecover:
    EPOCHS = 6
    KILL_AFTER = 3

    def run_reference(self, make_engine):
        engine = make_engine(None)
        seed_population(engine)
        plans = drive(engine, ScriptedChurn(), self.EPOCHS)
        counters = engine.metrics.counters()
        engine.close()
        return plans, counters

    def run_killed_and_recovered(self, make_engine, path, solver_factory):
        engine = make_engine(path)
        seed_population(engine)
        churn = ScriptedChurn()
        plans = drive(engine, churn, self.KILL_AFTER)
        del engine  # crash: no close(), no flush beyond the WAL

        recovered = restore_engine(path, solver=solver_factory())
        for k in range(self.KILL_AFTER, self.EPOCHS):
            churn.step(recovered, k)
            result = recovered.epoch(float(k))
            plans.append((sorted(result.dispatch.items()), result.mode))
        counters = recovered.metrics.counters()
        recovered.close()
        return plans, counters

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("solve_mode", ["full", "warm"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_recovered_plans_bit_identical(
        self, backend, solve_mode, num_shards, tmp_path
    ):
        # The live engine's solver carries a warm cross-solve memo into the
        # epochs after the crash; the recovered one starts cold.  Plans and
        # counters must not tell them apart.
        def solver_factory():
            return GreedySolver(backend=backend)

        def make_engine(path):
            kwargs = dict(
                solver=solver_factory(),
                rng=9,
                backend=backend,
                solve_mode=solve_mode,
                durable_path=path,
                durable_snapshot_every=2,
            )
            if num_shards > 1:
                return ElasticShardedAssignmentEngine(
                    num_shards=num_shards, **kwargs
                )
            return AssignmentEngine(**kwargs)

        reference_plans, reference_counters = self.run_reference(make_engine)
        recovered_plans, recovered_counters = self.run_killed_and_recovered(
            make_engine, tmp_path / "kill.db", solver_factory
        )
        assert recovered_plans == reference_plans
        assert recovered_counters == reference_counters
        if solve_mode == "warm":
            assert any(mode == "warm" for _, mode in recovered_plans[
                self.KILL_AFTER :
            ]), "warm repair must survive recovery (plan is in the snapshot)"

    def test_static_sharded_era_log_restores_onto_the_merged_engine(self, tmp_path):
        # Logs written by the retired ``ShardedAssignmentEngine`` name that
        # class in the meta row and carry no rebalance/diff_shipping keys;
        # they must come back as the merged engine on its static tiling
        # and continue bit-identically.
        def make_engine(path):
            return ElasticShardedAssignmentEngine(
                solver=GreedySolver(),
                rng=9,
                num_shards=4,
                durable_path=path,
                durable_snapshot_every=2,
            )

        path = tmp_path / "static-era.db"
        engine = make_engine(path)
        assert engine.durable.meta()["engine"] == "ElasticShardedAssignmentEngine"
        seed_population(engine)
        churn = ScriptedChurn()
        plans = drive(engine, churn, self.KILL_AFTER)
        del engine  # crash: no close(), no flush beyond the WAL
        with DurableLog(path) as log:
            log.set_meta({"engine": "ShardedAssignmentEngine"})
            log._conn.execute(
                "DELETE FROM meta WHERE key IN ('rebalance', 'diff_shipping')"
            )
            log._conn.commit()

        recovered = restore_engine(path, solver=GreedySolver())
        assert isinstance(recovered, ElasticShardedAssignmentEngine)
        assert recovered.policy is None and recovered.diff_shipping
        plans += drive(recovered, churn, self.EPOCHS, start=self.KILL_AFTER)
        assert (plans, recovered.metrics.counters()) == self.run_reference(
            make_engine
        )
        recovered.close()

    def test_no_index_era_log_restores_onto_the_indexed_engine(self, tmp_path):
        # Logs from before the grid index became the only retrieval path
        # record ``use_index`` in the meta row.  The no-index scan returned
        # the same pair set, so a log claiming it must restore onto the
        # indexed engine and continue bit-identically, epoch for epoch.
        def make_engine(path):
            return AssignmentEngine(
                solver=GreedySolver(),
                rng=9,
                durable_path=path,
                durable_snapshot_every=2,
            )

        def run(engine, churn, start, stop):
            trace = []
            for k in range(start, stop):
                churn.step(engine, k)
                result = engine.epoch(float(k))
                trace.append(
                    (sorted(result.dispatch.items()), engine.metrics.counters())
                )
            return trace

        reference = make_engine(None)
        seed_population(reference)
        expected = run(reference, ScriptedChurn(), 0, self.EPOCHS)
        reference.close()

        path = tmp_path / "no-index-era.db"
        engine = make_engine(path)
        assert "use_index" not in engine.durable.meta()
        seed_population(engine)
        churn = ScriptedChurn()
        trace = run(engine, churn, 0, self.KILL_AFTER)
        del engine  # crash: no close(), no flush beyond the WAL
        with DurableLog(path) as log:
            log.set_meta({"use_index": False})

        recovered = restore_engine(path, solver=GreedySolver())
        assert type(recovered) is AssignmentEngine
        trace += run(recovered, churn, self.KILL_AFTER, self.EPOCHS)
        assert trace == expected
        recovered.close()

    @pytest.mark.parametrize("solve_mode", ["full", "warm"])
    def test_backend_era_sampling_log_restores(self, solve_mode, tmp_path):
        # Logs from when ``SamplingSolver`` took a ``backend`` fingerprint
        # it, nested under ``base`` for a warm wrapper.  Both backends drew
        # identical samples, so such a log must restore onto today's
        # solver and continue bit-identically, counters included.
        def solver_factory():
            if solve_mode == "warm":
                return WarmStartSamplingSolver(SamplingSolver(num_samples=16))
            return SamplingSolver(num_samples=16)

        def make_engine(path):
            return AssignmentEngine(
                solver=solver_factory(),
                rng=np.random.default_rng(31),
                solve_mode=solve_mode,
                durable_path=path,
                durable_snapshot_every=2,
            )

        path = tmp_path / "backend-era.db"
        engine = make_engine(path)
        recorded = engine.durable.meta()["solver_config"]
        sampling_config = recorded["base"] if solve_mode == "warm" else recorded
        assert "num_samples" in sampling_config
        assert "backend" not in sampling_config
        seed_population(engine)
        churn = ScriptedChurn()
        plans = drive(engine, churn, self.KILL_AFTER)
        del engine  # crash: no close(), no flush beyond the WAL
        sampling_config["backend"] = "numpy"
        with DurableLog(path) as log:
            log.set_meta({"solver_config": recorded})

        if solve_mode == "warm":
            solver = solver_factory()
        else:
            # The serve CLI rebuilds the solver from the same meta row.
            solver = solver_from_log(str(path))
        recovered = restore_engine(path, solver=solver)
        plans += drive(recovered, churn, self.EPOCHS, start=self.KILL_AFTER)
        if solve_mode == "warm":
            assert any(mode == "warm" for _, mode in plans[self.KILL_AFTER :])
        assert (plans, recovered.metrics.counters()) == self.run_reference(
            make_engine
        )
        recovered.close()

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_sampling_stream_position_survives_recovery(self, backend, tmp_path):
        # SAMPLING with a persistent Generator: every solve consumes one
        # ``substream_base_seed`` draw, so plan equality across the kill
        # point proves the stream position (not just the seed) survived.
        def solver_factory():
            return SamplingSolver(num_samples=16)

        def make_engine(path):
            return AssignmentEngine(
                solver=solver_factory(),
                rng=np.random.default_rng(31),
                backend=backend,
                durable_path=path,
                durable_snapshot_every=2,
            )

        reference_plans, reference_counters = self.run_reference(make_engine)
        recovered_plans, recovered_counters = self.run_killed_and_recovered(
            make_engine, tmp_path / "sampling.db", solver_factory
        )
        assert recovered_plans == reference_plans
        assert recovered_counters == reference_counters

    def test_double_recovery_continues_the_same_log(self, tmp_path):
        # Recover, continue, crash again, recover again: the second
        # recovery replays events the *first* recovery appended.
        path = tmp_path / "twice.db"
        engine = AssignmentEngine(
            solver=GreedySolver(), rng=9, durable_path=path, durable_snapshot_every=4
        )
        seed_population(engine)
        churn = ScriptedChurn()
        plans = drive(engine, churn, 2)
        del engine
        once = restore_engine(path, solver=GreedySolver())
        plans += drive(once, churn, 4, start=2)
        del once
        twice = restore_engine(path, solver=GreedySolver())
        plans += drive(twice, churn, 6, start=4)

        reference = AssignmentEngine(solver=GreedySolver(), rng=9)
        seed_population(reference)
        assert plans == drive(reference, ScriptedChurn(), 6)
        twice.close()

    def test_restore_keeps_the_live_assignment(self, tmp_path):
        path = tmp_path / "session.db"
        engine = AssignmentEngine(solver=GreedySolver(), rng=3, durable_path=path)
        engine.add_task(make_task(0, end=9.0))
        engine.add_worker(make_worker(0, x=0.4, y=0.5))
        first = engine.epoch(0.0)
        del engine
        recovered = restore_engine(path, solver=GreedySolver())
        assert sorted(recovered.assignment.pairs()) == sorted(
            first.assignment.pairs()
        )
        again = recovered.epoch(1.0)
        assert again.num_tasks == 1
        recovered.close()


# ---------------------------------------------------------------------- #
# Pinned / forbidden epoch arguments round-trip through the marker
# ---------------------------------------------------------------------- #


class TestEpochMarkerArguments:
    def test_pinned_and_forbidden_replay(self, tmp_path):
        def run(path):
            engine = AssignmentEngine(
                solver=GreedySolver(), rng=5, durable_path=path
            )
            seed_population(engine, num_tasks=5, num_workers=10)
            pinned = {0: [WorkerProfile(77, angle=1.25, arrival=0.5, confidence=0.9)]}
            forbidden = {(2, 1), (3, 0)}
            engine.epoch(0.0, pinned=pinned, forbidden=forbidden)
            second = engine.epoch(1.0, pinned=pinned, forbidden=forbidden)
            return engine, sorted(second.dispatch.items())

        live, live_plan = run(None)
        durable, durable_plan = run(tmp_path / "pinned.db")
        assert durable_plan == live_plan
        del durable

        restored = restore_engine(tmp_path / "pinned.db", solver=GreedySolver())
        assert sorted(restored.assignment.pairs()) == sorted(
            live.assignment.pairs()
        )
        restored.close()


# ---------------------------------------------------------------------- #
# Log compaction
# ---------------------------------------------------------------------- #


class TestCompaction:
    def test_compact_requires_a_snapshot(self, tmp_path):
        with DurableLog(tmp_path / "virgin.db") as log:
            log.append_events([("noop", 0.0, {})])
            with pytest.raises(ValueError, match="without a snapshot"):
                log.compact()
            with pytest.raises(ValueError, match="retain_snapshots"):
                log.compact(retain_snapshots=0)

    def test_compact_truncates_redundant_prefix(self, tmp_path):
        path = tmp_path / "compact.db"
        engine = AssignmentEngine(
            solver=GreedySolver(), rng=9, durable_path=path, durable_snapshot_every=2
        )
        seed_population(engine)
        drive(engine, ScriptedChurn(), 6)
        log = engine.durable
        assert log.num_snapshots() >= 2
        before_last = log.last_seq()
        stats = log.compact(retain_snapshots=1, vacuum=True)
        assert stats["events_deleted"] > 0
        assert stats["snapshots_deleted"] >= 1
        assert stats["snapshots_retained"] == 1
        assert stats["vacuumed"] is True
        assert log.num_snapshots() == 1
        assert log.stats["compactions"] == 1
        # Only the post-snapshot tail survives, and AUTOINCREMENT means a
        # post-compaction append never reuses a truncated seq.
        surviving = [seq for seq, *_ in log.tail(0)]
        assert all(seq > stats["cutoff_seq"] for seq in surviving)
        log.append_events([("noop", 6.0, {})])
        assert log.last_seq() > before_last
        # Compacting again is a no-op (everything redundant is gone).
        again = log.compact(retain_snapshots=1)
        assert again["events_deleted"] == 0
        assert again["snapshots_deleted"] == 0
        engine.close()

    def test_restore_after_compaction_bit_exact(self, tmp_path):
        path = tmp_path / "compacted.db"
        engine = AssignmentEngine(
            solver=GreedySolver(), rng=9, durable_path=path, durable_snapshot_every=2
        )
        seed_population(engine)
        churn = ScriptedChurn()
        plans = drive(engine, churn, 5)
        engine.durable.compact(retain_snapshots=1, vacuum=True)
        del engine
        recovered = restore_engine(path, solver=GreedySolver())
        plans += drive(recovered, churn, 8, start=5)
        recovered_counters = recovered.metrics.counters()
        recovered.close()

        reference = AssignmentEngine(solver=GreedySolver(), rng=9)
        seed_population(reference)
        reference_plans = drive(reference, ScriptedChurn(), 8)
        assert plans == reference_plans
        assert recovered_counters == reference.metrics.counters()


# ---------------------------------------------------------------------- #
# Solver constructor-parameter fingerprints
# ---------------------------------------------------------------------- #


class TestSolverConfigGuard:
    def test_greedy_flag_mismatch_raises(self, tmp_path):
        path = tmp_path / "greedy.db"
        AssignmentEngine(solver=GreedySolver(), rng=1, durable_path=path).close()
        with pytest.raises(ValueError, match="configured as"):
            restore_engine(path, solver=GreedySolver(use_pruning=False))
        with pytest.raises(ValueError, match="configured as"):
            restore_engine(path, solver=GreedySolver(backend="numpy"))

    def test_sampling_params_mismatch_raises(self, tmp_path):
        path = tmp_path / "sampling.db"
        AssignmentEngine(
            solver=SamplingSolver(num_samples=4), rng=1, durable_path=path
        ).close()
        with pytest.raises(ValueError, match="configured as"):
            restore_engine(path, solver=SamplingSolver(num_samples=8))

    def test_matching_config_restores(self, tmp_path):
        path = tmp_path / "match.db"
        AssignmentEngine(
            solver=GreedySolver(use_pruning=False), rng=1, durable_path=path
        ).close()
        restored = restore_engine(path, solver=GreedySolver(use_pruning=False))
        restored.close()

    def test_config_is_fingerprinted(self, tmp_path):
        path = tmp_path / "meta.db"
        engine = AssignmentEngine(
            solver=SamplingSolver(num_samples=4), rng=1, durable_path=path
        )
        recorded = engine.durable.meta()["solver_config"]
        assert recorded == solver_config(engine.solver)
        assert recorded["num_samples"] == 4
        engine.close()

    def test_legacy_log_without_fingerprint_still_restores(self, tmp_path):
        # Logs written before the fingerprint keep the class-name-only
        # check: a differing flag slips through, but restore must work.
        path = tmp_path / "legacy.db"
        AssignmentEngine(solver=GreedySolver(), rng=1, durable_path=path).close()
        with DurableLog(path) as log:
            log._conn.execute(
                "DELETE FROM meta WHERE key = ?", ("solver_config",)
            )
            log._conn.commit()
        restored = restore_engine(path, solver=GreedySolver(use_pruning=False))
        restored.close()


# ---------------------------------------------------------------------- #
# Elastic engine: topology trajectory through the WAL
# ---------------------------------------------------------------------- #


@pytest.mark.churn
class TestElasticKillAndRecover:
    """Crash-after-reshape recovery for the elastic sharded engine.

    The WAL logs every rebalance as an explicit event before its epoch
    marker, so ``restore_engine`` must replay the exact split/merge/
    migrate trajectory (the snapshot carries the ownership table for the
    compacted prefix) and the recovered engine — same deterministic
    policy, same loads — must keep making the *same* reshape decisions
    for the remaining epochs.
    """

    EPOCHS = 8
    KILL_AFTER = 5  # late enough that the aggressive policy has fired

    def make_engine(self, path, tmp=None):
        return ElasticShardedAssignmentEngine(
            solver=GreedySolver(),
            rng=9,
            backend="numpy",
            num_shards=4,
            rebalance=RebalancePolicy(every=1, imbalance=1.2, min_workers=4),
            durable_path=path,
            durable_snapshot_every=2,
        )

    def run_reference(self):
        engine = self.make_engine(None)
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        plans = drive(engine, DRIFT_SCENARIOS["marching"](), self.EPOCHS)
        out = (plans, engine.metrics.counters(), engine.shard_map.topology())
        engine.close()
        return out

    def test_recovery_replays_the_reshape_trajectory(self, tmp_path):
        path = tmp_path / "elastic.db"
        engine = self.make_engine(path)
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        churn = DRIFT_SCENARIOS["marching"]()
        plans = drive(engine, churn, self.KILL_AFTER)
        ops_before_crash = engine.elastic_stats["rebalance_ops"]
        topology_at_crash = engine.shard_map.topology()
        assert ops_before_crash >= 1, "scenario must reshape before the kill"
        del engine  # crash: no close(), nothing beyond the WAL

        recovered = restore_engine(path, solver=GreedySolver())
        assert isinstance(recovered, ElasticShardedAssignmentEngine)
        # Replay reproduced the topology trajectory, not just entity state.
        assert recovered.shard_map.topology() == topology_at_crash
        # (elastic_stats is shipping *accounting*, not durable state: it
        # restarts at the last snapshot and only counts the tail replay.)
        plans += drive(recovered, churn, self.EPOCHS, start=self.KILL_AFTER)

        reference_plans, reference_counters, reference_topology = (
            self.run_reference()
        )
        assert plans == reference_plans
        assert recovered.metrics.counters() == reference_counters
        assert recovered.shard_map.topology() == reference_topology
        recovered.close()

    def test_double_recovery_keeps_the_topology_trajectory(self, tmp_path):
        path = tmp_path / "elastic-twice.db"
        engine = self.make_engine(path)
        seed_population(engine, num_tasks=6, num_workers=12, seed=5)
        churn = DRIFT_SCENARIOS["marching"]()
        plans = drive(engine, churn, 3)
        del engine

        once = restore_engine(path, solver=GreedySolver())
        plans += drive(once, churn, 6, start=3)
        del once  # second crash: replays events the first recovery wrote

        twice = restore_engine(path, solver=GreedySolver())
        plans += drive(twice, churn, self.EPOCHS, start=6)

        reference_plans, reference_counters, reference_topology = (
            self.run_reference()
        )
        assert plans == reference_plans
        assert twice.metrics.counters() == reference_counters
        assert twice.shard_map.topology() == reference_topology
        twice.close()
