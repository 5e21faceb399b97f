"""Metric names, units and the result line — the code side of ``BENCHMARK.json``.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark prints,
in the order ``BENCHMARK.json`` declares them (the smoke test checks the
two agree).  Every workload reports every end-to-end metric; a per-layer
metric reads ``0`` on a workload that does not exercise its layer (no
WAL on ``solve_full``, no pool on ``wire_fleet``, ...), which is also
the prediction for that workload: a change to the layer should leave it
at zero.

Each per-layer entry names the workloads it is measured on (``on``) and
the end-to-end metric and workload it is expected to move (``moves``) — written down before any optimisation is
attempted, so a later claim can be checked against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: ``(name, unit)`` of the gated metrics, reported by every workload.
END_TO_END: List[Tuple[str, str]] = [
    ("epoch_p50_ms", "ms"),
    ("events_per_s", "1/s"),
    ("epoch_cpu_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("objective_std_ratio", "ratio"),
    ("objective_minrel_ratio", "ratio"),
    ("setup_s", "s"),
]

#: Workload groups a per-layer metric is measured on (``on``).
ALL = ("solve_full", "sample_pool", "drift_elastic", "wire_fleet")
TASK_CHURN = ("solve_full", "drift_elastic", "wire_fleet")
GREEDY = ("solve_full", "drift_elastic", "wire_fleet")
NUMPY_GREEDY = ("solve_full", "drift_elastic")
POOL = ("sample_pool",)
ELASTIC = ("drift_elastic",)
WAL = ("drift_elastic", "wire_fleet")
WIRE = ("wire_fleet",)
NONE = ()  # a count whose healthy value is 0 everywhere

#: ``(name, unit, on, moves)`` of the traced run's per-layer metrics.
PER_LAYER: List[Tuple[str, str, Tuple[str, ...], str]] = [
    ("engine.apply_ms", "ms", ALL,
     "events_per_s, epoch_p50_ms on drift_elastic; flat on solve_full"),
    ("engine.epoch_ms", "ms", ALL,
     "epoch_p50_ms on every workload"),
    ("engine.epoch_p90_ms", "ms", ALL,
     "tail of the cycle (apply + epoch; wire: epoch request due -> response); informational: 16-29 % run-to-run spread kept it out of the gate"),
    ("engine.self_share", "ratio", ALL,
     "epoch_p50_ms on drift_elastic"),
    ("engine.events_per_epoch", "count", ALL,
     "exact on the direct workloads; the base of events_per_s"),
    ("scheduler.coalesce_share", "ratio", ALL,
     "events_per_s on drift_elastic"),
    ("index.share", "ratio", ALL,
     "epoch_p50_ms on drift_elastic; flat on sample_pool"),
    ("index.cache_hit_rate", "ratio", ALL,
     "exact; epoch_p50_ms on drift_elastic"),
    ("index.pairs_per_epoch", "count", ALL,
     "exact; the solve's input size on every workload"),
    ("index.update_us", "us", ALL,
     "epoch_p50_ms on drift_elastic (worker writes)"),
    ("index.task_write_us", "us", TASK_CHURN,
     "epoch_p50_ms on solve_full (task writes)"),
    ("fastpath.slot_update_us", "us", ALL,
     "events_per_s on drift_elastic"),
    ("fastpath.dstd_share", "ratio", GREEDY,
     "epoch_p50_ms on solve_full"),
    ("core.build_problem_ms", "ms", ALL,
     "epoch_p50_ms on solve_full, sample_pool"),
    ("algorithms.solve_share", "ratio", ALL,
     "epoch_p50_ms on solve_full, sample_pool; flat on wire_fleet"),
    ("algorithms.prune_share", "ratio", GREEDY,
     "epoch_p50_ms on solve_full"),
    ("algorithms.dminr_share", "ratio", NUMPY_GREEDY,
     "epoch_p50_ms on solve_full"),
    ("algorithms.samples_per_s", "1/s", POOL,
     "epoch_p50_ms, events_per_s on sample_pool"),
    ("incremental.warm_share", "ratio", ELASTIC,
     "exact; epoch_p50_ms, objective_std_ratio on drift_elastic"),
    ("parallel.pool_cpu_share", "ratio", POOL,
     "epoch_cpu_ms on sample_pool only"),
    ("parallel.parent_wait_share", "ratio", POOL,
     "epoch_p50_ms on sample_pool only"),
    ("parallel.vs_inline_ratio", "ratio", POOL,
     "inline p50 / pool p50 (>1: the pool wins); epoch_p50_ms, epoch_cpu_ms on sample_pool"),
    ("elastic.route_share", "ratio", ELASTIC,
     "events_per_s on drift_elastic only"),
    ("elastic.diff_ship_share", "ratio", ELASTIC,
     "epoch_p50_ms on drift_elastic only"),
    ("elastic.merge_share", "ratio", ELASTIC,
     "epoch_p50_ms on drift_elastic only"),
    ("elastic.rebalance_share", "ratio", ELASTIC,
     "epoch_p90_ms on drift_elastic only"),
    ("elastic.diff_bytes_per_epoch", "B", ELASTIC,
     "exact; epoch_p50_ms on drift_elastic"),
    ("elastic.ship_fraction", "ratio", ELASTIC,
     "exact; diff bytes / full re-ship bytes on drift_elastic"),
    ("elastic.resyncs", "count", NONE,
     "exact; must stay 0 on drift_elastic"),
    ("elastic.rebalance_ops", "count", ELASTIC,
     "exact; epoch_p90_ms on drift_elastic"),
    ("elastic.load_skew", "ratio", ELASTIC,
     "exact; busiest shard / mean shard on drift_elastic"),
    ("elastic.vs_single_ratio", "ratio", ELASTIC,
     "unsharded p50 / elastic p50 (>1: sharding wins); epoch_p50_ms on drift_elastic"),
    ("elastic.proc_vs_seq_ratio", "ratio", ELASTIC,
     "sequential p50 / process p50 (>1: processes win); epoch_p50_ms, epoch_cpu_ms on drift_elastic"),
    ("wal.append_share", "ratio", WAL,
     "epoch_p50_ms on drift_elastic, wire_fleet"),
    ("wal.append_us_per_event", "us", WAL,
     "events_per_s on drift_elastic, wire_fleet"),
    ("wal.snapshot_ms", "ms", ELASTIC,
     "epoch_p90_ms on drift_elastic (snapshot epochs are the tail)"),
    ("wal.bytes_per_event", "B", WAL,
     "wal.recover_s on drift_elastic"),
    ("wal.replay_epochs_per_s", "1/s", ELASTIC,
     "wal.recover_s on drift_elastic"),
    ("wal.recover_s", "s", ELASTIC,
     "restart time a user sees on drift_elastic (one workload only, so not gated)"),
    ("serve.decode_us", "us", WIRE,
     "events_per_s, serve.ingest_p50_ms on wire_fleet"),
    ("serve.encode_us", "us", WIRE,
     "events_per_s on wire_fleet"),
    ("serve.batcher_add_us", "us", WIRE,
     "events_per_s on wire_fleet"),
    ("serve.drain_us_per_event", "us", WIRE,
     "epoch_p50_ms on wire_fleet"),
    ("serve.driver_epoch_ms", "ms", WIRE,
     "epoch_p50_ms on wire_fleet"),
    ("serve.server_cpu_us_per_event", "us", WIRE,
     "events_per_s, epoch_cpu_ms on wire_fleet"),
    ("serve.residual_us", "us", WIRE,
     "server CPU per event minus decode, batcher add and encode: asyncio + socket, on wire_fleet"),
    ("serve.shed_share", "ratio", WIRE,
     "events_per_s on wire_fleet"),
    ("serve.queue_high_watermark", "count", WIRE,
     "peak_rss_mb on wire_fleet"),
    ("serve.admission_waits", "count", NONE,
     "must stay 0 at the benchmark's rate on wire_fleet"),
    ("serve.frames_streamed", "count", WIRE,
     "one decision frame per epoch on wire_fleet"),
    ("serve.frames_dropped", "count", NONE,
     "must stay 0 on wire_fleet"),
    ("serve.ingest_p50_ms", "ms", WIRE,
     "ping latency a fleet sees on wire_fleet (one workload only, so not gated)"),
    ("serve.ingest_p90_ms", "ms", WIRE,
     "as above; tracks pings landing inside an epoch's GIL hold"),
    ("serve.ingest_p99_ms", "ms", WIRE,
     "informational: set by which pings land inside an epoch"),
    ("serve.decision_lag_p50_ms", "ms", WIRE,
     "ping due to the next decision on wire_fleet"),
    ("loadgen.late_p99_ms", "ms", WIRE,
     "generator health: a run above 5 ms is invalid"),
    ("profile.coverage", "ratio", ALL,
     "sum of EpochRecord.phases / epoch wall; ROADMAP wants >= 0.95"),
    ("trace.overhead_ratio", "ratio", ALL,
     "traced p50 / untraced p50 of the same epochs"),
]


#: Per-layer metrics where a larger value is the better one (all others:
#: lower); ``BENCHMARK.json`` records the direction.
HIGHER_IS_BETTER = frozenset(
    {
        "index.cache_hit_rate",
        "algorithms.samples_per_s",
        "incremental.warm_share",
        "parallel.vs_inline_ratio",
        "elastic.vs_single_ratio",
        "elastic.proc_vs_seq_ratio",
        "wal.replay_epochs_per_s",
        "serve.shed_share",
        "profile.coverage",
    }
)


@dataclass
class Ops:
    """Operation accounting: every attempted op either succeeds or fails.

    An op is an applied event batch, an epoch, a wire request, or one
    verification comparison; a failed op also counts as missing any
    latency bound, so ``failed > 0`` makes the whole run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, count: int = 1) -> None:
        """``count`` ops succeeded."""
        self.attempted += count

    def fail(self, note: str, count: int = 1) -> None:
        """``count`` ops failed, with the reason (first few are kept)."""
        self.attempted += count
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> bool:
        """Count one comparison; record ``note`` when it does not hold."""
        if ok:
            self.add()
        else:
            self.fail(note)
        return ok


def result_line(values: Dict[str, float], table, ops: Ops) -> str:
    """The run's last stdout line, in the driver's shape.

    ``table`` is the ``(name, unit)`` list being reported.  Raises
    ``KeyError`` when a value is missing: a missing number must fail the
    run, not silently print as absent.
    """
    return json.dumps(
        {
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in table
            },
        }
    )
