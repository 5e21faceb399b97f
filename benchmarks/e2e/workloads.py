"""The three direct-engine workloads: ``solve_full``, ``sample_pool``, ``drift_elastic``.

Each workload is a :class:`Direct` record — how to build its scenario,
its engine and its paper-faithful reference — run by one shared loop:

* :func:`run_timed` (``--trace 0``): set-up repeated and reported as a
  median, untimed warm-up epochs, a timed section of *fixed work* (the
  epoch count is ``epochs_per_second x --seconds``, calibrated on the
  2-core reference host, so the same seed always does the same work),
  crash recovery from copies of the live WAL (``drift_elastic``), then a
  reference replay of the first served epochs that checks the plans.
* :func:`run_traced` (``--trace 1``): the same script's prefix run
  untraced and then with :mod:`e2e.trace` wrappers installed, plus the
  ladder rungs (inline pool, unsharded engine, process shards), giving
  the per-layer table.

Layers are measured from outside: wall time around public calls, and the
public counters the stack already keeps (``EngineMetrics``,
``EpochRecord.phases``, ``elastic_stats``, ``DurableLog.stats``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms import GreedySolver, SamplingSolver
from repro.core.assignment import Assignment
from repro.core.objectives import evaluate_assignment
from repro.engine import (
    AssignmentEngine,
    ElasticShardedAssignmentEngine,
    ParallelSolveExecutor,
    RebalancePolicy,
    restore_engine,
)

from e2e import measure, scenarios, trace
from e2e.metrics import Ops

#: Engine RNG seed (the solver's draws; the scenario has its own seed).
SOLVER_SEED = 3
#: Fresh builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Restores per traced run; ``wal.recover_s`` is their median (the
#: untraced run restores once, as a correctness check only).
RECOVER_REPEATS = 3
#: The timed section is cut into this many windows, each between two host
#: probes; throughput and CPU per epoch are medians over the undisturbed
#: ones (see :class:`e2e.measure.Timeline`).
WINDOWS = 15
#: A timed section is abandoned (and the run marked failed) past this
#: multiple of ``--seconds``: the driver kills a run at 180 s.
OVERRUN = 3.0
#: Where spans and scratch WAL files go (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Frozen sizes, calibrated on the 2-core reference host so that
#: ``epochs_per_second x seconds`` epochs take about ``seconds``.
SIZES: Dict[str, Dict[str, float]] = {
    "solve_full": dict(
        num_tasks=100, num_workers=350, epochs_per_second=9.0,
        warmup_epochs=10, verify_epochs=10, trace_epochs=40,
    ),
    "sample_pool": dict(
        num_tasks=110, num_workers=380, num_samples=256, processes=2,
        epochs_per_second=9.0, warmup_epochs=10, verify_epochs=5,
        trace_epochs=12,
    ),
    "drift_elastic": dict(
        num_tasks=60, num_workers=8000, cohort=600, worker_churn=40,
        task_churn=6, num_shards=4, snapshot_every=32, epochs_per_second=11.0, warmup_epochs=10,
        verify_epochs=10, trace_epochs=40,
    ),
}

#: Tiny sizes for the smoke test (same code paths, seconds not minutes).
TINY: Dict[str, Dict[str, float]] = {
    "solve_full": dict(
        num_tasks=16, num_workers=48, epochs_per_second=12.0,
        warmup_epochs=2, verify_epochs=4, trace_epochs=6,
    ),
    "sample_pool": dict(
        num_tasks=16, num_workers=48, num_samples=96, processes=2,
        epochs_per_second=12.0, warmup_epochs=2, verify_epochs=3,
        trace_epochs=6,
    ),
    "drift_elastic": dict(
        num_tasks=12, num_workers=400, cohort=40, worker_churn=4,
        task_churn=1, num_shards=4, snapshot_every=8, epochs_per_second=12.0, warmup_epochs=2,
        verify_epochs=4, trace_epochs=6,
    ),
}

Plan = Tuple[Tuple[Tuple[int, int], ...], Tuple[float, float]]


def plan_of(result) -> Plan:
    """An epoch's served decision: sorted dispatch pairs + objective."""
    return (
        tuple(sorted(result.dispatch.items())),
        (result.objective.min_reliability, result.objective.total_std),
    )


@dataclass(frozen=True)
class Direct:
    """One direct-engine workload.

    Attributes:
        scenario: ``(seed, epochs, sizes) -> Scenario``.
        engine: ``(scenario, sizes, durable_path) -> engine`` — the
            configuration under test (``durable_path`` is ``None`` for
            workloads without a WAL).
        reference: ``(scenario, sizes) -> engine`` — the paper-faithful
            path: full solve, python backend, one unsharded engine,
            serial.
        identical: the served plans must equal the reference's bit for
            bit (false only where the workload repairs plans warm).
        durable: the engine writes a WAL, and the run recovers from it.
    """

    scenario: Callable
    engine: Callable
    reference: Callable
    identical: bool = True
    durable: bool = False


def _greedy_numpy() -> GreedySolver:
    return GreedySolver(backend="numpy")


def _elastic_engine(scenario, sizes, durable_path, executor="sequential"):
    return ElasticShardedAssignmentEngine(
        solver=_greedy_numpy(),
        eta=0.08,
        rng=SOLVER_SEED,
        backend="numpy",
        num_shards=int(sizes["num_shards"]),
        halo=scenario.halo,
        executor=executor,
        rebalance=RebalancePolicy(
            every=2,
            imbalance=1.3,
            min_workers=max(4, int(sizes["num_workers"]) // 200),
        ),
        diff_shipping=True,
        solve_mode="warm",
        durable_path=durable_path,
        durable_snapshot_every=int(sizes["snapshot_every"]),
    )


DIRECT: Dict[str, Direct] = {
    "solve_full": Direct(
        scenario=lambda seed, epochs, s: scenarios.solve_full_scenario(
            seed, epochs, int(s["num_tasks"]), int(s["num_workers"])
        ),
        engine=lambda scenario, s, path: AssignmentEngine(
            solver=_greedy_numpy(), rng=SOLVER_SEED, backend="numpy",
            solve_mode="full",
        ),
        reference=lambda scenario, s: AssignmentEngine(
            solver=GreedySolver(), rng=SOLVER_SEED
        ),
    ),
    "sample_pool": Direct(
        scenario=lambda seed, epochs, s: scenarios.sample_pool_scenario(
            seed, epochs, int(s["num_tasks"]), int(s["num_workers"])
        ),
        engine=lambda scenario, s, path: AssignmentEngine(
            solver=SamplingSolver(num_samples=int(s["num_samples"])),
            rng=SOLVER_SEED,
            solve_executor=int(s["processes"]),
        ),
        reference=lambda scenario, s: AssignmentEngine(
            solver=SamplingSolver(num_samples=int(s["num_samples"])),
            rng=SOLVER_SEED,
        ),
    ),
    "drift_elastic": Direct(
        scenario=lambda seed, epochs, s: scenarios.drift_elastic_scenario(
            seed, epochs, int(s["num_tasks"]), int(s["num_workers"]),
            int(s["cohort"]), worker_churn=int(s["worker_churn"]),
            task_churn=int(s["task_churn"]),
        ),
        engine=_elastic_engine,
        reference=lambda scenario, s: AssignmentEngine(
            solver=GreedySolver(), eta=0.08, rng=SOLVER_SEED
        ),
        identical=False,
        durable=True,
    ),
}


def build(make_engine: Callable[[], AssignmentEngine], scenario):
    """Set-up: construct, register the population, take the first decision."""
    engine = make_engine()
    try:
        engine.add_tasks(scenario.tasks)
        engine.add_workers(scenario.workers)
        first = engine.epoch(0.0)
    except BaseException:
        engine.close()
        raise
    return engine, first


def run_epochs(
    engine,
    script: List[list],
    ops: Ops,
    recorder: Optional[trace.Recorder] = None,
    deadline_ns: Optional[int] = None,
) -> Tuple[List[int], List[int], List[Plan]]:
    """Apply each batch and re-plan; per-epoch ``(apply_ns, epoch_ns, plan)``.

    A raising batch or epoch is a failed op (and ends the loop: the
    engine's state is no longer the script's).  With a ``recorder`` each
    epoch's spans are stamped with its offset in ``script``.
    """
    apply_ns: List[int] = []
    epoch_ns: List[int] = []
    plans: List[Plan] = []
    for offset, batch in enumerate(script):
        if recorder is not None:
            recorder.ident = offset
        started = perf_counter_ns()
        try:
            engine.apply_batch(batch)
            applied = perf_counter_ns()
            result = engine.epoch(0.0)
        except Exception as exc:  # the boundary that must keep accounting
            ops.fail(f"epoch {offset} raised {exc!r}", len(batch) + 1)
            break
        ended = perf_counter_ns()
        ops.add(len(batch) + 1)
        apply_ns.append(applied - started)
        epoch_ns.append(ended - applied)
        plans.append(plan_of(result))
        if deadline_ns is not None and ended > deadline_ns:
            ops.fail(f"timed section overran {OVERRUN}x --seconds; stopped early")
            break
    return apply_ns, epoch_ns, plans


def verify(
    spec: Direct, scenario, sizes, served: List[Plan], ops: Ops
) -> Tuple[float, float]:
    """Replay the reference over the served prefix and check every plan.

    Each served plan must (a) use only pairs the reference's independent
    index holds valid, (b) score, on the reference's problem, the
    objective the engine reported, and (c) where the workload promises
    bit-identity, equal the reference's plan and objective exactly.
    Returns ``(std_ratio, minrel_ratio)``: served over reference, summed
    over the prefix.
    """
    reference, first = build(lambda: spec.reference(scenario, sizes), scenario)
    try:
        served_std = served_rel = ref_std = ref_rel = 0.0
        for index, (pairs, objective) in enumerate(served):
            if index:
                reference.apply_batch(scenario.script[index - 1])
                first = reference.epoch(0.0)
            ref_pairs, ref_objective = plan_of(first)
            problem = reference.current_problem()
            if ops.check(
                all(problem.is_valid_pair(t, w) for w, t in pairs),
                f"epoch {index}: served plan holds an invalid pair",
            ):
                scored = evaluate_assignment(
                    problem, Assignment.from_pairs([(t, w) for w, t in pairs])
                )
                ops.check(
                    _close(scored.min_reliability, objective[0])
                    and _close(scored.total_std, objective[1]),
                    f"epoch {index}: reported objective {objective} but the "
                    f"plan scores {(scored.min_reliability, scored.total_std)}",
                )
            if spec.identical:
                ops.check(
                    (pairs, objective) == (ref_pairs, ref_objective),
                    f"epoch {index}: plan differs from the reference",
                )
            served_rel += objective[0]
            served_std += objective[1]
            ref_rel += ref_objective[0]
            ref_std += ref_objective[1]
    finally:
        reference.close()
    return served_std / ref_std, served_rel / ref_rel


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def copy_log(path: Path, target_dir: Path) -> Path:
    """Copy a live SQLite log (db + ``-wal``/``-shm`` sidecars)."""
    target_dir.mkdir(parents=True)
    for sibling in path.parent.glob(path.name + "*"):
        shutil.copy(sibling, target_dir / sibling.name)
    return target_dir / path.name


def recover(
    engine, workdir: Path, next_batch: list, snapshot_every: int, repeats: int,
    ops: Ops,
) -> Tuple[float, int]:
    """Crash-recover from copies of the live log; check state and next plan.

    Copies are taken first (the engine is idle between epochs, so they
    are consistent), then the live engine runs one more epoch; every
    restored engine must report the counters the live one had at the
    copy and serve that same next plan.  Returns ``(median seconds,
    replayed epochs)``.
    """
    counters = engine.metrics.counters()
    log_path = Path(engine.durable.path)
    copies = [
        copy_log(log_path, workdir / f"copy{n}") for n in range(repeats)
    ]
    engine.apply_batch(next_batch)
    expected = plan_of(engine.epoch(0.0))
    seconds = []
    for copy in copies:
        started = perf_counter_ns()
        restored = restore_engine(copy, solver=_greedy_numpy())
        seconds.append((perf_counter_ns() - started) / 1e9)
        try:
            ops.check(
                restored.metrics.counters() == counters,
                "restored counters differ from the live engine's",
            )
            restored.apply_batch(next_batch)
            ops.check(
                plan_of(restored.epoch(0.0)) == expected,
                "restored engine's next plan differs from the live engine's",
            )
        finally:
            restored.close()
    return measure.median(seconds), counters["epochs"] % snapshot_every


def timed_epochs(sizes, seconds: float, durable: bool) -> int:
    """The fixed work of a timed section, from ``--seconds``.

    With a WAL the count is nudged (by at most half a snapshot interval,
    either way) so the log ends half an interval past its last snapshot:
    recovery always replays the same tail length.
    """
    epochs = max(4, round(sizes["epochs_per_second"] * seconds))
    if durable:
        every = int(sizes["snapshot_every"])
        done = 1 + int(sizes["warmup_epochs"]) + epochs  # incl. the set-up epoch
        ahead = (every // 2 - done) % every
        epochs += ahead if ahead <= every // 2 or epochs <= every else ahead - every
    return epochs


def run_timed(name: str, seed: int, seconds: float, sizes=None):
    """The untraced run: end-to-end metrics, recovery and verification.

    The timed section is a :class:`~e2e.measure.Timeline` of ``WINDOWS``
    windows of epochs, with the set-up repeats (throwaway builds of the
    same engine) spread between them, so neither a window nor the set-up
    median depends on one stretch of host time.
    """
    spec = DIRECT[name]
    sizes = sizes or SIZES[name]
    warmup = int(sizes["warmup_epochs"])
    epochs = timed_epochs(sizes, seconds, spec.durable)
    scenario = spec.scenario(seed, warmup + epochs + 1, sizes)
    ops = Ops()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    builds = iter(range(1 << 30))
    live: List[AssignmentEngine] = []

    def timed_build(keep: bool) -> float:
        log_path = None
        if spec.durable:
            log_path = workdir / f"build{next(builds)}" / "wal.db"
            log_path.parent.mkdir()
        started = perf_counter_ns()
        engine, first = build(lambda: spec.engine(scenario, sizes, log_path), scenario)
        build_s = (perf_counter_ns() - started) / 1e9
        if keep:
            live.append(engine)
            served.append(plan_of(first))
        else:
            engine.close()
        return build_s

    def timed_window(window: List[list]) -> Optional[Dict[str, object]]:
        cpu_before = measure.own_cpu_seconds(children)
        started = perf_counter_ns()
        apply_ns, epoch_ns, plans = run_epochs(
            live[0], window, ops, deadline_ns=deadline_ns
        )
        window_s = (perf_counter_ns() - started) / 1e9
        served.extend(plans)
        if len(epoch_ns) < len(window):
            return None  # a failed op ended the script early
        return {
            "cycle_ms": [(a + e) / 1e6 for a, e in zip(apply_ns, epoch_ns)],
            "rate": sum(len(batch) for batch in window) / window_s,
            "cpu_ms": 1000.0
            * (measure.own_cpu_seconds(children) - cpu_before)
            / len(window),
        }

    served: List[Plan] = []
    timeline = measure.Timeline()
    try:
        timeline.run("setup", lambda: timed_build(keep=True))
        _, _, plans = run_epochs(live[0], scenario.script[:warmup], ops)
        served += plans

        measure.quiesce()
        children = measure.process_tree(os.getpid())[1:]
        started = perf_counter_ns()
        deadline_ns = started + int(OVERRUN * seconds * 1e9)
        cut = measure.windows(scenario.script[warmup : warmup + epochs], WINDOWS)
        rebuild_before = {
            round(k * len(cut) / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)
        }
        complete = True
        for index, window in enumerate(cut):
            if index in rebuild_before:
                timeline.run("setup", lambda: timed_build(keep=False))
            if timeline.run("window", lambda: timed_window(window)) is None:
                complete = False
                break
        wall_s = (perf_counter_ns() - started) / 1e9
        rss = measure.peak_rss_mb(measure.process_tree(os.getpid()))

        info = {"wall_s": wall_s, "timeline": timeline.summary()}
        if hasattr(live[0], "elastic_stats"):
            info["elastic"] = dict(live[0].elastic_stats)
        if spec.durable and complete:
            info["recover_s"], info["replayed_epochs"] = recover(
                live[0], workdir, scenario.script[warmup + epochs],
                int(sizes["snapshot_every"]), 1, ops,
            )
    finally:
        for engine in live:
            engine.close()
        shutil.rmtree(workdir, ignore_errors=True)

    std_ratio, rel_ratio = verify(
        spec, scenario, sizes, served[: 1 + int(sizes["verify_epochs"])], ops
    )
    kept = [w for w in timeline.clean("window") if w is not None]
    cycle_ms = [ms for w in kept for ms in w["cycle_ms"]]
    info["epochs"] = len(cycle_ms)
    info["ungated_epoch_p50_ms"] = measure.median(
        [ms for w in timeline.every("window") if w is not None for ms in w["cycle_ms"]]
    )
    info["epoch_p90_ms"] = measure.percentile(cycle_ms, 0.9)
    info["p90_supported"] = measure.supported(len(cycle_ms), 0.9)
    values = {
        "setup_s": measure.median(timeline.clean("setup")),
        "epoch_p50_ms": measure.percentile(cycle_ms, 0.5),
        "events_per_s": measure.median([w["rate"] for w in kept]),
        "epoch_cpu_ms": measure.median([w["cpu_ms"] for w in kept]),
        "peak_rss_mb": rss,
        "objective_std_ratio": std_ratio,
        "objective_minrel_ratio": rel_ratio,
    }
    return values, ops, info


# ---------------------------------------------------------------------- #
# The traced run
# ---------------------------------------------------------------------- #


def _pass(make_engine, scenario, warm: int, epochs: int, ops: Ops, recorder=None):
    """Build, warm up and run ``epochs`` epochs; what the layers recorded."""
    engine, first = build(make_engine, scenario)
    try:
        _, _, warm_plans = run_epochs(engine, scenario.script[:warm], ops)
        pid = os.getpid()
        children = [p for p in measure.process_tree(pid) if p != pid]
        cpu_parent = measure.cpu_seconds([pid])
        cpu_children = measure.cpu_seconds(children)
        solve_before = engine.metrics.solve_seconds
        started = perf_counter_ns()
        apply_ns, epoch_ns, plans = run_epochs(
            engine, scenario.script[warm : warm + epochs], ops, recorder
        )
        wall_s = (perf_counter_ns() - started) / 1e9
        out = {
            "cycle_ms": [(a + e) / 1e6 for a, e in zip(apply_ns, epoch_ns)],
            "plans": [plan_of(first)] + warm_plans + plans,
            "wall_s": wall_s,
            "cpu_parent_s": measure.cpu_seconds([pid]) - cpu_parent,
            "cpu_children_s": measure.cpu_seconds(children) - cpu_children,
            "solve_s": engine.metrics.solve_seconds - solve_before,
            "records": engine.metrics.history[-len(epoch_ns):],
            "elastic": dict(getattr(engine, "elastic_stats", None) or {}),
            "loads": _shard_loads(engine),
            "wal": wal_stats(engine),
        }
    finally:
        engine.close()
    return out


def _shard_loads(engine) -> List[int]:
    """Owned workers per shard, recomputed through the public shard map."""
    shard_map = getattr(engine, "shard_map", None)
    if shard_map is None:
        return []
    loads = [0] * shard_map.num_shards
    for worker in engine.workers.values():
        loads[shard_map.shard_of_point(worker.location)] += 1
    return loads


def wal_stats(engine) -> Dict[str, float]:
    """Events appended to the engine's WAL and the bytes its files hold."""
    log = engine.durable
    if log is None:
        return {}
    path = Path(log.path)
    size = sum(f.stat().st_size for f in path.parent.glob(path.name + "*"))
    return {"events": log.stats["events_appended"], "bytes": size}


def phase_seconds(records) -> Dict[str, float]:
    """``EpochRecord.phases`` summed over ``records``."""
    phases: Dict[str, float] = {}
    for record in records:
        for phase, seconds in record.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    return phases


def layer_values(
    records,
    wall_s: float,
    solve_s: float,
    spans: List[trace.Span],
    events_per_epoch: float,
) -> Dict[str, float]:
    """Per-layer metrics every workload shares, from one traced pass.

    ``records`` are the pass's ``EpochRecord``s, ``wall_s`` the wall
    time the shares are taken of, ``solve_s`` the engine's own solve
    timer over the same epochs.
    """
    epochs = len(records)
    phases = phase_seconds(records)
    # Set-up and warm-up spans carry ident -1: only the measured epochs count.
    spans = [span for span in spans if span[5] >= 0]
    total = trace.totals(spans)
    own = trace.self_times(spans)

    def span_ms(name: str) -> float:
        return total.get(name, (0, 0, 0))[1] / 1e6

    def per_item_us(*names: str) -> float:
        ns = sum(total.get(n, (0, 0, 0))[1] for n in names)
        items = sum(total.get(n, (0, 0, 0))[2] for n in names)
        return ns / 1e3 / items if items else 0.0

    def share(phase: str) -> float:
        return phases.get(phase, 0.0) / wall_s

    hits = sum(r.cache_hits for r in records)
    misses = sum(r.cache_misses for r in records)
    engine_ns = total.get("engine.apply_batch", (0, 0, 0))[1] + max(
        total.get("engine.epoch", (0, 0, 0))[1],
        total.get("elastic.epoch", (0, 0, 0))[1],
    )
    engine_self = sum(
        own.get(n, 0) for n in ("engine.apply_batch", "engine.epoch", "elastic.epoch")
    )
    snapshots = total.get("wal.snapshot", (0, 0, 0))
    return {
        "engine.apply_ms": span_ms("engine.apply_batch") / epochs,
        "engine.epoch_ms": span_ms("engine.epoch") / epochs,
        "engine.self_share": engine_self / engine_ns if engine_ns else 0.0,
        "engine.events_per_epoch": events_per_epoch,
        "scheduler.coalesce_share": share("coalesce"),
        "index.share": share("index"),
        "index.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "index.pairs_per_epoch": sum(r.num_pairs for r in records) / epochs,
        "index.update_us": per_item_us("index.update_workers"),
        "index.task_write_us": per_item_us("index.insert_tasks", "index.remove_task"),
        "fastpath.slot_update_us": per_item_us("fastpath.slot_update"),
        "fastpath.dstd_share": share("delta_estd"),
        "core.build_problem_ms": span_ms("core.problem") / epochs,
        "algorithms.solve_share": solve_s / wall_s,
        "algorithms.prune_share": share("prune"),
        "algorithms.dminr_share": share("delta_min_r"),
        "incremental.warm_share": sum(r.mode == "warm" for r in records) / epochs,
        "wal.append_share": share("wal_append"),
        "wal.append_us_per_event": per_item_us("wal.append"),
        "wal.snapshot_ms": snapshots[1] / 1e6 / snapshots[0] if snapshots[0] else 0.0,
        "profile.coverage": sum(phases.values()) / wall_s,
    }


def run_traced(name: str, seed: int, sizes=None):
    """The traced run: the per-layer table, ladder rungs and verification."""
    spec = DIRECT[name]
    sizes = sizes or SIZES[name]
    warm = min(3, int(sizes["warmup_epochs"]))
    epochs = int(sizes["trace_epochs"])
    scenario = spec.scenario(seed, warm + epochs + 1, sizes)
    ops = Ops()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    logs = iter(range(1 << 30))

    def engine_factory(make=spec.engine, **kwargs):
        def factory():
            path = None
            if spec.durable:
                path = workdir / f"log{next(logs)}" / "wal.db"
                path.parent.mkdir()
            return make(scenario, sizes, path, **kwargs)

        return factory

    try:
        plain = _pass(engine_factory(), scenario, warm, epochs, ops)
        recorder = trace.Recorder()
        with trace.installed(recorder):
            traced = _pass(engine_factory(), scenario, warm, epochs, ops, recorder)
        recorder.flush(OUT_DIR / f"trace-{name}.jsonl")
        ops.check(
            traced["plans"] == plain["plans"],
            "traced pass served different plans than the untraced pass",
        )
        p50 = measure.median(plain["cycle_ms"])
        events = sum(len(b) for b in scenario.script[warm : warm + epochs])
        values = layer_values(
            traced["records"], traced["wall_s"], traced["solve_s"],
            recorder.spans, events / epochs,
        )
        values["engine.epoch_p90_ms"] = measure.percentile(plain["cycle_ms"], 0.9)
        values["trace.overhead_ratio"] = measure.median(traced["cycle_ms"]) / p50

        if name == "sample_pool":
            inline = _pass(
                lambda: AssignmentEngine(
                    solver=SamplingSolver(num_samples=int(sizes["num_samples"])),
                    rng=SOLVER_SEED,
                    solve_executor=ParallelSolveExecutor(processes=0),
                ),
                scenario, warm, epochs, ops,
            )
            ops.check(
                inline["plans"] == plain["plans"],
                "inline-executor rung served different plans than the pool",
            )
            cpu = plain["cpu_parent_s"] + plain["cpu_children_s"]
            values.update(
                {
                    "algorithms.samples_per_s": sizes["num_samples"]
                    * epochs
                    / traced["solve_s"],
                    "parallel.pool_cpu_share": plain["cpu_children_s"] / cpu,
                    "parallel.parent_wait_share": 1.0
                    - plain["cpu_parent_s"] / plain["wall_s"],
                    "parallel.vs_inline_ratio": measure.median(inline["cycle_ms"])
                    / p50,
                }
            )
        if name == "drift_elastic":
            values.update(
                _elastic_values(
                    spec, scenario, sizes, plain, traced, p50, warm, epochs,
                    engine_factory, workdir, ops,
                )
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verify(spec, scenario, sizes, plain["plans"][: 1 + int(sizes["verify_epochs"])], ops)
    return values, ops, {"epochs": epochs, "spans": len(recorder.spans)}


def _elastic_values(
    spec, scenario, sizes, plain, traced, p50, warm, epochs, engine_factory,
    workdir, ops,
) -> Dict[str, float]:
    """Elastic counters, the two ladder rungs and a recovery from the WAL."""
    single = _pass(
        engine_factory(
            lambda scenario, sizes, path: AssignmentEngine(
                solver=_greedy_numpy(), eta=0.08, rng=SOLVER_SEED,
                backend="numpy", solve_mode="warm", durable_path=path,
                durable_snapshot_every=int(sizes["snapshot_every"]),
            )
        ),
        scenario, warm, epochs, ops,
    )
    ops.check(
        single["plans"] == plain["plans"],
        "unsharded rung served different plans (sharding must be invisible)",
    )
    process = _pass(engine_factory(executor="process"), scenario, warm, epochs, ops)
    ops.check(
        process["plans"] == plain["plans"],
        "process-shard rung served different plans than sequential shards",
    )

    # One more build to recover from: the rung engines above are closed.
    engine, _ = build(engine_factory(), scenario)
    try:
        run_epochs(engine, scenario.script[: warm + epochs], ops)
        recover_s, tail = recover(
            engine, workdir / "recover", scenario.script[warm + epochs],
            int(sizes["snapshot_every"]), RECOVER_REPEATS, ops,
        )
    finally:
        engine.close()

    stats, wall_s = traced["elastic"], traced["wall_s"]
    phases = phase_seconds(traced["records"])
    loads = traced["loads"]
    wal = traced["wal"]
    return {
        "elastic.route_share": phases.get("route", 0.0) / wall_s,
        "elastic.diff_ship_share": phases.get("diff_ship", 0.0) / wall_s,
        "elastic.merge_share": phases.get("merge", 0.0) / wall_s,
        "elastic.rebalance_share": phases.get("rebalance", 0.0) / wall_s,
        "elastic.diff_bytes_per_epoch": stats["diff_bytes"] / (1 + warm + epochs),
        "elastic.ship_fraction": stats["diff_bytes"] / stats["full_bytes"],
        "elastic.resyncs": stats["resyncs"],
        "elastic.rebalance_ops": stats["rebalance_ops"],
        "elastic.load_skew": max(loads) * len(loads) / sum(loads),
        "elastic.vs_single_ratio": measure.median(single["cycle_ms"]) / p50,
        "elastic.proc_vs_seq_ratio": p50 / measure.median(process["cycle_ms"]),
        "wal.bytes_per_event": wal["bytes"] / wal["events"],
        "wal.replay_epochs_per_s": tail / recover_s,
        "wal.recover_s": recover_s,
    }
