"""Smoke tests for the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): these
run every workload at tiny scale through the real command line, so they
take about a minute.  They pin the benchmark's own contract — every
metric a workload is listed for is emitted with its unit, the percentile
helper is nearest-rank with the ten-beyond rule, a corrupted plan is
caught and counted, span files parse with non-negative self times — not
any performance number.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import measure, scenarios, trace, workloads
from e2e.metrics import END_TO_END, HIGHER_IS_BETTER, PER_LAYER, Ops
from e2e.run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run_tiny(workload: str, trace_flag: int) -> dict:
    """One tiny run through ``run.py``; the parsed result line."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--tiny",
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace_flag),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_file_matches_the_code():
    """BENCHMARK.json and the metric tables in metrics.py agree."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == [
        (name, unit) for name, unit, _, _ in PER_LAYER
    ]
    assert {m["name"] for m in contract["per_layer"] if m["better"] == "higher"} == (
        HIGHER_IS_BETTER
    )
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert contract["end_to_end"][-1]["name"] == "setup_s"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    """A tiny untraced run is correct and prints every gated metric."""
    result = run_tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    for name, unit in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_its_layers_and_a_span_file(workload):
    """A tiny traced run prints its layers; spans parse, self times >= 0."""
    span_file = HERE / "out" / f"trace-{workload}.jsonl"
    span_file.unlink(missing_ok=True)
    result = run_tiny(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _, _ in PER_LAYER]
    for name, unit, measured_on, _ in PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
        if workload in measured_on:
            assert result["metrics"][name]["value"] > 0, name

    spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    assert spans
    children = {}
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] >= 0:
            children[span["parent"]] = (
                children.get(span["parent"], 0) + span["end_ns"] - span["start_ns"]
            )
    for span in spans:
        own = span["end_ns"] - span["start_ns"] - children.get(span["id"], 0)
        assert own >= 0, span


def test_percentile_is_nearest_rank_with_the_ten_beyond_rule():
    """Percentiles are observed values; tails need ten samples beyond."""
    values = list(range(1, 101))
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.9) == 90
    assert measure.percentile(values, 1.0) == 100
    assert measure.percentile([3.0, 1.0, 2.0], 0.5) == 2.0  # observed, not interpolated
    assert measure.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    assert measure.supported(100, 0.9)  # exactly ten beyond
    assert not measure.supported(99, 0.9)
    assert not measure.supported(100, 0.99)
    assert measure.supported(1000, 0.99)


def test_windows_cover_the_items_once():
    """Windows partition their input in order."""
    items = list(range(23))
    cut = measure.windows(items, 9)
    assert len(cut) == 9 and all(cut)
    assert [x for window in cut for x in window] == items
    assert measure.windows(items[:2], 9) == [[0], [1]]


def test_self_time_is_span_minus_direct_children():
    """Self time subtracts direct children only."""
    spans = [
        (0, -1, "outer", 0, 100, 0, 1),
        (1, 0, "inner", 10, 40, 0, 1),
        (2, 0, "inner", 50, 70, 0, 1),
        (3, 1, "leaf", 20, 30, 0, 1),
    ]
    assert trace.self_times(spans) == {"outer": 50, "inner": 40, "leaf": 10}
    assert trace.totals(spans)["inner"] == (2, 50, 2)


def test_verifier_catches_a_corrupted_plan():
    """A tampered served plan is counted as failed ops."""
    sizes = workloads.TINY["solve_full"]
    spec = workloads.DIRECT["solve_full"]
    scenario = spec.scenario(5, 3, sizes)
    engine, first = workloads.build(lambda: spec.engine(scenario, sizes, None), scenario)
    try:
        served = [workloads.plan_of(first)]
        _, _, plans = workloads.run_epochs(engine, scenario.script, Ops())
        served += plans
    finally:
        engine.close()

    clean = Ops()
    workloads.verify(spec, scenario, sizes, served, clean)
    assert clean.failed == 0 and clean.attempted > 0

    pairs, objective = served[1]
    assert pairs, "the tiny instance must assign someone"
    (worker, task), rest = pairs[0], pairs[1:]
    other = next(t.task_id for t in scenario.tasks if t.task_id != task)
    served[1] = (((worker, other),) + rest, objective)
    corrupted = Ops()
    workloads.verify(spec, scenario, sizes, served, corrupted)
    assert corrupted.failed >= 1
    assert any("epoch 1" in note for note in corrupted.notes)


def test_scenarios_repeat_for_a_seed_and_differ_across_seeds():
    """Builders are pure functions of the seed; wire ids stay consistent."""
    a = scenarios.drift_elastic_scenario(5, 4, 12, 200, 30)
    b = scenarios.drift_elastic_scenario(5, 4, 12, 200, 30)
    c = scenarios.drift_elastic_scenario(6, 4, 12, 200, 30)
    assert a.script == b.script and a.workers == b.workers
    assert a.script != c.script
    wire_a = scenarios.wire_scenario(5, 6, 40, 200.0, 0.5, rounds=2, round_pings=8,
                                     chunk_size=4, num_chunks=2)
    wire_b = scenarios.wire_scenario(5, 6, 40, 200.0, 0.5, rounds=2, round_pings=8,
                                     chunk_size=4, num_chunks=2)
    assert wire_a.stream == wire_b.stream and wire_a.due_s == wire_b.due_s
    live = {w.worker_id for w in wire_a.workers}
    for request in wire_a.stream:  # ids stay consistent along the stream
        if request.op == "worker_ping":
            live.add(request.worker.worker_id)
        elif request.op == "worker_leave":
            assert request.worker_id in live
            live.discard(request.worker_id)
