"""Benchmark smoke suite: every ``benchmarks/bench_*.py`` must still run.

The 27 figure/ablation/record benchmarks are pytest modules that are only
executed by hand (``make benchsmoke`` / ``pytest benchmarks``), which
historically lets them rot silently when an API they use changes.  This
suite, selected with ``pytest -m benchsmoke``, does two things per bench
module:

* imports it (catching renamed modules, moved functions, bad imports),
* runs its computational core at *tiny* scale through a registered smoke
  runner — one sweep point, one seed, a few entities — without the
  full-scale trend assertions (which are meaningless at smoke sizes).

A bench module without a registered runner fails ``test_every_bench_has_a
_smoke_runner``, so new benchmarks must either register here or
consciously opt out.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.benchsmoke

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"


def load_bench(name: str):
    """Import ``benchmarks/<name>.py`` under an isolated module name."""
    spec = importlib.util.spec_from_file_location(
        f"benchsmoke_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def run_tiny_experiment(experiment):
    """Run one sweep point of an Experiment spec with one seed."""
    from repro.experiments import run_experiment
    from repro.experiments.spec import Experiment

    tiny = Experiment(
        name=f"{experiment.name}__smoke",
        figure=experiment.figure,
        parameter_name=experiment.parameter_name,
        points=list(experiment.points[:1]),
        make_solvers=experiment.make_solvers,
    )
    result = run_experiment(tiny, seeds=(1,))
    assert result.rows, experiment.name
    return result


def spec_runner(factory_name):
    """Smoke runner for benches of the spec + run_experiment shape."""

    def run(module):
        experiment = getattr(module, factory_name)()
        return run_tiny_experiment(experiment)

    return run


def run_fig16(module):
    vs_m, vs_n = module.fig16_cpu_time()
    run_tiny_experiment(vs_m)
    run_tiny_experiment(vs_n)


def run_table2(module):
    problem = module.generate_problem(
        module.ExperimentConfig.scaled_defaults(num_tasks=6, num_workers=12), 1
    )
    assert module.average_degree(problem) >= 0.0


#: bench module -> tiny-scale runner.  Keys must cover benchmarks/bench_*.py.
SMOKE_RUNNERS = {
    "bench_ablation_baselines": lambda m: m.baseline_comparison(seeds=(1,)),
    "bench_ablation_gamma": lambda m: m.gamma_ablation(gammas=(2, 8), seeds=(1,)),
    "bench_ablation_local_search": lambda m: m.run_local_search_ablation(seeds=(1,)),
    "bench_ablation_pruning": lambda m: m.pruning_ablation(seeds=(1,)),
    "bench_ablation_sampling_budget": lambda m: m.sampling_budget_ablation(
        budgets=(5, 20), seeds=(1,)
    ),
    "bench_dstd": lambda m: m.run_dstd_experiment(
        num_tasks=6,
        num_workers=24,
        block_sizes=(64,),
        profile_tasks=6,
        profile_workers=18,
        epochs=2,
        moves=4,
        repeats=1,
        write_json=False,
    ),
    "bench_durability": lambda m: m.run_durability_experiment(
        num_tasks=10,
        num_workers=40,
        epochs=3,
        churn_workers=4,
        eta=0.125,
        repeats=1,
        write_json=False,
    ),
    "bench_fastpath": lambda m: m.run_fastpath_experiment(
        num_tasks=12, num_workers=60, repeats=1, write_json=False
    ),
    "bench_incremental": lambda m: m.run_incremental_experiment(
        num_tasks=10,
        num_workers=40,
        epochs=3,
        churn_workers=4,
        churn_tasks=2,
        eta=0.125,
        write_json=False,
    ),
    "bench_warmstart": lambda m: m.run_warmstart_experiment(
        num_tasks=10,
        num_workers=40,
        epochs=3,
        churn_workers=2,
        churn_tasks=1,
        eta=0.125,
        solvers=("greedy",),
        backends=("python",),
        write_json=False,
    ),
    "bench_fig11_expiration": spec_runner("fig11_expiration_real"),
    "bench_fig12_reliability": spec_runner("fig12_reliability_real"),
    "bench_fig13_tasks_uniform": spec_runner("fig13_tasks_uniform"),
    "bench_fig14_workers_uniform": spec_runner("fig14_workers_uniform"),
    "bench_fig15_angles_uniform": spec_runner("fig15_angles_uniform"),
    "bench_fig16_cpu_time": run_fig16,
    "bench_fig17_index": lambda m: m.run_index_experiment(
        n_values=(40, 80), num_tasks=60
    ),
    "bench_fig18_platform": lambda m: m.run_platform_experiment(
        t_intervals=(2.0,), sim_minutes=4.0
    ),
    "bench_fig19_20_coverage": lambda m: m.run_coverage_showcase(n_workers=12),
    "bench_fig22_beta": spec_runner("fig22_beta_real"),
    "bench_fig23_tasks_skewed": spec_runner("fig23_tasks_skewed"),
    "bench_fig24_workers_skewed": spec_runner("fig24_workers_skewed"),
    "bench_fig25_velocity_uniform": spec_runner("fig25_velocity_uniform"),
    "bench_fig26_velocity_skewed": spec_runner("fig26_velocity_skewed"),
    "bench_fig27_angles_skewed": spec_runner("fig27_angles_skewed"),
    "bench_parallel_solve": lambda m: m.run_parallel_solve_experiment(
        num_tasks=10,
        num_workers=40,
        num_samples=24,
        epochs=2,
        moves=6,
        processes=(2,),
        repeats=1,
        write_json=False,
    ),
    "bench_serve": lambda m: m.run_serve_experiment(
        num_tasks=6,
        num_workers=16,
        rates=(120.0,),
        duration_s=0.5,
        epoch_interval=0.2,
        repeats=1,
        write_json=False,
    ),
    "bench_section72_maintenance": lambda m: m.run_maintenance_experiment(
        n_ops=10, seed=3
    ),
    "bench_elastic": lambda m: m.run_elastic_experiment(
        num_tasks=8,
        num_workers=120,
        cohort=24,
        epochs=3,
        worker_churn=4,
        task_churn=1,
        eta=0.125,
        write_json=False,
    ),
    "bench_table2_config": run_table2,
}


def test_every_bench_has_a_smoke_runner():
    on_disk = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))
    assert on_disk == sorted(SMOKE_RUNNERS), (
        "benchmarks/ and SMOKE_RUNNERS disagree; register a smoke runner "
        "for new bench modules in tests/test_bench_smoke.py"
    )


@pytest.mark.parametrize("name", sorted(SMOKE_RUNNERS))
def test_bench_smoke(name):
    module = load_bench(name)
    SMOKE_RUNNERS[name](module)


@pytest.mark.parametrize("workload", ["drift_elastic", "solve_full"])
def test_profile_workload_tool(workload):
    """``tools/profile_workload.py`` still builds and profiles a workload,
    and reports the GREEDY memo hit rates of the profiled epochs."""
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR.parent / "tools" / "profile_workload.py"),
            "--workload", workload, "--tiny", "--epochs", "4", "--limit", "5",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "epochs=4 (profiled)" in done.stdout
    assert "Ordered by: cumulative time" in done.stdout
    assert "Ordered by: internal time" in done.stdout
    rates = [
        line for line in done.stdout.splitlines()
        if line.startswith("# GREEDY memo hit rates (profiled epochs): bounds ")
    ]
    assert len(rates) == 1 and " lookups, E[STD] " in rates[0]
    if workload == "solve_full":
        # Epochs re-solve a mostly unchanged instance: the memo is hit.
        assert not rates[0].split("bounds ")[1].startswith("0.0%")
