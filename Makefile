# Convenience targets; everything assumes the in-tree src/ layout.
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test benchsmoke bench-fastpath bench-incremental bench-warmstart bench-elastic bench-parallel bench-durability bench-dstd bench-serve docs-lint bench golden e2e-smoke examples-smoke pairs profile surface

# Tier-1 verification (the command CI runs).
test:
	$(PYTHON) -m pytest -x -q

# Tiny-scale execution of every benchmarks/bench_*.py module.
benchsmoke:
	$(PYTHON) -m pytest -q -m benchsmoke

# Python-vs-numpy backend timings; writes BENCH_fastpath.json.
bench-fastpath:
	$(PYTHON) -m pytest -q benchmarks/bench_fastpath.py

# Incremental-engine epochs vs full rebuilds; writes BENCH_incremental.json.
bench-incremental:
	$(PYTHON) -m pytest -q benchmarks/bench_incremental.py

# Warm-start plan repair vs full solves; writes BENCH_warmstart.json.
bench-warmstart:
	$(PYTHON) -m pytest -q benchmarks/bench_warmstart.py

# Sharded engine: diff shipping vs full state re-ship, static vs
# rebalanced topology; writes BENCH_elastic.json.
bench-elastic:
	$(PYTHON) -m pytest -q benchmarks/bench_elastic.py

# Parallel solve fan-out vs serial solves; writes BENCH_parallel_solve.json.
bench-parallel:
	$(PYTHON) -m pytest -q benchmarks/bench_parallel_solve.py

# Durable-log append overhead + restore/replay throughput; writes
# BENCH_durability.json.
bench-durability:
	$(PYTHON) -m pytest -q benchmarks/bench_durability.py

# Scalar-vs-batched exact ΔE[STD] throughput + epoch phase profile;
# writes BENCH_dstd.json.
bench-dstd:
	$(PYTHON) -m pytest -q benchmarks/bench_dstd.py

# Service-tier open-loop soak: sustained RPS + ingestion tail latency;
# writes BENCH_serve.json.
bench-serve:
	$(PYTHON) -m pytest -q benchmarks/bench_serve.py

# Smoke test of the end-to-end benchmark (benchmarks/e2e, BENCHMARK.json):
# catches a broken benchmark-facing name before the perf gate does.
e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Runs every examples/*.py script in a subprocess; each must exit 0.
examples-smoke:
	$(PYTHON) -m pytest -q -m examples tests/test_examples.py

# Paired parent-vs-change runs of one BENCHMARK.json workload, with the
# win count and the median-gap-vs-parent-quartile verdict per metric:
#   make pairs WORKLOAD=solve_full PARENT=HEAD~1 [PAIRS=10]
PAIRS ?= 10
pairs:
	$(PYTHON) tools/bench_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS)

# cProfile EPOCHS post-warm-up epochs of one direct-engine BENCHMARK.json
# workload (the sizing step of a perf issue; call counts repeat per seed):
#   make profile WORKLOAD=drift_elastic [EPOCHS=60]
EPOCHS ?= 60
profile:
	$(PYTHON) tools/profile_workload.py --workload $(WORKLOAD) --epochs $(EPOCHS)

# Source lines per src/repro subpackage + public constructor parameter
# counts (a simplicity change reports both before and after).
surface:
	$(PYTHON) tools/surface.py

# Docstring lint: engine-era packages + benchmarks/ + examples/ (CI runs
# this; the default target set lives in tools/docs_lint.py).
docs-lint:
	$(PYTHON) tools/docs_lint.py

# Full figure-regeneration benchmark suite (slow).
bench:
	$(PYTHON) -m pytest -q benchmarks

# Refresh the golden regression fixture after an intended behaviour change.
golden:
	$(PYTHON) tests/test_golden_regression.py --regenerate
