"""The standing end-to-end benchmark (see ``benchmarks/e2e/README.md``).

Four long workloads drive the stack from outside — direct engines, the
elastic sharded engine with a live WAL, and ``python -m repro.serve``
over TCP — and report a small set of gated end-to-end metrics plus a
per-layer table from a traced pass.  ``run.py`` is the one command;
``BENCHMARK.json`` at the repo root is the contract it is run under.
"""
