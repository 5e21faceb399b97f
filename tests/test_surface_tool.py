"""``tools/surface.py`` runs and prints a parseable census."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "surface.py"


def test_surface_tool_output_parses():
    done = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert rows and all(len(row) == 3 for row in rows)
    lines = {name: int(value) for kind, name, value in rows if kind == "lines"}
    inits = {name: int(value) for kind, name, value in rows if kind == "init"}
    assert {kind for kind, _, _ in rows} == {"lines", "init"}
    assert lines["total"] == sum(v for k, v in lines.items() if k != "total")
    assert lines["repro/engine"] > 0
    assert inits["repro.engine.AssignmentEngine"] == 11
    assert inits["repro.engine.ParallelSolveExecutor"] == 2
    assert inits["repro.algorithms.GreedySolver"] == 2
    assert inits["repro.algorithms.SamplingSolver"] == 3
    assert "repro.engine.SampleChunkScorer" not in inits
