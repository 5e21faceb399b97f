#!/usr/bin/env python
"""Code-surface census: source lines and public constructor widths.

A simplicity change reports its surface before and after; this prints
both halves of that report in one run:

* physical python lines (newline count, as ``wc -l``) per ``src/repro``
  subpackage — top-level modules are grouped under ``repro`` — and in
  total;
* the :func:`inspect.signature` parameter count of the constructor of
  every public class exported from ``repro.engine``,
  ``repro.algorithms``, ``repro.solvers`` and ``repro.index``.

Usage::

    python tools/surface.py

Every output line is ``<kind>\\t<name>\\t<int>`` with ``kind`` one of
``lines`` or ``init``; the line totals come first, ``lines\\ttotal``
last among them.  Run it on two checkouts and diff the outputs.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("repro.engine", "repro.algorithms", "repro.solvers", "repro.index")


def line_counts(root: Path = SRC / "repro") -> Dict[str, int]:
    """Physical python lines per subpackage of ``root`` (sorted by name)."""
    counts: Dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        group = relative.parts[0] if len(relative.parts) > 1 else ""
        name = f"repro/{group}" if group else "repro"
        counts[name] = counts.get(name, 0) + path.read_bytes().count(b"\n")
    return dict(sorted(counts.items()))


def init_widths() -> Iterator[Tuple[str, int]]:
    """``(module.Class, constructor parameter count)`` per exported class."""
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        names = getattr(module, "__all__", None) or [
            name for name in vars(module) if not name.startswith("_")
        ]
        for name in sorted(names):
            value = getattr(module, name)
            # Classes defined in the package, not ones it merely imports.
            home = getattr(value, "__module__", "")
            if not inspect.isclass(value) or not (
                home == module_name or home.startswith(module_name + ".")
            ):
                continue
            yield f"{module_name}.{name}", len(inspect.signature(value).parameters)


def main() -> int:
    """Print the census to stdout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    counts = line_counts()
    for name, count in counts.items():
        print(f"lines\t{name}\t{count}")
    print(f"lines\ttotal\t{sum(counts.values())}")
    for name, width in init_widths():
        print(f"init\t{name}\t{width}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
