"""Per-epoch phase timing for the assignment engines.

An epoch is a pipeline — event routing, churn coalescing, index
maintenance, candidate retrieval, Lemma 4.3 pruning, ``Δmin_R`` scoring,
exact ``ΔE[STD]`` scoring, the round's selection and commit, shard merge,
WAL appends — and knowing which
stage is hottest is what decides the next optimisation.  This module is
the engine's lightweight answer: a :class:`PhaseProfiler` accumulates
wall-clock seconds per named phase, the engine snapshots it into each
:class:`~repro.engine.metrics.EpochRecord` (``record.phases``), and
:class:`~repro.engine.metrics.EngineMetrics` folds the per-epoch
snapshots into lifetime ``phase_seconds``.

Engine-side call sites hold the profiler directly
(``with self.profiler.phase("index"): ...``).  Solver-side call sites
(the greedy scoring loop) cannot — solvers have no engine reference and
must stay usable standalone — so the engine *activates* its profiler
around the solve (:func:`activated`) and solver code times against the
innermost active profiler via the module-level :func:`phase`, which
degrades to a shared no-op context manager when no engine is driving.

Phase timings are measurement, not state: they are deliberately **not**
part of :meth:`EngineMetrics.counters`, which pins exactly the
replay-deterministic counters the durability contract restores.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List

from contextlib import contextmanager

#: The phase names the engines report (solvers add none beyond these).
#: Purely documentation — the profiler accepts any name.  ``select`` is
#: the greedy round's bookkeeping (dominance ranking, the commit, and
#: candidate materialisation / table maintenance) and SAMPLING's pick
#: (dominance ranking, re-drawing and re-scoring the winner);
#: ``sample_score`` is SAMPLING drawing and scoring its K samples, inline
#: or through a pool fan-out.  ``diff_ship``
#: (building + packing resident shard diffs) and ``rebalance`` (topology
#: reshapes and the entity re-routing they trigger) are reported by the
#: elastic engine only (:mod:`repro.engine.elastic`).
PHASES = (
    "route",
    "coalesce",
    "index",
    "prune",
    "delta_min_r",
    "delta_estd",
    "sample_score",
    "select",
    "merge",
    "wal_append",
    "diff_ship",
    "rebalance",
)


class _NullPhase:
    """No-op context manager returned when no profiler is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullPhase()


class _TimedPhase:
    """Context manager adding its elapsed wall time to one phase bucket."""

    __slots__ = ("_profiler", "_name", "_started")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_TimedPhase":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._profiler.add(self._name, time.perf_counter() - self._started)
        return False


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase until taken.

    Phases may nest and repeat; each ``with profiler.phase(name)`` block
    adds its elapsed time to the name's bucket.  :meth:`take` returns the
    accumulated dict and resets — the engine calls it once per epoch, so
    inter-epoch work (event routing between epochs) lands on the *next*
    epoch's record rather than disappearing.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: Dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to the ``name`` bucket."""
        self._pending[name] = self._pending.get(name, 0.0) + seconds

    def phase(self, name: str) -> _TimedPhase:
        """A context manager timing one block into the ``name`` bucket."""
        return _TimedPhase(self, name)

    def pending(self) -> Dict[str, float]:
        """The buckets accumulated since the last :meth:`take` (a copy)."""
        return dict(self._pending)

    def take(self) -> Dict[str, float]:
        """Return the accumulated buckets and reset the profiler."""
        taken, self._pending = self._pending, {}
        return taken


#: Stack of profilers activated by engines around their solve calls.
_ACTIVE: List[PhaseProfiler] = []


@contextmanager
def activated(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Make ``profiler`` the target of module-level :func:`phase` calls."""
    _ACTIVE.append(profiler)
    try:
        yield profiler
    finally:
        _ACTIVE.pop()


def phase(name: str):
    """Time against the innermost :func:`activated` profiler, else no-op.

    This is the solver-side entry point: cheap enough to leave in the
    scoring hot loop (a list check and, inactive, a shared singleton).
    """
    if _ACTIVE:
        return _ACTIVE[-1].phase(name)
    return _NULL
