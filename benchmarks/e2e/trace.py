"""In-memory span recording around the stack's public entry points.

The traced pass of a workload installs wrappers (:func:`installed`)
around the calls that cross a layer boundary — engine, index, fastpath
slabs, core problem build, solvers, elastic fan-out, the durable log and
the serve tier's codecs/batcher/driver — all from *outside*: nothing in
``src/`` knows it is being traced.  Each call records one span

    ``(span_id, parent_id, name, start_ns, end_ns, ident, items)``

where ``parent_id`` is the span that was open on the same thread when
the call started (``-1`` for a root), ``ident`` is the epoch (or request
round) the workload loop had announced through :attr:`Recorder.ident`,
and ``items`` is how many entities a batched call carried (so per-item
costs divide by the right count).  Spans stay in memory and are written
as JSON lines when the pass ends (:meth:`Recorder.flush`).

A layer's **self time** is its span minus the part its direct children
cover (:func:`self_times`).  End-to-end metrics always come from an
untraced run; the traced-to-untraced ratio is reported as the tracing
overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, int, int, int, int]


class Recorder:
    """Collects spans from every wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: The epoch / round the workload loop is in (stamped on spans).
        self.ident = -1
        self._local = threading.local()
        self._ids = iter(range(1 << 62))

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        items: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` with a span around each call.

        ``items`` maps the call's arguments to an entity count (taken
        before the call: ``drain`` empties what it counts).  A
        coroutine function gets a span from call to completion that is
        *not* pushed as a parent: other requests interleave on the event
        loop while it awaits, and they are not its children.
        """
        spans, stack_of, ids = self.spans, self._stack, self._ids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                started = perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append(
                        (next(ids), -1, name, started, perf_counter_ns(), self.ident, 1)
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = items(*args, **kwargs) if items is not None else 1
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = perf_counter_ns()
                stack.pop()
                spans.append(
                    (span_id, parent, name, started, ended, self.ident, count)
                )

        return traced

    def flush(self, path: Path) -> None:
        """Write every span as one JSON line (creating the directory)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start_ns", "end_ns", "ident", "items")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _second_len(_self, batch, *_args, **_kwargs) -> int:
    return len(batch)


def _wrap_points() -> List[Tuple[object, str, str, Optional[Callable[..., int]]]]:
    """``(owner, attribute, span name, items)`` for every wrapped call."""
    from repro.algorithms.greedy import GreedySolver
    from repro.algorithms.sampling import SamplingSolver
    from repro.core.problem import RdbscProblem
    from repro.engine import durable, elastic
    from repro.engine.engine import AssignmentEngine
    from repro.fastpath.arrays import WorkerSlots
    from repro.index.grid import RdbscGrid
    from repro.serve import protocol
    from repro.serve.batcher import IngestBatcher
    from repro.serve.scheduler import EngineDriver
    from repro.solvers.incremental import WarmStartGreedySolver

    return [
        (AssignmentEngine, "apply_batch", "engine.apply_batch", _second_len),
        (AssignmentEngine, "epoch", "engine.epoch", None),
        (AssignmentEngine, "build_problem", "engine.build_problem", None),
        (RdbscProblem, "__init__", "core.problem", None),
        (RdbscGrid, "update_workers", "index.update_workers", _second_len),
        (RdbscGrid, "insert_workers", "index.insert_workers", _second_len),
        (RdbscGrid, "remove_worker", "index.remove_worker", None),
        (RdbscGrid, "insert_tasks", "index.insert_tasks", _second_len),
        (RdbscGrid, "remove_task", "index.remove_task", None),
        (RdbscGrid, "valid_pairs", "index.valid_pairs", None),
        (WorkerSlots, "update", "fastpath.slot_update", None),
        (GreedySolver, "solve", "algorithms.greedy", None),
        (SamplingSolver, "solve", "algorithms.sampling", None),
        (WarmStartGreedySolver, "warm_solve", "incremental.warm_solve", None),
        (elastic.ElasticShardedAssignmentEngine, "epoch", "elastic.epoch", None),
        (
            elastic.ElasticShardedAssignmentEngine,
            "apply_rebalance",
            "elastic.rebalance",
            _second_len,
        ),
        (
            elastic.ElasticShardedAssignmentEngine,
            "current_pairs",
            "elastic.fanout",
            None,
        ),
        (elastic, "pack_diff", "elastic.pack_diff", None),
        (elastic.SequentialResidentExecutor, "apply", "elastic.apply", None),
        (durable.DurableLog, "append_events", "wal.append", _second_len),
        (durable.DurableLog, "write_snapshot", "wal.snapshot", None),
        (protocol, "decode_request", "serve.decode", None),
        (protocol, "encode_ok", "serve.encode", None),
        (IngestBatcher, "try_add", "serve.batcher_add", None),
        (IngestBatcher, "drain", "serve.drain", lambda self: len(self)),
        (EngineDriver, "run_epoch", "serve.driver_epoch", None),
    ]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every boundary call for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, items in _wrap_points():
            # ``__dict__`` first: an inherited method (``WorkerSlots.update``)
            # is wrapped on the subclass only, and restored by deletion.
            own = vars(owner).get(attribute)
            saved.append((owner, attribute, own))
            setattr(
                owner,
                attribute,
                recorder.wrap(getattr(owner, attribute), name, items),
            )
        yield recorder
    finally:
        for owner, attribute, own in reversed(saved):
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def totals(spans: List[Span]) -> Dict[str, Tuple[int, int, int]]:
    """Per span name: ``(calls, total_ns, items)``."""
    out: Dict[str, Tuple[int, int, int]] = {}
    for _, _, name, started, ended, _, items in spans:
        calls, total, count = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, total + ended - started, count + items)
    return out


def self_times(spans: List[Span]) -> Dict[str, int]:
    """Per span name: total ns not covered by the spans' direct children."""
    child_ns: Dict[int, int] = {}
    for _, parent, _, started, ended, _, _ in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + ended - started
    out: Dict[str, int] = {}
    for span_id, _, name, started, ended, _, _ in spans:
        out[name] = out.get(name, 0) + (ended - started) - child_ns.get(span_id, 0)
    return out
