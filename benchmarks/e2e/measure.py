"""Clocks, percentiles and process accounting shared by every workload.

The noise protocol lives here so each workload applies it the same way:

* wall time is ``time.perf_counter_ns``;
* latencies are summarised by **nearest-rank** percentiles, and a tail
  percentile is only *supported* when at least ten samples lie beyond it
  (:func:`supported`);
* CPU and peak RSS are summed over every process of the system under
  test — the benchmark process plus pool/shard children for the direct
  workloads, the server pid for the wire workload — read from ``/proc``
  so a wall-clock gain bought by burning the second core shows;
* :func:`quiesce` collects and freezes the heap before a timed section
  (the GC stays enabled: the program's own garbage is part of its cost,
  the set-up's is not);
* set-up and recovery are repeated inside a run and reported as medians
  (:func:`median`), and throughput and CPU per epoch are medians over
  the windows a timed section is cut into (:func:`windows`);
* a :class:`Timeline` times an independent probe — a fixed piece of
  cache- and memory-bound work — between the windows, and windows
  (and set-up repeats) next to a slow probe are left out of the
  statistics.  The hosts this runs on have patches of several seconds,
  every few minutes, in which cache-heavy Python runs 30-60 % slower
  (a noisy neighbour: CPU time inflates with wall time, and an idle
  machine shows it too); the probe slows by 20-35 % in the same
  patches, and by +-5 % outside them.  The probe knows nothing about
  the program under test, so the gate cannot favour a change; a run
  that is disturbed from end to end is kept whole and says so.
"""

from __future__ import annotations

import gc
import math
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.serve.loadgen import percentile as nearest_rank

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10
#: A probe this much above the run's quiet level marks its neighbours
#: disturbed (quiet-phase probes stay within +-5 %, patches add >= 20 %).
DISTURBED = 1.12
#: Below this share of undisturbed activities the gate gives up.
MIN_CLEAN_SHARE = 1.0 / 3.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method.

    The serve tier's own helper (never interpolates a value that was not
    observed), except that an empty sample raises: a workload with
    nothing to summarise is a bug, not a ``nan`` to print.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    return nearest_rank(values, q)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave >= ``TAIL_SAMPLES`` beyond ``q``."""
    return count - max(1, math.ceil(q * count)) >= TAIL_SAMPLES


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (an observed value, like every percentile here)."""
    return percentile(values, 0.5)


def windows(items: Sequence, count: int) -> List[Sequence]:
    """``items`` cut into ``count`` contiguous, near-equal, non-empty runs."""
    count = max(1, min(count, len(items)))
    bounds = [round(k * len(items) / count) for k in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Timeline:
    """Timed activities with a host probe before and after each.

    ``run(kind, fn)`` probes, calls ``fn`` and files its result under
    ``kind``; :meth:`clean` returns the results whose two surrounding
    probes were both quiet.  The quiet level is the lower quartile of the
    run's own probes, so the gate adapts to the host it runs on.
    """

    def __init__(self) -> None:
        self._field = np.random.default_rng(0).random(400_000)
        self.probes_ms: List[float] = []
        self._activities: List[Tuple[str, object, int]] = []
        self._unit()  # the first call pays for cold caches and lazy imports
        self._probe()

    def _unit(self) -> float:
        # Cache- and memory-bound numpy work plus an interpreter loop, and
        # no object churn: allocator and heap state are the caller's, and
        # the probe must not time them.
        field = self._field
        started = time.perf_counter_ns()
        checksum = float(np.sort(field[:100_000]).sum() + (field * field).sum())
        for index in range(20_000):
            checksum += index & 7
        elapsed = (time.perf_counter_ns() - started) / 1e6
        if checksum <= 0.0:
            raise RuntimeError("host probe computed nonsense")
        return elapsed

    def _probe(self) -> None:
        # The fastest of five: a patch lasts seconds and slows all five,
        # a scheduling blip slows one.  No collection may run inside: the
        # probe must time the host, not the size of the caller's heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.probes_ms.append(min(self._unit() for _ in range(5)))
        finally:
            if enabled:
                gc.enable()

    def run(self, kind: str, fn):
        """Call ``fn()`` between two probes; returns its result."""
        result = fn()
        self._activities.append((kind, result, len(self.probes_ms) - 1))
        self._probe()
        return result

    def _quiet(self) -> List[bool]:
        level = percentile(self.probes_ms, 0.25)
        return [probe <= DISTURBED * level for probe in self.probes_ms]

    def clean(self, kind: str) -> list:
        """Results of ``kind`` not adjacent to a slow probe.

        When fewer than a third are left the host was disturbed from end
        to end (or the probe's quiet level is off): every result is
        returned, and :meth:`summary` shows it.
        """
        quiet = self._quiet()
        results = [(r, quiet[i] and quiet[i + 1]) for k, r, i in self._activities if k == kind]
        kept = [result for result, ok in results if ok]
        if len(kept) < MIN_CLEAN_SHARE * len(results):
            return [result for result, _ in results]
        return kept

    def every(self, kind: str) -> list:
        """Every result of ``kind``, gated or not (for the info line)."""
        return [result for k, result, _ in self._activities if k == kind]

    def summary(self) -> Dict[str, object]:
        """Probe level and how many activities of each kind were kept."""
        kinds = sorted({kind for kind, _, _ in self._activities})
        return {
            "probe_quiet_ms": percentile(self.probes_ms, 0.25),
            "probe_max_ms": max(self.probes_ms),
            "kept": {
                kind: f"{len(self.clean(kind))}/"
                f"{sum(k == kind for k, _, _ in self._activities)}"
                for kind in kinds
            },
        }


def quiesce() -> None:
    """Collect, then freeze survivors out of future collections."""
    gc.collect()
    gc.freeze()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant pid, from a ``/proc`` scan."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited between listing and reading
        # Field 4 (ppid) follows the parenthesised command name, which may
        # itself contain spaces or parentheses.
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far, summed over ``pids``."""
    ticks = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / _CLOCK_TICKS


def own_cpu_seconds(children: Iterable[int]) -> float:
    """CPU seconds of this process (ns clock) plus ``children`` (ticks)."""
    return time.process_time() + cpu_seconds(children)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Peak resident set (``VmHWM``) in MiB, summed over ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0
