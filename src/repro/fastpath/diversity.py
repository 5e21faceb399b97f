"""Batched exact E[STD]: vectorised twins of the Lemma 3.1 reductions.

:func:`repro.core.expected.expected_spatial_diversity` and
:func:`~repro.core.expected.expected_temporal_diversity` evaluate one
(task, profile set) at a time in scalar python — an O(r^2) reduction per
call, and after Lemma 4.3 pruning these exact ΔE[STD] evaluations are what
dominates a GREEDY round.  This module evaluates a whole *block* of
candidate (task, worker) pairs at once over padded per-task profile slabs:

* **SD** — per-row stable argsort by normalised angle, adjacent-difference
  gaps with the wrap-around gap scattered per row, then the full
  (j, step) term matrix: arcs as a ``cumsum`` along the step axis and the
  survivor chain ``p_j * Π (1 - p_k)`` as a ``multiply.accumulate``.
* **TD** — per-row stable argsort by raw arrival, window clamping, the
  ``[start, τ..., end]`` boundary arrays with the terminal boundary
  scattered at column ``r + 1``, then the (j, k) boundary-pair matrix with
  masked prefix-products of ``(1 - present)`` along the sorted axis.

The contract is the same as every other fastpath kernel: **bitwise**
equality with the scalar reduction, not approximate equality.  That drives
three non-obvious choices, called out inline where they bite:

* ``np.cumsum`` / ``np.multiply.accumulate`` are strictly sequential and
  reproduce scalar ``total +=`` chains exactly; ``np.sum`` is pairwise and
  does **not**.  Row totals are therefore the last column of a ``cumsum``
  over the C-order-flattened term matrix (j-major, step-minor — the scalar
  loop nesting).
* ``np.log`` is a different code path from ``math.log`` (SIMD polynomials
  that round a fraction of doubles differently), so the entropy logs go
  through ``math.log`` itself via ``np.frompyfunc`` — deduplicated with
  ``np.unique`` first on large blocks, because candidates of the same task
  share their base-profile boundaries and repeat fractions heavily.
* Python's ``min``/``max`` return the *first* argument on ties (and
  preserve its signed zero); every clamp is an ``np.where`` spelled so the
  first argument wins unless the comparison is strict.

Masked (padded) cells contribute exact ``+0.0`` terms; every live term is
``>= +0.0`` (confidences and entropies are non-negative), so adding the
padding zeros through the sequential cumsum is a bitwise no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fastpath.kernels import _normalize_angles
from repro.geometry.angles import TWO_PI

#: :data:`repro.geometry.entropy._ZERO` — fractions at or below this are
#: zero mass.
_ZERO = 1e-15

#: ``math.log`` applied element-wise (object loop).  Slower per element
#: than ``np.log`` but bit-identical to the scalar ``entropy_term``.
_MATH_LOG = np.frompyfunc(math.log, 1, 1)

#: Above this many mid-branch fractions, dedupe through ``np.unique``
#: before taking logs: greedy candidate blocks repeat each base-profile
#: fraction once per candidate of the same task, and the object-loop log
#: is ~2x the cost of the sort.  Both paths produce identical bits, so
#: the data-dependent switch cannot break any equality contract.
_UNIQUE_LOG_THRESHOLD = 2048

#: Rough per-chunk cell budget for the O(maxR^2) term matrices, keeping
#: peak temporary memory in the tens of megabytes regardless of block
#: size.  Purely an internal blocking factor — results are per-row
#: independent, so chunking is invisible to the bitwise contract.
_CHUNK_CELLS = 1 << 20


def _entropy_terms(fractions: np.ndarray) -> np.ndarray:
    """Element-wise twin of :func:`repro.geometry.entropy.entropy_term`.

    Replicates the scalar branches exactly: the ±1e-9 range guard, zero
    below ``_ZERO`` and at-or-above one, else ``-f * math.log(f)``.
    """
    bad = (fractions < -1e-9) | (fractions > 1.0 + 1e-9)
    if np.any(bad):
        value = float(fractions[bad].flat[0])
        raise ValueError(f"fraction must be within [0, 1], got {value}")
    out = np.zeros_like(fractions)
    mid = (fractions > _ZERO) & (fractions < 1.0)
    if np.any(mid):
        values = fractions[mid]
        if values.size >= _UNIQUE_LOG_THRESHOLD:
            uniques, inverse = np.unique(values, return_inverse=True)
            logs = _MATH_LOG(uniques).astype(np.float64)[inverse]
        else:
            logs = _MATH_LOG(values).astype(np.float64)
        out[mid] = -values * logs
    return out


def batch_expected_spatial_diversity(
    angles: np.ndarray, confidences: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Row-wise SD over a padded ``(B, maxR)`` slab.

    Row ``b`` holds ``counts[b]`` live profiles in its leading columns;
    padding beyond the count is ignored.  Bitwise-equal to calling
    :func:`repro.core.expected.expected_spatial_diversity` per row.
    """
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    confidences = np.ascontiguousarray(confidences, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    num_rows, max_r = angles.shape
    out = np.zeros(num_rows)
    if max_r < 2:
        return out
    col = np.arange(max_r)[None, :]
    valid_col = col < counts[:, None]
    theta = _normalize_angles(np.where(valid_col, angles, 0.0))
    # Stable sort puts padded (+inf-keyed) columns last and keeps the
    # scalar ``sorted``'s input-order tie-breaking among equal angles.
    order = np.argsort(np.where(valid_col, theta, np.inf), kind="stable", axis=1)
    thetas = np.take_along_axis(theta, order, axis=1)
    ps = np.take_along_axis(np.where(valid_col, confidences, 0.0), order, axis=1)

    # Gaps: adjacent differences over the sorted angles, wrap-around gap
    # scattered at column r-1.  No phantom boundaries — inserting padded
    # angles would split arcs and change the float gap sums.
    gaps = np.zeros((num_rows, max_r))
    gaps[:, :-1] = thetas[:, 1:] - thetas[:, :-1]
    gaps = np.where(col < counts[:, None] - 1, gaps, 0.0)
    rows = np.arange(num_rows)
    last = np.maximum(counts - 1, 0)
    wrap = (TWO_PI - thetas[rows, last]) + thetas[:, 0]
    gaps[rows, last] = np.where(counts >= 2, wrap, 0.0)

    # (b, j, d) term matrices, d = step - 1.  When every row holds
    # exactly ``max_r`` profiles (how :func:`batch_expected_std` calls
    # after grouping by count) the circular index ``(j + d) % r`` is the
    # same for all rows, and gathering through explicit index matrices
    # is beaten ~6x by sliding windows over period-doubled arrays — the
    # windows read the identical elements in the identical order, so the
    # two gathers are bitwise-interchangeable.
    j_idx = np.arange(max_r)[None, :, None]
    d_idx = np.arange(max_r - 1)[None, None, :]
    if np.all(counts == max_r):
        from numpy.lib.stride_tricks import sliding_window_view

        doubled_gaps = np.concatenate([gaps, gaps[:, : max_r - 1]], axis=1)
        doubled_ps = np.concatenate([ps, ps[:, :max_r]], axis=1)
        gap_run = sliding_window_view(doubled_gaps, max_r - 1, axis=1)[:, :max_r]
        ps_k = sliding_window_view(doubled_ps[:, 1:], max_r - 1, axis=1)[:, :max_r]
    else:
        r_mod = np.maximum(counts, 1)[:, None, None]
        b_idx = rows[:, None, None]
        gap_run = gaps[b_idx, (j_idx + d_idx) % r_mod]
        ps_k = ps[b_idx, (j_idx + d_idx + 1) % r_mod]

    # arcs[b, j, d] = gaps[j] + ... + gaps[j + d]  (sequential, as scalar
    # ``arc +=``); survivors[b, j, d] = p_j * (1-p_{k_1}) ... (1-p_{k_d}).
    arcs = np.cumsum(gap_run, axis=2)
    factors = np.empty((num_rows, max_r, max_r - 1))
    factors[:, :, 0] = ps
    factors[:, :, 1:] = 1.0 - ps_k[:, :, :-1]
    survivors = np.multiply.accumulate(factors, axis=2)

    live = (j_idx < counts[:, None, None]) & (d_idx < counts[:, None, None] - 1)
    # Python ``min(arc, TWO_PI)`` keeps ``arc`` unless strictly above.
    capped = np.where(TWO_PI < arcs, TWO_PI, arcs)
    fractions = np.where(live, capped / TWO_PI, 0.0)
    terms = np.where(live, (_entropy_terms(fractions) * survivors) * ps_k, 0.0)
    # C-order flatten = j-major, step-minor: the scalar loop nesting.
    totals = np.cumsum(terms.reshape(num_rows, -1), axis=1)[:, -1]
    return np.where(counts >= 2, totals, 0.0)


def batch_expected_temporal_diversity(
    arrivals: np.ndarray,
    confidences: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Row-wise TD over a padded ``(B, maxR)`` slab.

    Bitwise-equal to calling
    :func:`repro.core.expected.expected_temporal_diversity` per row with
    ``(arrivals[b, :r], confidences[b, :r], starts[b], ends[b])``.
    """
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    confidences = np.ascontiguousarray(confidences, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    num_rows, max_r = arrivals.shape
    duration = ends - starts
    alive = (counts > 0) & (duration > 0.0)
    out = np.zeros(num_rows)
    if not np.any(alive):
        return out
    col = np.arange(max_r)[None, :]
    valid_col = col < counts[:, None]
    # Sort by *raw* arrival (the scalar orders before clamping; the clamp
    # is monotone so sorting first then clamping matches).
    order = np.argsort(np.where(valid_col, arrivals, np.inf), kind="stable", axis=1)
    arr = np.take_along_axis(np.where(valid_col, arrivals, 0.0), order, axis=1)
    confs = np.take_along_axis(np.where(valid_col, confidences, 0.0), order, axis=1)
    # Python ``max(a, start)`` / ``min(tau, end)``: first argument wins on
    # ties, so the scattered window bound only replaces on strict compare.
    taus = np.where(starts[:, None] > arr, starts[:, None], arr)
    taus = np.where(ends[:, None] < taus, ends[:, None], taus)

    # bounds = [start, τ_1..τ_r, end]; present = [1, p_1..p_r, 1] — the
    # terminal column scattered at r + 1, padding inert beyond it.
    width = max_r + 2
    bounds = np.zeros((num_rows, width))
    bounds[:, 0] = starts
    bounds[:, 1 : max_r + 1] = np.where(valid_col, taus, 0.0)
    present = np.zeros((num_rows, width))
    present[:, 0] = 1.0
    present[:, 1 : max_r + 1] = confs
    rows = np.arange(num_rows)
    end_col = counts + 1
    bounds[rows, end_col] = ends
    present[rows, end_col] = 1.0

    # (b, j, k) boundary-pair matrices, j in [0, r], k in [j+1, r+1].
    num_j = width - 1
    j_idx = np.arange(num_j)[None, :, None]
    k_idx = np.arange(width)[None, None, :]
    cnt = counts[:, None, None]
    live = (k_idx > j_idx) & (j_idx <= cnt) & (k_idx <= cnt + 1)
    lengths = bounds[:, None, :] - bounds[:, :num_j, None]
    dur = duration[:, None, None]
    capped = np.where(dur < lengths, dur, lengths)
    denom = np.where(duration > 0.0, duration, 1.0)[:, None, None]
    fractions = np.where(live & alive[:, None, None], capped / denom, 0.0)

    # survivors[b, j, k] = present[j] * Π_{m=j+1..k-1} (1 - present[m]),
    # via a prefix product whose leading factors are exact 1.0 (a bitwise
    # no-op) below the diagonal and present[j] on it.
    chain = np.broadcast_to((1.0 - present)[:, None, :], (num_rows, num_j, width)).copy()
    chain = np.where(k_idx < j_idx, 1.0, chain)
    chain = np.where(k_idx == j_idx, present[:, :num_j, None], chain)
    prefix = np.multiply.accumulate(chain, axis=2)
    survivors = np.empty((num_rows, num_j, width))
    survivors[:, :, 0] = 0.0
    survivors[:, :, 1:] = prefix[:, :, :-1]

    p_k = np.broadcast_to(present[:, None, :], (num_rows, num_j, width))
    terms = np.where(live, (_entropy_terms(fractions) * survivors) * p_k, 0.0)
    totals = np.cumsum(terms.reshape(num_rows, -1), axis=1)[:, -1]
    return np.where(alive, totals, 0.0)


@dataclass
class DiversitySlab:
    """A padded block of per-row diversity-evaluation inputs.

    Row ``b`` describes one (task, profile multiset) pair: the task's
    ``beta`` / valid period and ``counts[b]`` profiles in the leading
    columns of the ``(B, maxR)`` arrays.  Slabs slice cleanly by row
    (:meth:`take`); the kernel is row-independent, so a sub-slab's values
    carry the bits of the same rows in the whole slab.
    """

    betas: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    counts: np.ndarray
    angles: np.ndarray
    arrivals: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return int(self.betas.shape[0])

    def take(self, indices: np.ndarray) -> "DiversitySlab":
        """The sub-slab at ``indices`` (rows copied, order preserved)."""
        idx = np.asarray(indices, dtype=np.intp)
        return DiversitySlab(
            betas=self.betas[idx],
            starts=self.starts[idx],
            ends=self.ends[idx],
            counts=self.counts[idx],
            angles=self.angles[idx],
            arrivals=self.arrivals[idx],
            confidences=self.confidences[idx],
        )


def batch_expected_std(slab: DiversitySlab) -> np.ndarray:
    """Row-wise E[STD] = β·SD + (1-β)·TD over a slab.

    Bitwise-equal to :func:`repro.core.expected.expected_std` per row.
    Internally rows are bucketed by profile count (each chunk padded to
    its own maximum, bounding both the padding waste and the O(width^2)
    temporaries); regrouping cannot change bits because rows are
    independent.
    """
    betas = np.asarray(slab.betas, dtype=np.float64)
    bad = (betas < 0.0) | (betas > 1.0)
    if np.any(bad):
        value = float(betas[bad].flat[0])
        raise ValueError(f"beta must be within [0, 1], got {value}")
    num_rows = len(slab)
    out = np.empty(num_rows)
    if not num_rows:
        return out
    counts = np.asarray(slab.counts, dtype=np.int64)
    # Group rows by *exact* profile count.  The term matrices are
    # O(width^2) per row, so padding every row to the global maximum
    # would charge a depth-3 row a depth-20 row's work (the scalar loop
    # pays r^2); with uniform counts every kernel call runs unpadded and
    # the SD kernel additionally takes its sliding-window path.  Rows
    # are independent and padded columns contribute exact no-op terms,
    # so regrouping and column-slicing cannot change a single bit.
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    boundaries = np.flatnonzero(np.diff(sorted_counts)) + 1
    for group in np.split(order, boundaries):
        local_r = max(1, int(counts[group[0]]))
        step = max(1, _CHUNK_CELLS // ((local_r + 2) * (local_r + 2)))
        for lo in range(0, group.size, step):
            idx = group[lo : lo + step]
            chunk_betas = betas[idx]
            chunk_counts = counts[idx]
            if np.any(chunk_betas > 0.0):
                sd = batch_expected_spatial_diversity(
                    slab.angles[:, :local_r][idx],
                    slab.confidences[:, :local_r][idx],
                    chunk_counts,
                )
            else:
                sd = np.zeros(idx.size)
            if np.any(chunk_betas < 1.0):
                td = batch_expected_temporal_diversity(
                    slab.arrivals[:, :local_r][idx],
                    slab.confidences[:, :local_r][idx],
                    slab.starts[idx],
                    slab.ends[idx],
                    chunk_counts,
                )
            else:
                td = np.zeros(idx.size)
            # The scalar skips SD at β == 0 and TD at β == 1 (leaving
            # 0.0); masking reproduces that without branching per row.
            sd = np.where(chunk_betas > 0.0, sd, 0.0)
            td = np.where(chunk_betas < 1.0, td, 0.0)
            out[idx] = chunk_betas * sd + (1.0 - chunk_betas) * td
    return out


def pack_delta_slab(
    problem, evaluator, pairs: Sequence[Tuple[int, int]]
) -> Tuple[DiversitySlab, np.ndarray]:
    """Slab + per-row current E[STD] for a block of candidate pairs.

    Row ``i`` holds ``pairs[i]``'s task profiles in assignment order with
    the candidate's :meth:`~repro.core.problem.RdbscProblem.pair_profile`
    appended last — exactly the profile list
    :meth:`repro.core.objectives.IncrementalEvaluator.delta_estd` builds.
    """
    num_rows = len(pairs)
    by_task: Dict[int, List[int]] = {}
    for index, (task_id, _) in enumerate(pairs):
        by_task.setdefault(task_id, []).append(index)
    max_r = 1
    for task_id in by_task:
        max_r = max(max_r, len(evaluator.state_of(task_id).profiles) + 1)
    angles = np.zeros((num_rows, max_r))
    arrivals = np.zeros((num_rows, max_r))
    confidences = np.zeros((num_rows, max_r))
    counts = np.empty(num_rows, dtype=np.int64)
    betas = np.empty(num_rows)
    starts = np.empty(num_rows)
    ends = np.empty(num_rows)
    old_estd = np.empty(num_rows)
    for task_id, indices in by_task.items():
        task = problem.tasks_by_id[task_id]
        state = evaluator.state_of(task_id)
        base = state.profiles
        r = len(base)
        idx = np.asarray(indices, dtype=np.intp)
        if r:
            angles[idx[:, None], np.arange(r)[None, :]] = [p.angle for p in base]
            arrivals[idx[:, None], np.arange(r)[None, :]] = [p.arrival for p in base]
            confidences[idx[:, None], np.arange(r)[None, :]] = [
                p.confidence for p in base
            ]
        added = [problem.pair_profile(task_id, pairs[i][1]) for i in indices]
        angles[idx, r] = [p.angle for p in added]
        arrivals[idx, r] = [p.arrival for p in added]
        confidences[idx, r] = [p.confidence for p in added]
        counts[idx] = r + 1
        betas[idx] = task.beta
        starts[idx] = task.start
        ends[idx] = task.end
        old_estd[idx] = state.estd
    slab = DiversitySlab(
        betas=betas,
        starts=starts,
        ends=ends,
        counts=counts,
        angles=angles,
        arrivals=arrivals,
        confidences=confidences,
    )
    return slab, old_estd


def batch_delta_estd(
    problem, evaluator, pairs: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """ΔE[STD] for every candidate pair, batch-evaluated.

    Bitwise-equal, element by element, to calling
    :meth:`~repro.core.objectives.IncrementalEvaluator.delta_estd` on each
    pair in turn.
    """
    slab, old_estd = pack_delta_slab(problem, evaluator, pairs)
    return batch_expected_std(slab) - old_estd
