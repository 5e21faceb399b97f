"""Dominance filtering and dominating-count ranking over 2-D score vectors.

All functions treat *larger as better* in every coordinate, matching the
paper's (reliability increase, diversity increase) and
(min reliability, total STD) pairs.  Implementations are quadratic in the
candidate count — candidate sets here are per-round greedy pair lists and
sample pools, both small by construction; the grid index keeps them so.
:func:`best_index_by_dominance` evaluates the relation as one numpy
matrix once a list reaches :data:`_VECTOR_RANK_MIN` candidates (a
SAMPLING pool of K samples), with the scalar comparisons' exact float
expressions.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Tolerance applied to every comparison so that candidates differing only
#: by floating-point noise count as ties rather than dominations.
EPS = 1e-12

#: From this many candidates :func:`best_index_by_dominance` builds the
#: whole dominance relation as one numpy matrix instead of the pairwise
#: Python loop; both paths pick the same index.  The gate is the measured
#: crossover: the matrix costs a flat ~20 us of array set-up, which the
#: loop undercuts on GREEDY's typical per-round lists (mean ~5.5 pairs).
#: Per call on a 2-core x86 host, loop vs matrix, timed on the lists
#: GREEDY ranks on ``solve_full`` (30 epochs, two runs): n=5 13 vs 20-30
#: us, 8: 18-19 vs 19-20, 9: 20 vs 20, 10: 23-24 vs 20-24, 12: 30-33 vs
#: 20-30; on random lists 256 candidates take 11.4 ms vs 0.35 ms.
_VECTOR_RANK_MIN = 10

Score = Tuple[float, float]


def dominates_tuple(a: Score, b: Score, eps: float = EPS) -> bool:
    """Whether score ``a`` Pareto-dominates score ``b``.

    ``a`` must be at least as large as ``b`` in both coordinates and
    strictly larger in at least one (beyond ``eps``).
    """
    if a[0] < b[0] - eps or a[1] < b[1] - eps:
        return False
    return a[0] > b[0] + eps or a[1] > b[1] + eps


def skyline_indices(scores: Sequence[Score], eps: float = EPS) -> List[int]:
    """Indices of the non-dominated scores, in input order.

    Deliberately the O(n^2) definition rather than the sort-and-sweep
    skyline: with an epsilon-tolerant dominance relation the sweep's
    invariant breaks on near-ties of the sort coordinate (a later point can
    dominate an earlier kept one), and the candidate sets here are small —
    per-round greedy pair lists and sample pools — while the companion
    :func:`dominance_counts` is quadratic anyway.
    """
    return [
        i
        for i, score in enumerate(scores)
        if not any(
            dominates_tuple(other, score, eps)
            for j, other in enumerate(scores)
            if j != i
        )
    ]


def dominance_counts(scores: Sequence[Score], eps: float = EPS) -> List[int]:
    """For each score, how many other scores it dominates.

    This is the [22]-style ranking the greedy and sampling algorithms use:
    a candidate that beats many alternatives is a safer pick than one that
    merely sits on the skyline edge.
    """
    n = len(scores)
    counts = [0] * n
    for i in range(n):
        a = scores[i]
        for j in range(n):
            if i != j and dominates_tuple(a, scores[j], eps):
                counts[i] += 1
    return counts


def best_index_by_dominance(scores: Sequence[Score], eps: float = EPS) -> int:
    """Index of the best candidate: skyline member with top dominating count.

    Ties break towards the larger score tuple, then the smaller index, so
    the choice is deterministic.

    Raises:
        ValueError: if ``scores`` is empty.
    """
    if not scores:
        raise ValueError("no candidates to choose from")
    if len(scores) < _VECTOR_RANK_MIN:
        sky = skyline_indices(scores, eps)
        counts = dominance_counts(scores, eps)
    else:
        dominated = _dominance_matrix(scores, eps)
        sky = np.flatnonzero(~dominated.any(axis=0)).tolist()
        counts = dominated.sum(axis=1).tolist()
    return max(sky, key=lambda i: (counts[i], scores[i], -i))


def _dominance_matrix(scores: Sequence[Score], eps: float) -> np.ndarray:
    """``out[i, j] == dominates_tuple(scores[i], scores[j], eps)``, ``i != j``.

    The bounds are the scalar's own expressions (``b - eps``, ``b + eps``
    per coordinate of the dominated score), so every comparison sees the
    same doubles and the booleans match :func:`dominates_tuple` exactly.
    """
    values = np.asarray(scores, dtype=np.float64)
    x, y = values[:, 0], values[:, 1]
    below = (x[:, None] < (x - eps)[None, :]) | (y[:, None] < (y - eps)[None, :])
    above = (x[:, None] > (x + eps)[None, :]) | (y[:, None] > (y + eps)[None, :])
    dominated = above & ~below
    np.fill_diagonal(dominated, False)
    return dominated
