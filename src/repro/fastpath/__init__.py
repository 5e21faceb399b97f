"""Array-backed batch kernels — the NumPy fast path.

Every hot loop of the reproduction has a scalar reference implementation
in :mod:`repro.core` / :mod:`repro.algorithms`; this package provides
broadcast equivalents over packed arrays:

``arrays``
    :class:`WorkerArrays` / :class:`TaskArrays` — structure-of-arrays
    views of the object model — and :class:`WorkerSlots`, the engine's
    slot-stable worker slab.
``kernels``
    :func:`batch_effective_arrival` (the full validity matrix),
    :func:`batch_valid_pairs` (bit-identical ``ValidPair`` retrieval),
    :func:`batch_delta_min_r` and :func:`lemma43_prune_order` (greedy
    scoring and Section 4.3 pruning), and :func:`slots_log_weights`
    (warm GREEDY's Eq. 8 weights, read off the worker slab).
``candidates``
    :class:`CandidateTable` — the numpy GREEDY round loop's resident
    candidate rows, packed once per solve and edited per commit — and
    ``TaskStateMemo``, the value-keyed cross-solve memo of its bounds
    and exact ``E[STD]`` values.
``diversity``
    :func:`batch_expected_std` / :func:`batch_delta_estd` — whole blocks
    of exact ``E[STD]`` evaluations over padded profile slabs
    (:class:`DiversitySlab`), bitwise-equal to the scalar Lemma 3.1
    reductions in :mod:`repro.core.expected`.

Consumers select the fast path through ``backend="numpy"`` flags on
:class:`repro.core.problem.RdbscProblem`,
:class:`repro.algorithms.greedy.GreedySolver` and
:class:`repro.engine.AssignmentEngine`; the differential suite in
``tests/test_fastpath_equivalence.py`` pins both backends to identical
results.
"""

from repro.fastpath.arrays import TaskArrays, WorkerArrays, WorkerSlots
from repro.fastpath.candidates import CandidateTable
from repro.fastpath.diversity import (
    DiversitySlab,
    batch_delta_estd,
    batch_expected_spatial_diversity,
    batch_expected_std,
    batch_expected_temporal_diversity,
    pack_delta_slab,
)
from repro.fastpath.kernels import (
    batch_delta_min_r,
    batch_effective_arrival,
    batch_valid_pairs,
    lemma43_prune_order,
    slots_log_weights,
)

__all__ = [
    "CandidateTable",
    "DiversitySlab",
    "TaskArrays",
    "WorkerArrays",
    "WorkerSlots",
    "batch_delta_estd",
    "batch_delta_min_r",
    "batch_expected_spatial_diversity",
    "batch_expected_std",
    "batch_expected_temporal_diversity",
    "pack_delta_slab",
    "batch_effective_arrival",
    "batch_valid_pairs",
    "lemma43_prune_order",
    "slots_log_weights",
]
