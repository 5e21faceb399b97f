"""The RDB-SC sampling algorithm (Figure 5, Section 5).

Each sample is a full assignment drawn from the Section 5.1 population:
every worker independently picks one of its valid tasks uniformly (one bold
edge per worker node in Figure 4).  ``K`` samples are scored on
``(min reliability, total E[STD])`` and the winner is the sample with the
best dominance rank — the skyline member dominating the most other samples,
exactly the paper's [22]-style tie-break for when no sample dominates all
others.

**Determinism contract.**  How the ``K`` draws consume randomness is an
explicit, versioned contract (:data:`SUBSTREAM_V1`, recorded in durable
logs so a log written under any other draw order fails its restore-time
fingerprint check): a solve draws **one** base seed from the caller's
generator and then gives sample ``i`` its *own* child generator, spawned
deterministically as ``SeedSequence(base, spawn_key=(i,))``.  Sample
``i`` therefore depends only on ``(base, i)`` — never on how many samples
preceded it, which process drew it, or how a pool chunked the batch — so
the solved plan is bit-identical at every pool size (serial, and fanned
out across any number of executor processes).  This is the contract the
parallel solve subsystem (:mod:`repro.engine.parallel`) requires.

With ``backend="numpy"`` each sample's per-worker choices are drawn in one
bounded-``integers`` call over a flattened candidate table instead of a
Python loop.  NumPy's ``Generator.integers`` consumes the bit stream
identically for an array of bounds and for element-wise scalar calls, so
the drawn samples — and therefore the returned assignment — are identical
to the python backend for the same seed (pinned by the differential
test suite).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import RngLike, Solver, SolverResult, make_rng
from repro.algorithms.random_assign import (
    CandidateTable,
    draw_random_assignment,
    draw_random_assignment_batch,
)
from repro.algorithms.sample_size import SamplePlan
from repro.core.assignment import Assignment
from repro.core.objectives import evaluate_assignment
from repro.core.problem import RdbscProblem
from repro.skyline.dominance import best_index_by_dominance

#: The substream determinism contract (see the module docstring): one base
#: seed per solve, per-sample child generators, pool-size-independent plans.
SUBSTREAM_V1 = "substream-v1"

#: Exclusive upper bound of the base-seed draw — the full non-negative
#: ``int64`` range, so one ``integers`` call advances the caller's stream
#: by exactly one bounded draw.
_BASE_SEED_BOUND = 2**63


def substream_base_seed(generator: np.random.Generator) -> int:
    """Draw the solve's base seed: one bounded integer off the stream.

    The single draw is the only randomness the substream contract consumes
    from the caller's generator, so a persistent generator still yields
    fresh (but reproducible) sample sets epoch after epoch, while warm and
    full solves starting from equal generator state derive the same base —
    and therefore bit-identical samples.
    """
    return int(generator.integers(0, _BASE_SEED_BOUND))


def substream_rng(base_seed: int, index: int) -> np.random.Generator:
    """Sample ``index``'s child generator under :data:`SUBSTREAM_V1`.

    ``SeedSequence(base, spawn_key=(i,))`` is exactly the ``i``-th child
    ``SeedSequence(base).spawn()`` would produce, without materialising the
    siblings — any process can mint any sample's generator independently.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(index,))
    )


class SamplePool:
    """Scores for a drawn sample batch, with on-demand materialisation.

    The fan-out path ships only per-sample *scores* back from the worker
    processes (a K x 2 float block) — whole assignments would dominate the
    wire — so the pool re-draws an assignment locally when a caller asks
    for one (cheap: one sample's draw, no scoring).  Serial paths pass the
    materialised samples instead and ``assignment`` is a list lookup.

    Args:
        scores: per-sample ``(min reliability, total E[STD])`` pairs, in
            sample-index order.
        samples: the materialised assignments, when the drawing path kept
            them.
        drawer: fallback ``index -> Assignment`` used when ``samples`` is
            not supplied.
    """

    def __init__(
        self,
        scores: List[Tuple[float, float]],
        samples: Optional[List[Assignment]] = None,
        drawer: Optional[Callable[[int], Assignment]] = None,
    ) -> None:
        if samples is None and drawer is None and scores:
            raise ValueError("a non-empty pool needs samples or a drawer")
        self.scores = scores
        self._samples = samples
        self._drawer = drawer

    def __len__(self) -> int:
        return len(self.scores)

    def assignment(self, index: int) -> Assignment:
        """The sample at ``index`` (materialised or re-drawn on demand)."""
        if self._samples is not None:
            return self._samples[index]
        assert self._drawer is not None
        return self._drawer(index)


class SamplingSolver(Solver):
    """Draw K random assignments; keep the dominance-rank winner.

    Args:
        plan: the (epsilon, delta) sample-size plan; ignored when
            ``num_samples`` pins the count explicitly.
        num_samples: fixed sample count override.
        backend: ``"python"`` draws each worker's choice in a loop;
            ``"numpy"`` draws a whole sample at once (same RNG stream,
            identical samples).
        executor: optional sample fan-out executor (duck-typed to
            :class:`repro.engine.parallel.ParallelSolveExecutor`); when
            set, substream sample batches are evaluated through it instead
            of the in-line loop.  The engine attaches this via its
            ``solve_executor`` knob.
    """

    name = "SAMPLING"

    def __init__(
        self,
        plan: Optional[SamplePlan] = None,
        num_samples: Optional[int] = None,
        backend: str = "python",
        executor=None,
    ) -> None:
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.plan = plan if plan is not None else SamplePlan()
        self.num_samples = num_samples
        self.backend = backend
        self.executor = executor

    def resolve_sample_count(self, problem: RdbscProblem) -> int:
        """The number of samples this solver would draw for ``problem``."""
        if self.num_samples is not None:
            if self.num_samples < 1:
                raise ValueError("num_samples must be at least 1")
            return self.num_samples
        return self.plan.resolve(problem.log_population_size())

    def solve(self, problem: RdbscProblem, rng: RngLike = None) -> SolverResult:
        generator = make_rng(rng)
        k = self.resolve_sample_count(problem)
        pool = self.scored_sample_pool(problem, generator, k)
        if not len(pool):
            return self._finish(problem, Assignment(), {"samples": 0.0})
        best = best_index_by_dominance(pool.scores)
        return self._finish(problem, pool.assignment(best), {"samples": float(k)})

    # ------------------------------------------------------------------ #
    # Sample drawing
    # ------------------------------------------------------------------ #

    def _draw_one(self, problem: RdbscProblem, table, generator) -> Assignment:
        """One population draw on this solver's backend."""
        if table is not None:
            return draw_random_assignment_batch(table, generator)
        return draw_random_assignment(problem, generator)

    def scored_sample_pool(
        self,
        problem: RdbscProblem,
        generator: np.random.Generator,
        count: int,
    ) -> SamplePool:
        """Draw and score ``count`` samples under :data:`SUBSTREAM_V1`.

        The core of :meth:`solve`, shared with the warm-start wrapper
        (:class:`repro.solvers.incremental.WarmStartSamplingSolver`) so
        warm and full solves consume randomness identically: for equal
        generator state, sample ``i`` here is bit-identical to sample
        ``i`` of :meth:`solve` — on either backend, and at any executor
        pool size.
        """
        base_seed = substream_base_seed(generator)
        if self.executor is not None:
            scores = self.executor.scored_sample_chunks(problem, base_seed, count)
            table = (
                CandidateTable.from_problem(problem)
                if self.backend == "numpy"
                else None
            )
            return SamplePool(
                scores,
                drawer=lambda index: self._draw_one(
                    problem, table, substream_rng(base_seed, index)
                ),
            )
        table = (
            CandidateTable.from_problem(problem) if self.backend == "numpy" else None
        )
        samples: List[Assignment] = []
        scores: List[Tuple[float, float]] = []
        for index in range(count):
            assignment = self._draw_one(
                problem, table, substream_rng(base_seed, index)
            )
            value = evaluate_assignment(problem, assignment)
            samples.append(assignment)
            scores.append((value.min_reliability, value.total_std))
        return SamplePool(scores, samples=samples)

    def draw_scored_samples(
        self,
        problem: RdbscProblem,
        generator,
        count: int,
    ) -> Tuple[List[Assignment], List[Tuple[float, float]]]:
        """Materialised ``(samples, scores)`` view of a sample pool.

        Compatibility wrapper over :meth:`scored_sample_pool` for callers
        that want every assignment in hand (tests, analysis code); the
        solve paths use the pool directly so the fan-out path only
        materialises the winner.
        """
        pool = self.scored_sample_pool(problem, generator, count)
        return [pool.assignment(i) for i in range(len(pool))], list(pool.scores)
