"""The RDB-SC greedy algorithm (Figure 3, Section 4).

In each of up to ``n`` rounds the solver scores every candidate
(task, worker) pair by the increase it would cause in the two objectives —
``(Δmin_R, ΔE[STD])`` — filters out Pareto-dominated pairs, ranks the
survivors by how many pairs they dominate (the [22] dominating score), and
commits the top pair.  With ``use_pruning=True`` (the default) the
Section 4.3 bounds discard provably inferior pairs before any exact
``ΔE[STD]`` work is spent on them (Lemma 4.3).

The same rounds run in two shapes, pinned to identical selections,
objectives and stats:

* **The python reference loop** (``backend="python"``, what
  ``GreedySolver()`` runs) is the paper-faithful scalar form: every round
  rebuilds the candidate pair list and scores it pair by pair, reusing a
  pair's bounds and exact ``ΔE[STD]`` from per-task dict caches until its
  task's worker set changes.
* **The resident table** (``backend="numpy"``) packs the candidates once
  per solve into a :class:`repro.fastpath.candidates.CandidateTable` and
  re-scores only what the last commit changed: a round is array kernels
  over the live rows plus one exact ``ΔE[STD]`` block for the uncached
  survivors; a commit drops the worker's rows and refills the bounds of
  the committed task's remaining rows.  Across solves, the solver's two
  :class:`~repro.fastpath.candidates.TaskStateMemo` s (``bounds_memo``,
  ``estd_memo``) answer the bounds and the post-commit ``E[STD]`` of
  every (task state, candidate) the last two solves met, keyed by the
  values those functions read; only misses are computed, so an engine's
  re-solve pays for the task states the previous epoch did not visit,
  and the commit reuses the chosen row's memoised ``E[STD]``.  A hit
  carries the bits a fresh evaluation would, so plans and stats do not
  depend on what the memo holds.

Rounds are globally coupled — each scores against the global minimum
reliability and commits one pair — so GREEDY always solves inline, even
under an engine's ``solve_executor`` (which fans out SAMPLING only).

Each stage reports its wall time through the engine phase profiler
(:mod:`repro.engine.profile`) when an engine has activated one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import RngLike, Solver, SolverResult
from repro.algorithms.pruning import (
    CandidateBounds,
    diversity_increase_bounds,
    prune_candidates,
    task_increase_bounds,
)
from repro.core.objectives import IncrementalEvaluator
from repro.core.problem import RdbscProblem
from repro.fastpath.candidates import CandidateTable, TaskStateMemo
from repro.skyline.dominance import best_index_by_dominance

#: Below this many uncached candidates, the scalar per-pair loop beats
#: slab packing + kernel dispatch (post-pruning survivor blocks are often
#: a handful of rows).  Both paths produce identical bits, so the switch
#: is invisible to every equality contract.
_MIN_BLOCK_DSTD = 32


def _stats(rounds: int, exact_evaluations: int, pruned: int) -> Dict[str, float]:
    return {
        "rounds": float(rounds),
        "exact_delta_evaluations": float(exact_evaluations),
        "pruned_candidates": float(pruned),
    }


class GreedySolver(Solver):
    """Iteratively assign the locally best (task, worker) pair.

    Args:
        use_pruning: apply the Lemma 4.3 bound-based pruning before exact
            diversity increases are computed.  Results are identical either
            way whenever the pruned pairs were genuinely dominated; the flag
            exists for the ablation benchmark.
        backend: ``"python"`` scores candidates one by one; ``"numpy"``
            keeps them in a resident table scored by the fastpath
            kernels.  Both backends commit identical assignments.
    """

    name = "GREEDY"

    def __init__(self, use_pruning: bool = True, backend: str = "python") -> None:
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.use_pruning = use_pruning
        self.backend = backend
        # The numpy table path's cross-solve memos (Section 4.3 bounds and
        # post-commit E[STD] per (task state, candidate) values); they
        # only ever repeat results, so they are not configuration.
        self.bounds_memo = TaskStateMemo()
        self.estd_memo = TaskStateMemo()

    def solve(self, problem: RdbscProblem, rng: RngLike = None) -> SolverResult:
        evaluator = IncrementalEvaluator(problem)
        unassigned = sorted(
            w.worker_id for w in problem.workers if problem.degree(w.worker_id) > 0
        )
        stats = self.run_rounds(problem, evaluator, unassigned)
        return SolverResult(
            assignment=evaluator.assignment,
            objective=evaluator.value(),
            stats=stats,
        )

    def run_rounds(
        self,
        problem: RdbscProblem,
        evaluator: IncrementalEvaluator,
        unassigned: List[int],
        log_weights: Optional[Dict[int, float]] = None,
    ) -> Dict[str, float]:
        """Run greedy rounds until ``unassigned`` drains (or no pairs remain).

        The core of :meth:`solve`, factored out so callers can start from a
        *partially filled* evaluator — the warm-start solver
        (:class:`repro.solvers.incremental.WarmStartGreedySolver`) seeds the
        evaluator with the repaired previous plan and passes only the dirty
        workers here.  ``unassigned`` is consumed in place; each round
        commits one (task, worker) pair into ``evaluator``.

        Args:
            problem: the instance being solved.
            evaluator: incremental objective state; may already hold
                assignments (they are treated exactly like committed rounds).
            unassigned: worker ids still to place, each with degree > 0.
            log_weights: optional ``{worker_id: -ln(1 - p_j)}`` map for the
                numpy backend (e.g. gathered from packed slot slabs); read
                off the worker objects when omitted.

        Returns:
            The solver stats dict (rounds, exact evaluations, pruned count).
        """
        if self.backend == "numpy":
            return self._table_rounds(problem, evaluator, unassigned, log_weights)
        from repro.engine.profile import phase

        # The paper-faithful scalar loop.  Per-(task, worker) caches,
        # invalidated per task on assignment; pair profiles are memoised
        # by the problem itself.  Bounds and exact deltas both depend only
        # on the task's current worker set, so rounds that leave a task
        # untouched reuse everything.
        dstd_cache: Dict[int, Dict[int, float]] = {}
        bounds_cache: Dict[int, Dict[int, Tuple[float, float]]] = {}
        rounds = exact_evaluations = pruned = 0
        while unassigned:
            with phase("select"):
                min_two = evaluator.min_two_r()
                pairs: List[Tuple[int, int]] = [
                    (task_id, worker_id)
                    for worker_id in unassigned
                    for task_id in sorted(problem.candidate_tasks(worker_id))
                ]
            if not pairs:
                break

            chosen_pairs, n_exact, n_pruned = self._score_round(
                problem, evaluator, pairs, min_two, dstd_cache, bounds_cache
            )
            exact_evaluations += n_exact
            pruned += n_pruned

            with phase("select"):
                scores = [(dr, dd) for _, dr, dd in chosen_pairs]
                task_id, worker_id = chosen_pairs[best_index_by_dominance(scores)][0]
                evaluator.apply(task_id, worker_id)
                unassigned.remove(worker_id)
                dstd_cache.pop(task_id, None)
                bounds_cache.pop(task_id, None)
            rounds += 1
        return _stats(rounds, exact_evaluations, pruned)

    # ------------------------------------------------------------------ #
    # numpy backend: the resident candidate table
    # ------------------------------------------------------------------ #

    def _table_rounds(
        self,
        problem: RdbscProblem,
        evaluator: IncrementalEvaluator,
        unassigned: List[int],
        log_weights: Optional[Dict[int, float]],
    ) -> Dict[str, float]:
        """The round loop over a resident candidate table.

        Python iterates only over Lemma 4.3 survivors (ranking, exact
        block) and the committed task's live rows (bounds refill);
        everything per-candidate is array work on the table's columns.
        Bounds and exact values come from the solver's cross-solve memos
        first; only their misses are computed.
        """
        from repro.engine.profile import phase
        from repro.fastpath.kernels import batch_delta_min_r, lemma43_prune_order

        bounds_memo, estd_memo = self.bounds_memo, self.estd_memo
        bounds_memo.rotate()
        estd_memo.rotate()
        with phase("prune"):
            table = CandidateTable(problem, evaluator, unassigned, log_weights)

            def refill_bounds(rows: np.ndarray) -> None:
                """Section 4.3 bounds of one task's live ``rows``, at its state."""
                if not self.use_pruning or not rows.size:
                    return
                keys = table.memo_keys(rows)
                bounds = [bounds_memo.get(key) for key in keys]
                missing = [k for k, known in enumerate(bounds) if known is None]
                if missing:
                    task_id = int(table.task_ids[rows[0]])
                    computed = task_increase_bounds(
                        problem.tasks_by_id[task_id],
                        evaluator.state_of(task_id).profiles,
                        [table.profiles[rows[k]] for k in missing],
                    )
                    for k, known in zip(missing, computed):
                        bounds[k] = known
                        bounds_memo.put(keys[k], known)
                table.lb[rows], table.ub[rows] = np.array(bounds).T

            for index in range(table.tasks.shape[0]):
                refill_bounds(table.task_rows(index))
        rounds = exact_evaluations = pruned = 0
        while True:
            live = table.live()
            if not live.size:
                break
            with phase("delta_min_r"):
                of_task = table.task_index[live]
                dr = batch_delta_min_r(
                    table.task_r[of_task],
                    table.task_has[of_task],
                    table.weights[live],
                    *evaluator.min_two_r(),
                )
            rows = live
            if self.use_pruning:
                with phase("prune"):
                    order = lemma43_prune_order(dr, table.lb[live], table.ub[live])
                    dr = dr[order]
                    rows = live[order]
                pruned += int(live.size - rows.size)
            with phase("delta_estd"):
                # The known-mask is the slab-level mask: only rows it does
                # not cover enter the exact evaluation (memo hits count as
                # evaluations, so the stats match the reference loop's).
                block = rows[~table.known[rows]]
                if block.size:
                    keys = table.memo_keys(block)
                    after = np.array([estd_memo.get(key) for key in keys], dtype=float)
                    missing = np.flatnonzero(np.isnan(after))
                    if missing.size:
                        values = self._block_dstd(
                            problem, evaluator, table.pairs(block[missing])
                        )
                        after[missing] = values
                        for k, value in zip(missing.tolist(), after[missing].tolist()):
                            estd_memo.put(keys[k], value)
                    table.set_exact(block, after)
                    exact_evaluations += int(block.size)
            with phase("select"):
                scores = list(zip(dr.tolist(), table.dstd[rows].tolist()))
                row = int(rows[best_index_by_dominance(scores)])
                worker_id = int(table.worker_ids[row])
                evaluator.apply(
                    int(table.task_ids[row]), worker_id, new_estd=float(table.after[row])
                )
                unassigned.remove(worker_id)
                stale = table.commit(row, evaluator)
            with phase("prune"):
                refill_bounds(stale)
            rounds += 1
        return _stats(rounds, exact_evaluations, pruned)

    def _block_dstd(
        self,
        problem: RdbscProblem,
        evaluator: IncrementalEvaluator,
        pairs: List[Tuple[int, int]],
    ):
        """Exact post-commit ``E[STD]`` for a block of uncached candidates.

        One padded profile slab through one
        :func:`repro.fastpath.diversity.batch_expected_std` call —
        bitwise-equal to the scalar ``estd_after``.  Blocks below
        :data:`_MIN_BLOCK_DSTD` take the scalar loop instead: slab packing
        + kernel dispatch costs more than a handful of O(r^2) evaluations.
        """
        from repro.fastpath.diversity import batch_expected_std, pack_delta_slab

        if len(pairs) < _MIN_BLOCK_DSTD:
            return [evaluator.estd_after(t, w) for t, w in pairs]
        slab, _ = pack_delta_slab(problem, evaluator, pairs)
        return batch_expected_std(slab)

    # ------------------------------------------------------------------ #
    # python backend: scoring of the scalar reference loop
    # ------------------------------------------------------------------ #

    def _exact_dstd(
        self,
        evaluator: IncrementalEvaluator,
        dstd_cache: Dict[int, Dict[int, float]],
        task_id: int,
        worker_id: int,
    ) -> Tuple[float, bool]:
        """Cached exact diversity increase; returns (value, was_computed)."""
        per_task = dstd_cache.setdefault(task_id, {})
        cached = per_task.get(worker_id)
        if cached is not None:
            return cached, False
        value = evaluator.delta_estd(task_id, worker_id)
        per_task[worker_id] = value
        return value, True

    def _score_round(
        self,
        problem: RdbscProblem,
        evaluator: IncrementalEvaluator,
        pairs: List[Tuple[int, int]],
        min_two: Tuple[float, float],
        dstd_cache: Dict[int, Dict[int, float]],
        bounds_cache: Dict[int, Dict[int, Tuple[float, float]]],
    ) -> Tuple[List[Tuple[Tuple[int, int], float, float]], int, int]:
        """Score candidate pairs, optionally pruning with Section 4.3 bounds.

        Returns ``(scored pairs, exact evaluations, pruned count)`` where
        each scored pair is ``((task_id, worker_id), delta_min_r, dstd)``.
        """
        from repro.engine.profile import phase

        exact = 0
        if not self.use_pruning:
            # The scalar loop interleaves Δmin_R and ΔE[STD] per pair;
            # the exact diversity reduction dominates, so the whole loop
            # is attributed to the delta_estd phase.
            with phase("delta_estd"):
                out = []
                for task_id, worker_id in pairs:
                    dr = evaluator.delta_min_r(task_id, worker_id, min_two)
                    dd, computed = self._exact_dstd(
                        evaluator, dstd_cache, task_id, worker_id
                    )
                    exact += computed
                    out.append(((task_id, worker_id), dr, dd))
            return out, exact, 0

        with phase("prune"):
            bounded: List[CandidateBounds] = []
            for task_id, worker_id in pairs:
                dr = evaluator.delta_min_r(task_id, worker_id, min_two)
                cached = dstd_cache.get(task_id, {}).get(worker_id)
                if cached is not None:
                    lb = ub = cached
                else:
                    per_task_bounds = bounds_cache.setdefault(task_id, {})
                    known = per_task_bounds.get(worker_id)
                    if known is None:
                        task = problem.tasks_by_id[task_id]
                        state = evaluator.state_of(task_id)
                        new_profile = problem.pair_profile(task_id, worker_id)
                        known = diversity_increase_bounds(
                            task, state.profiles, new_profile
                        )
                        per_task_bounds[worker_id] = known
                    lb, ub = known
                bounded.append(CandidateBounds(task_id, worker_id, dr, lb, ub))

            survivors = prune_candidates(bounded)
        n_pruned = len(bounded) - len(survivors)
        with phase("delta_estd"):
            out = []
            for cand in survivors:
                dd, computed = self._exact_dstd(
                    evaluator, dstd_cache, cand.task_id, cand.worker_id
                )
                exact += computed
                out.append(((cand.task_id, cand.worker_id), cand.delta_min_r, dd))
        return out, exact, n_pruned
