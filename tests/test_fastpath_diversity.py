"""The batched exact ΔE[STD] kernels: bitwise differential + property suite.

Three layers of evidence pin :mod:`repro.fastpath.diversity` to the scalar
Lemma 3.1 reductions:

* **Brute force** — on ≤4-worker random instances, ``expected_std`` agrees
  with the possible-world oracle ``exact_expected_std`` to float precision
  and the batched kernel equals *both* (bitwise against the reduction).
* **Row-wise bitwise** — seeded adversarial slabs (duplicate angles,
  boundary arrivals, certain/hopeless workers, ragged row counts, β at the
  endpoints) where every batched SD / TD / E[STD] value must carry the
  exact bits of the per-row scalar call, signed zeros included.
* **Block ΔE[STD]** — :func:`repro.fastpath.batch_delta_estd` against
  :meth:`~repro.core.objectives.IncrementalEvaluator.delta_estd` pair by
  pair on partially filled evaluators, and greedy plans across backends
  and pruning flags (the heavier sweeps carry the ``churn`` marker, like
  the other differential suites).

The epoch phase profiler (:mod:`repro.engine.profile`) is unit-tested here
too — it ships in the same PR and the greedy fast path reports into it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedySolver
from repro.core.diversity import WorkerProfile
from repro.core.expected import (
    expected_spatial_diversity,
    expected_std,
    expected_temporal_diversity,
)
from repro.core.objectives import IncrementalEvaluator
from repro.core.possible_worlds import exact_expected_std
from repro.datagen import ExperimentConfig, generate_problem
from repro.engine.profile import PHASES, PhaseProfiler, activated, phase
from repro.fastpath import (
    DiversitySlab,
    batch_delta_estd,
    batch_expected_spatial_diversity,
    batch_expected_std,
    batch_expected_temporal_diversity,
    pack_delta_slab,
)
from repro.fastpath.diversity import _entropy_terms
from repro.geometry.angles import TWO_PI
from tests.conftest import make_task

probs = st.floats(min_value=0.0, max_value=1.0)
angles = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)
times = st.floats(min_value=0.0, max_value=10.0)


@st.composite
def diversity_instances(draw, max_workers=4):
    r = draw(st.integers(min_value=0, max_value=max_workers))
    return (
        [draw(angles) for _ in range(r)],
        [draw(times) for _ in range(r)],
        [draw(probs) for _ in range(r)],
    )


def same_bits(a: float, b: float) -> bool:
    """Exact equality including the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def slab_from_rows(rows, max_r=None):
    """Pad a list of (beta, start, end, angles, arrivals, ps) into a slab."""
    num_rows = len(rows)
    if max_r is None:
        max_r = max([1] + [len(row[3]) for row in rows])
    out = DiversitySlab(
        betas=np.zeros(num_rows),
        starts=np.zeros(num_rows),
        ends=np.zeros(num_rows),
        counts=np.zeros(num_rows, dtype=np.int64),
        angles=np.zeros((num_rows, max_r)),
        arrivals=np.zeros((num_rows, max_r)),
        confidences=np.zeros((num_rows, max_r)),
    )
    for b, (beta, start, end, angle_list, arrivals, ps) in enumerate(rows):
        r = len(angle_list)
        out.betas[b] = beta
        out.starts[b] = start
        out.ends[b] = end
        out.counts[b] = r
        out.angles[b, :r] = angle_list
        out.arrivals[b, :r] = arrivals
        out.confidences[b, :r] = ps
    return out


def random_rows(seed, num_rows, max_r=9):
    """Adversarial random rows: duplicates, boundaries, certainty spikes."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(num_rows):
        r = int(rng.integers(0, max_r + 1))
        angle_list = rng.uniform(0.0, TWO_PI, size=r)
        arrivals = rng.uniform(0.0, 10.0, size=r)
        ps = rng.uniform(0.0, 1.0, size=r)
        if r >= 2 and rng.random() < 0.4:
            angle_list[1] = angle_list[0]  # duplicate angle, sort ties
        if r >= 1 and rng.random() < 0.4:
            arrivals[0] = [0.0, 10.0][int(rng.integers(0, 2))]  # window edge
        if r >= 1 and rng.random() < 0.3:
            ps[0] = [0.0, 1.0][int(rng.integers(0, 2))]  # certain / hopeless
        beta = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        start = float(rng.uniform(0.0, 2.0))
        end = start + float(rng.choice([0.0, rng.uniform(0.1, 9.0)]))
        rows.append((beta, start, end, list(angle_list), list(arrivals), list(ps)))
    return rows


# --------------------------------------------------------------------- #
# Row-wise bitwise equality with the scalar reductions
# --------------------------------------------------------------------- #


class TestRowwiseBitwise:
    @pytest.mark.parametrize("seed", range(4))
    def test_spatial_rows_bitwise(self, seed):
        rows = random_rows(seed, 80)
        slab = slab_from_rows(rows)
        batched = batch_expected_spatial_diversity(
            slab.angles, slab.confidences, slab.counts
        )
        for b, (_, _, _, angle_list, _, ps) in enumerate(rows):
            assert same_bits(batched[b], expected_spatial_diversity(angle_list, ps))

    @pytest.mark.parametrize("seed", range(4))
    def test_temporal_rows_bitwise(self, seed):
        rows = random_rows(seed, 80)
        slab = slab_from_rows(rows)
        batched = batch_expected_temporal_diversity(
            slab.arrivals, slab.confidences, slab.starts, slab.ends, slab.counts
        )
        for b, (_, start, end, _, arrivals, ps) in enumerate(rows):
            scalar = expected_temporal_diversity(arrivals, ps, start, end)
            assert same_bits(batched[b], scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_std_rows_bitwise(self, seed):
        rows = random_rows(seed, 80)
        slab = slab_from_rows(rows)
        batched = batch_expected_std(slab)
        for b, (beta, start, end, angle_list, arrivals, ps) in enumerate(rows):
            task = make_task(start=start, end=end, beta=beta)
            profiles = [
                WorkerProfile(i, angle_list[i], arrivals[i], ps[i])
                for i in range(len(ps))
            ]
            assert same_bits(batched[b], expected_std(task, profiles))

    def test_empty_slab(self):
        slab = slab_from_rows([])
        assert batch_expected_std(slab).shape == (0,)

    def test_arrival_outside_window_clamps(self):
        # The scalar clamps arrivals into [start, end]; so must the slab.
        rows = [(0.25, 2.0, 5.0, [0.0, 3.0], [0.5, 9.5], [0.7, 0.6])]
        slab = slab_from_rows(rows)
        task = make_task(start=2.0, end=5.0, beta=0.25)
        profiles = [WorkerProfile(0, 0.0, 0.5, 0.7), WorkerProfile(1, 3.0, 9.5, 0.6)]
        assert same_bits(batch_expected_std(slab)[0], expected_std(task, profiles))


# --------------------------------------------------------------------- #
# Property: reduction == possible-world brute force == batched kernel
# --------------------------------------------------------------------- #


class TestBruteForceOracle:
    @settings(max_examples=80, deadline=None)
    @given(diversity_instances(max_workers=4), st.floats(min_value=0.0, max_value=1.0))
    def test_small_instances_match_enumeration(self, instance, beta):
        angle_list, arrivals, ps = instance
        task = make_task(start=0.0, end=10.0, beta=beta)
        profiles = [
            WorkerProfile(i, angle_list[i], arrivals[i], ps[i])
            for i in range(len(ps))
        ]
        scalar = expected_std(task, profiles)
        brute = exact_expected_std(task, profiles)
        slab = slab_from_rows([(beta, 0.0, 10.0, angle_list, arrivals, ps)])
        batched = float(batch_expected_std(slab)[0])
        # Matrix reduction vs enumeration: float-precision agreement.
        assert scalar == pytest.approx(brute, abs=1e-10)
        # Batched kernel vs the reduction: exact bits, so it inherits the
        # oracle agreement transitively.
        assert same_bits(batched, scalar)


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #


class TestValidation:
    def test_invalid_beta_raises(self):
        rows = [(0.5, 0.0, 10.0, [1.0], [1.0], [0.5])]
        slab = slab_from_rows(rows)
        slab.betas[0] = 1.5
        with pytest.raises(ValueError, match="beta must be within"):
            batch_expected_std(slab)
        slab.betas[0] = -0.1
        with pytest.raises(ValueError, match="beta must be within"):
            batch_expected_std(slab)

    def test_out_of_range_fraction_raises(self):
        with pytest.raises(ValueError, match="fraction must be within"):
            _entropy_terms(np.array([0.25, 1.1]))
        with pytest.raises(ValueError, match="fraction must be within"):
            _entropy_terms(np.array([-1e-3]))

    def test_entropy_terms_branches(self):
        values = np.array([0.0, 1e-16, 0.5, 1.0, 1.0 + 1e-10])
        terms = _entropy_terms(values)
        assert terms[0] == 0.0 and terms[1] == 0.0  # below _ZERO
        assert same_bits(terms[2], -0.5 * math.log(0.5))
        assert terms[3] == 0.0 and terms[4] == 0.0  # at/above one


# --------------------------------------------------------------------- #
# Block ΔE[STD] vs the incremental evaluator
# --------------------------------------------------------------------- #


class TestBatchDeltaEstd:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_evaluator_pair_by_pair(self, seed):
        problem = generate_problem(
            ExperimentConfig.scaled_defaults(num_tasks=8, num_workers=20), seed
        )
        evaluator = IncrementalEvaluator(problem)
        # Partially fill so rows cover empty tasks, deep tasks, repeats.
        rng = np.random.default_rng(seed)
        for worker in problem.workers[::3]:
            tasks = problem.candidate_tasks(worker.worker_id)
            if tasks:
                evaluator.apply(
                    tasks[int(rng.integers(0, len(tasks)))], worker.worker_id
                )
        pairs = [
            (task_id, worker.worker_id)
            for worker in problem.workers
            for task_id in problem.candidate_tasks(worker.worker_id)
        ]
        if not pairs:
            pytest.skip("degenerate instance with no valid pairs")
        batched = batch_delta_estd(problem, evaluator, pairs)
        for k, (task_id, worker_id) in enumerate(pairs):
            assert same_bits(batched[k], evaluator.delta_estd(task_id, worker_id))

    def test_pack_appends_candidate_profile_last(self):
        problem = generate_problem(
            ExperimentConfig.scaled_defaults(num_tasks=4, num_workers=10), 0
        )
        pairs = [
            (task_id, worker.worker_id)
            for worker in problem.workers
            for task_id in problem.candidate_tasks(worker.worker_id)
        ]
        if not pairs:
            pytest.skip("degenerate instance with no valid pairs")
        evaluator = IncrementalEvaluator(problem)
        slab, old_estd = pack_delta_slab(problem, evaluator, pairs)
        assert len(slab) == len(pairs)
        assert np.all(old_estd == 0.0)  # empty evaluator
        for k, (task_id, worker_id) in enumerate(pairs):
            profile = problem.pair_profile(task_id, worker_id)
            r = int(slab.counts[k]) - 1
            assert slab.angles[k, r] == profile.angle
            assert slab.arrivals[k, r] == profile.arrival
            assert slab.confidences[k, r] == profile.confidence

    def test_slab_take_preserves_rows(self):
        rows = random_rows(7, 20)
        slab = slab_from_rows(rows)
        sub = slab.take(np.array([3, 11, 3]))
        full = batch_expected_std(slab)
        assert np.array_equal(batch_expected_std(sub), full[[3, 11, 3]])


# --------------------------------------------------------------------- #
# Greedy plans: backends, pruning
# --------------------------------------------------------------------- #


def plan_key(result):
    return (sorted(result.assignment.pairs()), result.objective)


@pytest.mark.churn
class TestGreedyBlockScoring:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("use_pruning", [False, True])
    def test_backends_identical_plans(self, seed, use_pruning):
        config = ExperimentConfig.scaled_defaults(num_tasks=12, num_workers=36)
        py = GreedySolver(use_pruning=use_pruning, backend="python").solve(
            generate_problem(config, seed)
        )
        np_ = GreedySolver(use_pruning=use_pruning, backend="numpy").solve(
            generate_problem(config, seed, backend="numpy")
        )
        assert plan_key(py) == plan_key(np_)
        assert py.stats == np_.stats


# --------------------------------------------------------------------- #
# Phase profiler
# --------------------------------------------------------------------- #


class TestPhaseProfiler:
    def test_phase_accumulates_and_take_resets(self):
        profiler = PhaseProfiler()
        with profiler.phase("prune"):
            pass
        profiler.add("merge", 0.25)
        profiler.add("merge", 0.5)
        pending = profiler.pending()
        assert pending["merge"] == 0.75
        assert pending["prune"] >= 0.0
        snapshot = profiler.take()
        assert snapshot == pending
        assert profiler.take() == {}

    def test_module_phase_is_noop_when_inactive(self):
        with phase("delta_estd"):
            pass  # must not raise, and records nowhere

    def test_activated_routes_module_phases(self):
        profiler = PhaseProfiler()
        with activated(profiler):
            with phase("delta_estd"):
                pass
        assert "delta_estd" in profiler.pending()
        with phase("delta_estd"):
            pass  # deactivated again: no further accumulation
        assert profiler.pending() == profiler.take()

    def test_activated_stack_innermost_wins(self):
        outer, inner = PhaseProfiler(), PhaseProfiler()
        with activated(outer):
            with activated(inner):
                with phase("merge"):
                    pass
            with phase("route"):
                pass
        assert "merge" in inner.pending() and "merge" not in outer.pending()
        assert "route" in outer.pending() and "route" not in inner.pending()

    def test_phase_names_are_the_engine_vocabulary(self):
        assert PHASES == (
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
