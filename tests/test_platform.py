"""Tests for the gMission-style platform simulator and its pieces."""

import math

import pytest

from repro.algorithms import GreedySolver, SamplingSolver
from repro.geometry.points import Point
from repro.platform_sim import (
    PlatformConfig,
    PlatformSimulator,
    answer_accuracy,
    answer_error,
    bootstrap_reliabilities,
)
from repro.platform_sim.accuracy import task_accuracy
from repro.platform_sim.events import WorkerRuntime, WorkerStatus
from repro.platform_sim.ratings import rate_photo
from tests.conftest import make_worker


class TestRatings:
    def test_rate_photo_within_scale(self):
        score = rate_photo(7.0, n_raters=5, rng=0)
        assert 0.0 <= score <= 10.0

    def test_rate_photo_tracks_quality(self):
        lows = [rate_photo(2.0, 6, rng=i) for i in range(20)]
        highs = [rate_photo(9.0, 6, rng=i) for i in range(20)]
        assert sum(highs) / 20 > sum(lows) / 20

    def test_rate_photo_needs_rater(self):
        with pytest.raises(ValueError):
            rate_photo(5.0, 0)

    def test_bootstrap_reliabilities_range(self):
        ps = bootstrap_reliabilities(30, rng=1)
        assert len(ps) == 30
        assert all(0.5 <= p <= 1.0 for p in ps)

    def test_bootstrap_deterministic(self):
        assert bootstrap_reliabilities(10, rng=3) == bootstrap_reliabilities(10, rng=3)

    def test_bootstrap_negative_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_reliabilities(-1)


class TestAccuracy:
    def test_perfect_answer(self):
        assert answer_error(0.0, 0.0, beta=0.5, period=10.0) == 0.0
        assert answer_accuracy(0.0, 0.0, beta=0.5, period=10.0) == 1.0

    def test_worst_angle(self):
        assert answer_error(math.pi, 0.0, beta=1.0, period=10.0) == pytest.approx(1.0)

    def test_beta_blend(self):
        value = answer_error(math.pi / 2, 5.0, beta=0.4, period=10.0)
        assert value == pytest.approx(0.4 * 0.5 + 0.6 * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            answer_error(4.0, 0.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            answer_error(0.0, 11.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            answer_error(0.0, 0.0, 1.5, 10.0)
        with pytest.raises(ValueError):
            answer_error(0.0, 0.0, 0.5, 0.0)

    def test_task_accuracy_mean(self):
        assert task_accuracy([0.8, 0.6]) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            task_accuracy([])


class TestWorkerRuntime:
    def test_dispatch_and_complete(self):
        runtime = WorkerRuntime(make_worker(0, x=0.1, y=0.1))
        runtime.dispatch(task_id=3, arrival_time=2.0)
        assert runtime.status is WorkerStatus.TRAVELLING
        with pytest.raises(ValueError):
            runtime.dispatch(4, 3.0)
        runtime.complete_trip(Point(0.5, 0.5), now=2.5)
        assert runtime.status is WorkerStatus.AVAILABLE
        assert runtime.worker.location == Point(0.5, 0.5)
        assert runtime.worker.depart_time == 2.5

    def test_complete_without_trip_raises(self):
        runtime = WorkerRuntime(make_worker(0))
        with pytest.raises(ValueError):
            runtime.complete_trip(Point(0, 0), 0.0)


class TestPlatformConfig:
    def test_site_geometry(self):
        config = PlatformConfig(n_sites=5)
        sites = config.site_locations()
        assert len(sites) == 5
        centre = Point(0.5, 0.5)
        for site in sites:
            assert site.distance_to(centre) == pytest.approx(config.site_radius)

    def test_worker_speed_two_minute_walk(self):
        config = PlatformConfig()
        edge = 2.0 * config.site_radius * math.sin(math.pi / config.n_sites)
        assert config.worker_speed() == pytest.approx(edge / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PlatformConfig(n_workers=0)
        with pytest.raises(ValueError):
            PlatformConfig(t_interval=0.0)
        with pytest.raises(ValueError):
            PlatformConfig(task_open_minutes=0.0)


class TestSimulatorRuns:
    def test_run_produces_activity(self):
        simulator = PlatformSimulator(PlatformConfig(sim_minutes=20, t_interval=2.0))
        result = simulator.run(SamplingSolver(num_samples=15), rng=3)
        assert result.tasks_spawned > 0
        assert result.dispatches > 0
        assert result.tasks_dispatched > 0
        assert result.total_std > 0.0
        assert 0.0 < result.min_reliability <= 1.0

    def test_deterministic_given_seed(self):
        simulator = PlatformSimulator(PlatformConfig(sim_minutes=15, t_interval=2.0))
        a = simulator.run(SamplingSolver(num_samples=10), rng=7)
        b = simulator.run(SamplingSolver(num_samples=10), rng=7)
        assert a.total_std == pytest.approx(b.total_std)
        assert a.dispatches == b.dispatches

    def test_success_rate_reflects_confidences(self):
        simulator = PlatformSimulator(PlatformConfig(sim_minutes=25, t_interval=1.0))
        result = simulator.run(SamplingSolver(num_samples=10), rng=5)
        # Bootstrapped reliabilities live in [0.5, 1]; the realised success
        # rate should land in a sane band around them.
        assert 0.3 <= result.success_rate <= 1.0

    def test_no_worker_answers_same_task_twice(self):
        simulator = PlatformSimulator(PlatformConfig(sim_minutes=25, t_interval=1.0))
        result = simulator.run(SamplingSolver(num_samples=10), rng=9)
        seen = set()
        for answer in result.answers:
            key = (answer.worker_id, answer.task_id)
            assert key not in seen
            seen.add(key)


class TestWarmModeDispatchChurn:
    """Dispatch holds workers in place, so warm mode genuinely engages.

    Before the hold/release dispatch path, every dispatch removed its
    worker and every trip completion re-added one, so warm-mode
    deployments fell back to full solves almost every epoch (the old
    ROADMAP item).  Now a dispatched worker is held (plan fulfilment, not
    churn), released with one in-place update — warm repair must carry
    most epochs at the default threshold, without costing quality.
    """

    def _run(self, mode):
        simulator = PlatformSimulator(
            PlatformConfig(sim_minutes=40.0), solve_mode=mode
        )
        return simulator.run(GreedySolver(), rng=11)

    def test_warm_mode_carries_most_epochs(self):
        result = self._run("warm")
        metrics = result.engine_metrics
        assert metrics.warm_solves > metrics.full_solves
        assert metrics.events["worker_hold"] == result.dispatches
        assert metrics.events["worker_release"] == len(result.answers)

    def test_warm_quality_matches_full_on_the_same_seed(self):
        full = self._run("full")
        warm = self._run("warm")
        assert full.engine_metrics.warm_solves == 0
        assert warm.dispatches == pytest.approx(full.dispatches, abs=0.1 * full.dispatches)
        assert warm.min_reliability == pytest.approx(full.min_reliability, abs=0.05)
        assert warm.total_std == pytest.approx(full.total_std, rel=0.15)

    def test_dispatched_worker_stays_registered_while_held(self):
        simulator = PlatformSimulator(PlatformConfig(sim_minutes=6.0))
        config = simulator.config
        result = simulator.run(GreedySolver(), rng=3)
        # Every dispatch kept the worker count constant: nobody was
        # removed, so the engine ends with the full workforce registered.
        assert result.engine_metrics.events.get("worker_leave", 0) == 0
        assert result.engine_metrics.events["worker_arrive"] == config.n_workers
