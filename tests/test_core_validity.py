"""Unit tests for the pair-validity rule (Definition 4, constraint 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validity import ValidityRule
from repro.geometry.angles import AngleInterval, bearing
from repro.geometry.points import Point
from tests.conftest import make_task, make_worker


class TestStrictValidity:
    def test_reachable_pair_is_valid(self):
        # Distance 0.5 at speed 0.5 -> arrival at t=1, inside [0, 10].
        task = make_task(x=0.5, y=0.0, start=0.0, end=10.0)
        worker = make_worker(x=0.0, y=0.0, velocity=0.5)
        rule = ValidityRule()
        assert rule.is_valid(worker, task)
        assert rule.effective_arrival(worker, task) == pytest.approx(1.0)

    def test_too_slow_misses_deadline(self):
        task = make_task(x=1.0, y=0.0, start=0.0, end=1.0)
        worker = make_worker(x=0.0, y=0.0, velocity=0.5)  # arrives at t=2
        assert not ValidityRule().is_valid(worker, task)

    def test_arrival_before_start_invalid_when_strict(self):
        task = make_task(x=0.1, y=0.0, start=5.0, end=10.0)
        worker = make_worker(x=0.0, y=0.0, velocity=1.0)  # arrives at t=0.1
        assert not ValidityRule(allow_waiting=False).is_valid(worker, task)

    def test_arrival_exactly_at_start_valid(self):
        task = make_task(x=1.0, y=0.0, start=1.0, end=2.0)
        worker = make_worker(x=0.0, y=0.0, velocity=1.0)
        assert ValidityRule().effective_arrival(worker, task) == pytest.approx(1.0)

    def test_arrival_exactly_at_end_valid(self):
        task = make_task(x=2.0, y=0.0, start=0.0, end=2.0)
        worker = make_worker(x=0.0, y=0.0, velocity=1.0)
        assert ValidityRule().is_valid(worker, task)

    def test_direction_cone_blocks(self):
        # Task due west; worker only accepts eastward tasks.
        task = make_task(x=-1.0, y=0.0, start=0.0, end=10.0)
        worker = make_worker(x=0.0, y=0.0, cone=AngleInterval(0.0, math.pi / 4))
        assert not ValidityRule().is_valid(worker, task)

    def test_stationary_worker_remote_task_invalid(self):
        task = make_task(x=1.0, y=0.0)
        worker = make_worker(velocity=0.0)
        assert not ValidityRule().is_valid(worker, task)

    def test_stationary_worker_colocated_task_valid(self):
        task = make_task(x=0.0, y=0.0, start=0.0, end=1.0)
        worker = make_worker(x=0.0, y=0.0, velocity=0.0)
        assert ValidityRule().effective_arrival(worker, task) == pytest.approx(0.0)

    def test_depart_time_shifts_arrival(self):
        task = make_task(x=1.0, y=0.0, start=0.0, end=2.0)
        late_worker = make_worker(x=0.0, y=0.0, velocity=1.0, depart_time=1.5)
        # Arrives at 2.5 > end.
        assert not ValidityRule().is_valid(late_worker, task)


class TestWaitingValidity:
    def test_early_arrival_waits_until_start(self):
        task = make_task(x=0.1, y=0.0, start=5.0, end=10.0)
        worker = make_worker(x=0.0, y=0.0, velocity=1.0)
        rule = ValidityRule(allow_waiting=True)
        assert rule.effective_arrival(worker, task) == pytest.approx(5.0)

    def test_waiting_does_not_rescue_missed_deadline(self):
        task = make_task(x=5.0, y=0.0, start=0.0, end=1.0)
        worker = make_worker(x=0.0, y=0.0, velocity=1.0)  # arrives at t=5
        assert not ValidityRule(allow_waiting=True).is_valid(worker, task)

    def test_waiting_respects_direction_cone(self):
        task = make_task(x=-1.0, y=0.0, start=5.0, end=10.0)
        worker = make_worker(x=0.0, y=0.0, cone=AngleInterval(0.0, 0.5))
        assert not ValidityRule(allow_waiting=True).is_valid(worker, task)


def cone_first_arrival(rule, worker, task):
    """The rule as the plain composition of the entity predicates.

    Direction cone first, then the worker's arrival time, the waiting
    adjustment and the task's valid period: the order
    ``ValidityRule.effective_arrival`` reorders for speed.
    """
    if not worker.heads_towards(task.location):
        return None
    arrival = worker.arrival_time_at(task.location)
    if math.isinf(arrival):
        return None
    if rule.allow_waiting and arrival < task.start:
        arrival = task.start
    if not task.contains_arrival(arrival):
        return None
    return arrival


coords = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rule_cases(draw):
    """A (rule, worker, task) triple that often sits on a boundary.

    Locations come from a small lattice often enough to coincide; speeds
    include zero and subnormals, departures a negative zero; the cone's
    edge may be pinned to the
    exact bearing of the task; and the window's start or end may be
    pinned to the exact arrival time (or a neighbouring float).
    """
    wx, wy, tx, ty = (draw(coords) for _ in range(4))
    velocity = draw(
        st.one_of(st.just(0.0), st.just(5e-324), st.floats(0.0, 2.0))
    )
    depart = draw(st.one_of(st.just(-0.0), st.floats(0.0, 3.0)))
    width = draw(st.floats(0.0, 2 * math.pi))
    lo = draw(st.floats(0.0, 2 * math.pi))
    edge = draw(st.sampled_from(["free", "lo", "hi", "full"]))
    if (wx, wy) != (tx, ty) and edge in ("lo", "hi"):
        toward = bearing(Point(wx, wy), Point(tx, ty))
        lo = toward if edge == "lo" else toward - width
    cone = AngleInterval.full_circle() if edge == "full" else AngleInterval(lo, width)
    worker = make_worker(
        x=wx, y=wy, velocity=velocity, cone=cone, depart_time=depart
    )
    arrival = worker.arrival_time_at(Point(tx, ty))
    start = draw(st.floats(0.0, 6.0))
    end = start + draw(st.floats(0.0, 4.0))
    pin = draw(st.sampled_from(["free", "start", "end"]))
    if pin != "free" and math.isfinite(arrival):
        nudged = draw(
            st.sampled_from(
                [arrival, math.nextafter(arrival, -math.inf),
                 math.nextafter(arrival, math.inf)]
            )
        )
        start, end = (nudged, max(nudged, end)) if pin == "start" else (
            min(start, nudged), nudged
        )
    task = make_task(x=tx, y=ty, start=start, end=end)
    return ValidityRule(allow_waiting=draw(st.booleans())), worker, task


@settings(max_examples=600, deadline=None)
@given(case=rule_cases())
def test_time_first_order_equals_cone_first_composition(case):
    rule, worker, task = case
    got = rule.effective_arrival(worker, task)
    want = cone_first_arrival(rule, worker, task)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.hex() == want.hex()
    assert rule.is_valid(worker, task) == (want is not None)
