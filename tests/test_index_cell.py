"""Tests for grid cells and their aggregate bounds."""

import math

import pytest

from repro.geometry.angles import AngleInterval
from repro.geometry.points import Point
from repro.index.cell import GridCell, _widen
from tests.conftest import make_task, make_worker


def cell_at(row=0, col=0, side=0.25):
    return GridCell(row * 4 + col, row, col, Point(col * side, row * side), side)


class TestGeometry:
    def test_corners(self):
        cell = cell_at(0, 0, 0.25)
        assert set(cell.corners()) == {
            Point(0.0, 0.0),
            Point(0.25, 0.0),
            Point(0.0, 0.25),
            Point(0.25, 0.25),
        }

    def test_min_distance_adjacent_zero(self):
        a, b = cell_at(0, 0), cell_at(0, 1)
        assert a.min_distance_to(b) == 0.0

    def test_min_distance_with_gap(self):
        a, b = cell_at(0, 0), cell_at(0, 2)
        assert a.min_distance_to(b) == pytest.approx(0.25)

    def test_min_distance_diagonal(self):
        a, b = cell_at(0, 0), cell_at(2, 2)
        assert a.min_distance_to(b) == pytest.approx(0.25 * math.sqrt(2.0))

    def test_max_distance(self):
        a, b = cell_at(0, 0), cell_at(0, 1)
        assert a.max_distance_to(b) == pytest.approx(math.hypot(0.5, 0.25))

    def test_min_distance_symmetry(self):
        a, b = cell_at(1, 0), cell_at(3, 2)
        assert a.min_distance_to(b) == pytest.approx(b.min_distance_to(a))


class TestAggregates:
    def test_empty_cell_defaults(self):
        cell = cell_at()
        assert cell.v_max == 0.0
        assert cell.depart_min == math.inf
        assert cell.e_max == -math.inf
        assert cell.s_min == math.inf
        assert cell.cone_union is None
        assert cell.is_empty

    def test_last_resident_leaving_resets_its_side(self):
        cell = cell_at()
        cell.add_worker(make_worker(0, velocity=0.4, cone=AngleInterval(0.0, 0.5)))
        cell.add_task(make_task(0, start=1.0, end=5.0))
        cell.remove_worker(0)
        assert cell.v_max == 0.0
        assert cell.depart_min == math.inf
        assert cell.cone_union is None
        assert (cell.e_max, cell.s_min) == (5.0, 1.0)
        cell.remove_task(0)
        assert cell.e_max == -math.inf
        assert cell.s_min == math.inf
        assert cell.is_empty

    def test_task_bounds(self):
        cell = cell_at()
        cell.add_task(make_task(0, start=2.0, end=5.0))
        cell.add_task(make_task(1, start=1.0, end=9.0))
        assert cell.s_min == 1.0
        assert cell.e_max == 9.0

    def test_worker_bounds(self):
        cell = cell_at()
        cell.add_worker(make_worker(0, velocity=0.2))
        cell.add_worker(make_worker(1, velocity=0.7))
        assert cell.v_max == pytest.approx(0.7)

    def test_removal_refreshes_aggregates(self):
        cell = cell_at()
        cell.add_worker(make_worker(0, velocity=0.2))
        cell.add_worker(make_worker(1, velocity=0.7))
        cell.remove_worker(1)
        assert cell.v_max == pytest.approx(0.2)
        cell.add_task(make_task(0, start=0.0, end=5.0))
        cell.add_task(make_task(1, start=0.0, end=9.0))
        cell.remove_task(1)
        assert cell.e_max == 5.0

    def test_cone_union_grows(self):
        cell = cell_at()
        cell.add_worker(make_worker(0, cone=AngleInterval(0.0, 0.5)))
        cell.add_worker(make_worker(1, cone=AngleInterval(1.0, 0.5)))
        union = cell.cone_union
        assert union.contains(0.2)
        assert union.contains(1.2)

    def test_cone_union_full_when_workers_cover_circle(self):
        cell = cell_at()
        cell.add_worker(make_worker(0, cone=AngleInterval(0.0, math.pi)))
        cell.add_worker(make_worker(1, cone=AngleInterval(math.pi, math.pi)))
        assert cell.cone_union.is_full()

    def test_stale_flag_splits_by_side(self, monkeypatch):
        """Only a cone_union read pays the cone sweep (and all stay exact)."""
        import repro.index.cell as cell_module

        cell = cell_at()
        for worker_id in range(4):
            cell.add_worker(
                make_worker(
                    worker_id,
                    velocity=0.1 * (worker_id + 1),
                    cone=AngleInterval(0.4 * worker_id, 0.3),
                    depart_time=2.0 - 0.25 * worker_id,
                )
            )
        for task_id in range(3):
            cell.add_task(make_task(task_id, start=1.0 + task_id, end=5.0 + task_id))

        widen_calls = []
        real_widen = cell_module._widen

        def counting_widen(current, addition):
            widen_calls.append(addition)
            return real_widen(current, addition)

        monkeypatch.setattr(cell_module, "_widen", counting_widen)

        cell.remove_task(2)
        assert cell.e_max == 6.0
        assert widen_calls == []
        cell.replace_worker(
            make_worker(3, velocity=0.05, cone=AngleInterval(0.1, 0.2), depart_time=3.0)
        )
        assert cell.e_max == 6.0 and cell.s_min == 1.0
        assert widen_calls == []
        # The scalar worker aggregates refresh without folding any cone ...
        assert cell.v_max == pytest.approx(0.3)
        assert cell.depart_min == 1.5
        assert widen_calls == []
        # ... which the first cone_union read does — once.
        cell.cone_union
        assert len(widen_calls) == len(cell.workers)
        cell.cone_union
        assert len(widen_calls) == len(cell.workers)

        monkeypatch.undo()
        fresh = cell_at()
        for worker in cell.workers.values():
            fresh.add_worker(worker)
        for task in cell.tasks.values():
            fresh.add_task(task)
        assert (
            cell.v_max, cell.depart_min, cell.e_max, cell.s_min, cell.cone_union
        ) == (
            fresh.v_max,
            fresh.depart_min,
            fresh.e_max,
            fresh.s_min,
            fresh.cone_union,
        )


class TestWiden:
    def test_none_base(self):
        cone = AngleInterval(1.0, 0.5)
        assert _widen(None, cone) == cone

    def test_contained_addition_no_change(self):
        base = AngleInterval(0.0, 2.0)
        addition = AngleInterval(0.5, 0.5)
        assert _widen(base, addition) == base

    def test_disjoint_intervals_bridged(self):
        a = AngleInterval(0.0, 0.5)
        b = AngleInterval(2.0, 0.5)
        union = _widen(a, b)
        for theta in (0.0, 0.4, 2.0, 2.4):
            assert union.contains(theta)

    def test_result_always_superset(self):
        import itertools

        candidates = [
            AngleInterval(lo, width)
            for lo, width in itertools.product((0.0, 1.5, 4.0), (0.3, 2.0, 5.0))
        ]
        for a, b in itertools.product(candidates, candidates):
            union = _widen(a, b)
            for theta in (a.lo, a.hi, b.lo, b.hi):
                assert union.contains(theta)
