"""Unit and property tests for the dominance/skyline substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline.dominance import (
    _VECTOR_RANK_MIN,
    _dominance_matrix,
    EPS,
    best_index_by_dominance,
    dominance_counts,
    dominates_tuple,
    skyline_indices,
)

scores = st.tuples(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
score_lists = st.lists(scores, min_size=1, max_size=30)


def brute_force_skyline(points):
    return [
        i
        for i, p in enumerate(points)
        if not any(dominates_tuple(q, p) for j, q in enumerate(points) if j != i)
    ]


class TestDominatesTuple:
    def test_strict_both(self):
        assert dominates_tuple((2.0, 2.0), (1.0, 1.0))

    def test_one_coordinate_tie(self):
        assert dominates_tuple((2.0, 1.0), (1.0, 1.0))

    def test_equal_not_dominating(self):
        assert not dominates_tuple((1.0, 1.0), (1.0, 1.0))

    def test_tradeoff_not_dominating(self):
        assert not dominates_tuple((2.0, 0.0), (1.0, 1.0))

    def test_epsilon_ties(self):
        assert not dominates_tuple((1.0 + 1e-15, 1.0), (1.0, 1.0))


class TestSkyline:
    def test_empty(self):
        assert skyline_indices([]) == []

    def test_single(self):
        assert skyline_indices([(1.0, 1.0)]) == [0]

    def test_classic(self):
        points = [(1, 5), (2, 4), (3, 3), (2, 2), (0, 6)]
        assert skyline_indices(points) == [0, 1, 2, 4]

    def test_duplicates_all_kept(self):
        points = [(1.0, 1.0), (1.0, 1.0)]
        assert skyline_indices(points) == [0, 1]

    @given(score_lists)
    def test_matches_brute_force(self, points):
        assert skyline_indices(points) == brute_force_skyline(points)


class TestDominanceCounts:
    def test_counts(self):
        points = [(3, 3), (1, 1), (2, 2), (0, 5)]
        assert dominance_counts(points) == [2, 0, 1, 0]

    @given(score_lists)
    def test_skyline_members_have_max_count(self, points):
        counts = dominance_counts(points)
        sky = set(skyline_indices(points))
        if sky:
            best = max(range(len(points)), key=lambda i: counts[i])
            assert max(counts[i] for i in sky) == counts[best]


class TestBestIndex:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            best_index_by_dominance([])

    def test_single_winner(self):
        points = [(1, 1), (3, 3), (2, 2)]
        assert best_index_by_dominance(points) == 1

    def test_tie_breaks_to_larger_tuple(self):
        points = [(1, 4), (4, 1)]
        assert best_index_by_dominance(points) == 1  # (4, 1) > (1, 4) lexicographically

    def test_deterministic_on_duplicates(self):
        points = [(2.0, 2.0), (2.0, 2.0)]
        assert best_index_by_dominance(points) == 0

    @given(score_lists)
    def test_winner_is_on_skyline(self, points):
        winner = best_index_by_dominance(points)
        assert winner in skyline_indices(points)


def scalar_pick(points):
    """The pairwise-loop pick: skyline, counts, then the tie-break."""
    sky = skyline_indices(points)
    counts = dominance_counts(points)
    return max(sky, key=lambda i: (counts[i], points[i], -i))


#: Coordinates a few base values apart, each nudged by 0, +-0.5e-12,
#: +-1e-12 or +-2e-12: every gap sits below, on or above ``EPS``.
near_coordinate = st.builds(
    lambda base, nudge: base + nudge,
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.75]),
    st.sampled_from([0.0, 0.5e-12, -0.5e-12, 1e-12, -1e-12, 2e-12, -2e-12]),
)
near_tie_lists = st.lists(
    st.tuples(near_coordinate, near_coordinate),
    min_size=1,
    max_size=2 * _VECTOR_RANK_MIN + 4,
)


class TestVectorRank:
    """The numpy rank above ``_VECTOR_RANK_MIN`` equals the pairwise loop."""

    @settings(max_examples=200)
    @given(near_tie_lists)
    def test_matrix_equals_dominates_tuple(self, points):
        matrix = _dominance_matrix(points, EPS)
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                assert matrix[i, j] == (i != j and dominates_tuple(a, b))

    @settings(max_examples=200)
    @given(near_tie_lists)
    def test_pick_equals_scalar_near_ties(self, points):
        assert best_index_by_dominance(points) == scalar_pick(points)

    @pytest.mark.parametrize(
        "n", [_VECTOR_RANK_MIN - 1, _VECTOR_RANK_MIN, _VECTOR_RANK_MIN + 1, 64, 256]
    )
    def test_pick_equals_scalar_both_sides_of_gate(self, n):
        rng = np.random.default_rng(n)
        base = rng.uniform(size=(n, 2))
        # Snap a third of the rows onto another row plus a sub-, on- or
        # super-EPS gap, and duplicate a few exactly.
        for row in rng.choice(n, size=n // 3, replace=False):
            other = rng.integers(n)
            base[row] = base[other] + rng.choice([0.0, 0.5e-12, 1e-12, 2e-12], size=2)
        points = [tuple(p) for p in base.tolist()]
        points += points[: max(1, n // 8)]
        assert best_index_by_dominance(points) == scalar_pick(points)

    @pytest.mark.parametrize("n", [_VECTOR_RANK_MIN - 1, _VECTOR_RANK_MIN, 40])
    def test_all_equal_picks_first(self, n):
        points = [(0.75, 2.0)] * n
        assert best_index_by_dominance(points) == scalar_pick(points) == 0
