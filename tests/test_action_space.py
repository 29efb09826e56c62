import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uacal.action_space import (
    ActionGrid,
    Metric,
    ball_offsets,
    coords_of,
    distance,
    flat_index,
    neighborhood,
)
from uacal.errors import BoundsError, ParameterError

from conftest import oracle_neighborhood


def small_grids():
    dims = st.lists(st.integers(1, 9), min_size=1, max_size=4)
    return dims.map(lambda d: ActionGrid(tuple(d)))


class TestEnumeration:
    def test_origin(self):
        assert flat_index(ActionGrid((2, 3)), (0, 0)) == 0

    def test_last_cell_row_major(self):
        assert flat_index(ActionGrid((2, 3)), (1, 2)) == 5

    def test_3d_matches_enumeration_oracle(self):
        grid = ActionGrid((4, 4, 4))
        ordered = list(itertools.product(range(4), range(4), range(4)))
        assert ordered.index((1, 2, 3)) == 27
        assert flat_index(grid, (1, 2, 3)) == 27
        assert coords_of(grid, 27) == (1, 2, 3)

    def test_coords_of_inverse(self):
        grid = ActionGrid((2, 3))
        assert coords_of(grid, 5) == (1, 2)
        assert coords_of(grid, 0) == (0, 0)

    def test_out_of_range(self):
        grid = ActionGrid((2, 3))
        with pytest.raises(BoundsError):
            flat_index(grid, (2, 0))
        with pytest.raises(BoundsError):
            coords_of(grid, 6)
        with pytest.raises(BoundsError):
            coords_of(grid, -1)

    @given(small_grids())
    @settings(max_examples=50, deadline=None)
    def test_bijection(self, grid):
        for i in range(grid.size):
            assert flat_index(grid, coords_of(grid, i)) == i

    def test_bijection_large_random_grids(self, rng):
        for _ in range(20):
            naxes = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 18, size=naxes))
            grid = ActionGrid(dims)
            assert grid.size <= 10 ** 5
            idx = rng.integers(0, grid.size, size=min(grid.size, 500))
            for i in idx:
                assert flat_index(grid, coords_of(grid, int(i))) == int(i)


class TestGridValidation:
    def test_zero_dim_rejected(self):
        with pytest.raises(ParameterError):
            ActionGrid((0, 3))
        for dims in [(2.7, 3), (float("inf"),), (float("nan"), 2)]:
            with pytest.raises(ParameterError):
                ActionGrid(dims)

    def test_too_many_axes(self):
        with pytest.raises(ParameterError):
            ActionGrid((2, 2, 2, 2, 2))

    def test_bad_cell_size(self):
        with pytest.raises(ParameterError):
            ActionGrid((2, 2), cell_size=(1.0,))
        with pytest.raises(ParameterError):
            ActionGrid((2,), cell_size=(0.0,))
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                ActionGrid((4,), cell_size=(bad,))


class TestDistance:
    def test_identity(self):
        grid = ActionGrid((5, 5))
        m = Metric("euclidean")
        a = flat_index(grid, (0, 0))
        assert distance(grid, m, a, a) == 0.0

    def test_unit_cell_diagonal(self):
        grid = ActionGrid((5, 5))
        m = Metric("euclidean")
        a = flat_index(grid, (2, 2))
        b = flat_index(grid, (3, 3))
        assert distance(grid, m, a, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_chebyshev_max_gap(self):
        grid = ActionGrid((5, 5, 5))
        m = Metric("chebyshev")
        a = flat_index(grid, (0, 0, 0))
        b = flat_index(grid, (2, 1, 0))
        assert distance(grid, m, a, b) == 2.0

    def test_manhattan(self):
        grid = ActionGrid((5, 5))
        m = Metric("manhattan")
        assert distance(grid, m, flat_index(grid, (0, 0)),
                        flat_index(grid, (2, 1))) == 3.0

    def test_cell_size_scaling(self):
        grid = ActionGrid((5, 5), cell_size=(2.0, 0.5))
        m = Metric("euclidean")
        a = flat_index(grid, (0, 0))
        b = flat_index(grid, (1, 2))
        assert distance(grid, m, a, b) == pytest.approx(np.hypot(2.0, 1.0))

    def test_symmetry_random_pairs(self, rng):
        grid = ActionGrid((7, 5, 3))
        for kind in ("euclidean", "chebyshev", "manhattan"):
            m = Metric(kind)
            for _ in range(50):
                a, b = rng.integers(0, grid.size, size=2)
                assert distance(grid, m, int(a), int(b)) == \
                    distance(grid, m, int(b), int(a))

    def test_bad_scale(self):
        with pytest.raises(ParameterError):
            Metric("euclidean", scale=(0.0,))
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                Metric("euclidean", scale=(1.0, bad))
        with pytest.raises(ParameterError):
            Metric("mahalanobis")


class TestNeighborhood:
    def test_tau_zero_empty(self):
        grid = ActionGrid((4, 4))
        assert len(neighborhood(grid, Metric("euclidean"), 5, 0.0)) == 0

    def test_1d_all_within_one(self):
        grid = ActionGrid((3,))
        got = neighborhood(grid, Metric("euclidean"), 1, 1.5)
        assert got.tolist() == [0, 1, 2]

    def test_corner_2d_brute_force(self):
        grid = ActionGrid((5, 5))
        got = neighborhood(grid, Metric("euclidean"), 0, 1.5)
        expected = [flat_index(grid, c) for c in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert got.tolist() == sorted(expected)

    @given(small_grids(), st.sampled_from(["euclidean", "chebyshev", "manhattan"]),
           st.floats(0.0, 5.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scan_oracle(self, grid, kind, tau, data):
        a = data.draw(st.integers(0, grid.size - 1))
        m = Metric(kind)
        got = neighborhood(grid, m, a, tau).tolist()
        assert got == oracle_neighborhood(grid, m, a, tau)

    @pytest.mark.parametrize("kind", ["euclidean", "chebyshev", "manhattan"])
    def test_tau_one_ulp_above_a_step(self, kind):
        # tau / unit rounds down to 3, yet 3 steps measure below tau
        grid = ActionGrid((6,), (float.fromhex("0x1.0a19e38ead417p+0"),))
        tau = float.fromhex("0x1.8f26d55603e23p+1")
        got = neighborhood(grid, Metric(kind), 0, tau).tolist()
        assert got == oracle_neighborhood(grid, Metric(kind), 0, tau) == [0, 1, 2, 3]

    @given(small_grids(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, grid, data):
        m = Metric("euclidean")
        tau = data.draw(st.floats(0.1, 4.0))
        a = data.draw(st.integers(0, grid.size - 1))
        b = data.draw(st.integers(0, grid.size - 1))
        assert (b in neighborhood(grid, m, a, tau)) == \
            (a in neighborhood(grid, m, b, tau))

    @given(small_grids(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_tau(self, grid, data):
        m = Metric("manhattan")
        t1 = data.draw(st.floats(0.0, 3.0))
        t2 = data.draw(st.floats(0.0, 3.0))
        if t1 > t2:
            t1, t2 = t2, t1
        a = data.draw(st.integers(0, grid.size - 1))
        small = set(neighborhood(grid, m, a, t1).tolist())
        big = set(neighborhood(grid, m, a, t2).tolist())
        assert small <= big

    def test_ball_offsets_bounded_by_grid(self):
        # reach is capped at dims - 1 per axis: 7 x 7 offsets, not ~pi * 50^2
        grid = ActionGrid((4, 4))
        m = Metric("euclidean")
        assert ball_offsets(grid, m, 50.0).shape == (49, 2)
        for a in range(grid.size):
            assert neighborhood(grid, m, a, 50.0).tolist() == \
                oracle_neighborhood(grid, m, a, 50.0) == list(range(grid.size))

    def test_contains_self_when_tau_positive(self, rng):
        grid = ActionGrid((6, 6))
        for _ in range(20):
            a = int(rng.integers(0, grid.size))
            assert a in neighborhood(grid, Metric("euclidean"), a, 0.25)

    def test_chebyshev_ball_is_clipped_box(self):
        # radius r cells -> box of side 2*ceil(r - eps) + 1, clipped
        for dims in [(5,), (4, 7), (9, 9, 9)]:
            grid = ActionGrid(dims)
            m = Metric("chebyshev")
            for tau in (0.5, 1.0, 1.5, 2.0, 3.5):
                for a in range(0, grid.size, max(1, grid.size // 11)):
                    ca = coords_of(grid, a)
                    reach = int(np.ceil(tau)) - 1 if float(tau).is_integer() \
                        else int(np.floor(tau))
                    box = []
                    for flat in range(grid.size):
                        cb = coords_of(grid, flat)
                        if all(abs(x - y) <= reach for x, y in zip(ca, cb)):
                            box.append(flat)
                    assert neighborhood(grid, m, a, tau).tolist() == box
