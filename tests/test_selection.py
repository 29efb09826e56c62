import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uacal.action_space import (
    ActionGrid,
    Metric,
    ball_offsets,
    ball_reach,
    coords_of,
    flat_index,
)
from uacal.calibration import LogitField, ProbField, apply_temperature, softmax
from uacal.errors import ParameterError, UnsupportedConfigError
from uacal.selection import (
    SelectionConfig,
    SelectionResult,
    _separable_sums,
    _shifted_sums,
    gaussian_blur,
    gaussian_kernel,
    gaussian_select,
    greedy_select,
    neighborhood_sums,
    select,
    ua_select,
    ua_select_fast,
    ua_select_restricted,
)

from conftest import (
    oracle_gaussian_blur,
    oracle_neighborhood_sums,
    random_prob_field,
)

EUCL = Metric("euclidean")
CHEB = Metric("chebyshev")
KINDS = ["euclidean", "chebyshev", "manhattan"]


def prob(values):
    values = np.asarray(values, dtype=float)
    return ProbField(ActionGrid((len(values),)), values)


def random_grid(rng, max_side=12, max_axes=3):
    naxes = int(rng.integers(1, max_axes + 1))
    dims = tuple(int(d) for d in rng.integers(2, max_side + 1, size=naxes))
    return ActionGrid(dims)


def reference_shifted_sums(field, offsets):
    """Per-offset clipped-slice stencil: one strided add per in-bounds offset."""
    out = np.zeros_like(field)
    shape = field.shape
    for off in offsets:
        src, dst = [], []
        empty = False
        for o, n in zip(off, shape):
            o = int(o)
            if abs(o) >= n:
                empty = True
                break
            if o >= 0:
                src.append(slice(o, n))
                dst.append(slice(0, n - o))
            else:
                src.append(slice(0, n + o))
                dst.append(slice(-o, n))
        if not empty:
            out[tuple(dst)] += field[tuple(src)]
    return out


def reference_separable_sums(field, taps):
    """Per-axis clipped-slice shift-add, offsets ascending."""
    for ax, w in enumerate(taps):
        r = len(w) // 2
        n = field.shape[ax]
        out = np.zeros_like(field)
        for o in range(max(-r, 1 - n), min(r, n - 1) + 1):
            src = [slice(None)] * field.ndim
            dst = list(src)
            src[ax] = slice(max(o, 0), n + min(o, 0))
            dst[ax] = slice(max(-o, 0), n - max(o, 0))
            out[tuple(dst)] += w[o + r] * field[tuple(src)]
        field = out
    return field


@st.composite
def kernel_fields(draw):
    """A 1-4 axis field (dims 1-9) that is random, flat, or quantised to ties."""
    dims = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    assume(math.prod(dims) <= 1000)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "flat", "quantised"]))
    if kind == "random":
        return rng.random(dims)
    if kind == "flat":
        return np.full(dims, 1.0 / math.prod(dims))
    return rng.integers(0, 4, size=dims) / 7.0


@st.composite
def scaled_setups(draw, max_axes, max_side, kinds=KINDS):
    """(grid, metric, tau) with random cell sizes and metric scales.

    Some taus are whole multiples of one axis unit, which put cells
    exactly at the strict-< boundary up to rounding.
    """
    naxes = draw(st.integers(1, max_axes))
    sizes = st.sampled_from([0.1, 0.25, 0.3, 1.0, 1.5]) | st.floats(0.1, 2.0)
    dims = tuple(draw(st.lists(st.integers(1, max_side), min_size=naxes, max_size=naxes)))
    cell = tuple(draw(st.lists(sizes, min_size=naxes, max_size=naxes)))
    scale = tuple(draw(st.lists(sizes, min_size=naxes, max_size=naxes)))
    grid = ActionGrid(dims, cell)
    metric = Metric(draw(st.sampled_from(kinds)), scale)
    units = metric.axis_units(grid)
    tau = draw(st.floats(0.05, 4.0) | st.builds(
        lambda n, ax: n * float(units[ax]), st.integers(1, 6), st.integers(0, naxes - 1)))
    return grid, metric, tau


class TestGreedy:
    def test_basic(self):
        res = greedy_select(prob([0.1, 0.7, 0.2]))
        assert res.action == 1
        assert res.aggregated_score == pytest.approx(0.7)
        assert res.runner_up_gap == pytest.approx(0.5)

    def test_tie_break_lowest_index(self):
        res = greedy_select(prob([0.25] * 4))
        assert res.action == 0
        assert res.runner_up_gap == 0.0

    def test_matches_linear_scan(self, rng):
        v = rng.random(100_000)
        v /= v.sum()
        p = ProbField(ActionGrid((100_000,)), v)
        best = 0
        for i in range(1, 100_000):
            if v[i] > v[best]:
                best = i
        assert greedy_select(p).action == best


class TestUaExact:
    def test_1d_overrides_greedy(self):
        res = ua_select(prob([0.5, 0.25, 0.25]), SelectionConfig(tau=1.5))
        assert res.action == 1
        assert res.aggregated_score == pytest.approx(1.0)

    def test_spike_vs_blob(self):
        grid = ActionGrid((5, 5))
        v = np.zeros(25)
        v[flat_index(grid, (0, 0))] = 0.30
        for c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            v[flat_index(grid, c)] = 0.175
        res = ua_select(ProbField(grid, v), SelectionConfig(tau=1.5))
        assert coords_of(grid, res.action) == (2, 2)
        assert res.aggregated_score == pytest.approx(0.70)

    def test_tau_below_spacing_equals_greedy(self, rng):
        for _ in range(30):
            p = random_prob_field(rng, random_grid(rng))
            cfg = SelectionConfig(metric=EUCL, tau=0.5)
            assert ua_select(p, cfg).action == greedy_select(p).action

    def test_tau_zero_degenerate(self):
        res = ua_select(prob([0.2, 0.8]), SelectionConfig(tau=0.0))
        assert res.action == 0
        assert res.aggregated_score == 0.0
        assert "degenerate_neighborhood" in res.flags

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(25):
            grid = random_grid(rng, max_side=6)
            p = random_prob_field(rng, grid)
            kind = rng.choice(["euclidean", "chebyshev", "manhattan"])
            m = Metric(str(kind))
            tau = float(rng.uniform(0.5, 3.5))
            got = neighborhood_sums(grid, p.values, m, tau)
            want = oracle_neighborhood_sums(grid, p.values, m, tau)
            assert np.allclose(got, want, atol=1e-12)
            assert ua_select(p, SelectionConfig(metric=m, tau=tau)).action == \
                int(np.argmax(want))


class TestUaFast:
    def test_requires_chebyshev(self):
        p = prob([0.5, 0.5])
        with pytest.raises(UnsupportedConfigError):
            ua_select_fast(p, SelectionConfig(metric=EUCL, tau=1.5, mode="ua_fast"))

    def test_rejects_4_axes(self, rng):
        grid = ActionGrid((2, 2, 2, 2))
        p = random_prob_field(rng, grid)
        with pytest.raises(UnsupportedConfigError):
            ua_select_fast(p, SelectionConfig(metric=CHEB, tau=1.5, mode="ua_fast"))

    def test_uniform_interior_wins(self):
        # tau = 3 * 0.1 equals the offset-3 distance exactly, so the strict
        # ball on the 0.1 grid reaches only 2 cells
        for grid, tau, cell, score in [(ActionGrid((10, 10)), 1.5, (1, 1), 0.09),
                                       (ActionGrid((4,), (0.1,)), 3 * 0.1, (1,), 1.0)]:
            p = ProbField(grid, np.full(grid.size, 1.0 / grid.size))
            cfg = SelectionConfig(metric=CHEB, tau=tau, mode="ua_fast")
            res = ua_select_fast(p, cfg)
            assert coords_of(grid, res.action) == cell
            assert res.action == ua_select(p, cfg).action
            assert res.aggregated_score == pytest.approx(score, abs=1e-9)
            want = oracle_neighborhood_sums(grid, p.values, CHEB, tau)
            assert res.action == int(np.argmax(want))

    def test_oracle_equivalence_random(self, rng):
        for _ in range(60):
            grid = random_grid(rng, max_side=16)
            p = random_prob_field(rng, grid)
            tau = float(rng.choice([1.5, 2.5, 4.5]))
            cfg = SelectionConfig(metric=CHEB, tau=tau)
            exact = ua_select(p, cfg)
            fast = ua_select_fast(p, cfg)
            assert fast.action == exact.action
            assert abs(fast.aggregated_score - exact.aggregated_score) <= 1e-9

    def test_corner_mass_boundary_clipping(self):
        # all mass in one corner: no out-of-bounds contribution
        grid = ActionGrid((6, 6))
        v = np.zeros(36)
        v[0] = 1.0
        p = ProbField(grid, v)
        cfg = SelectionConfig(metric=CHEB, tau=2.5)
        exact = ua_select(p, cfg)
        fast = ua_select_fast(p, cfg)
        assert exact.action == fast.action == 0
        assert exact.aggregated_score == pytest.approx(1.0)
        assert fast.aggregated_score == pytest.approx(1.0, abs=1e-9)


class TestUaRestricted:
    def test_degenerates_to_full_search(self, rng):
        cases = []
        for _ in range(30):
            p = random_prob_field(rng, random_grid(rng, max_side=8))
            cases.append((p, float(rng.uniform(0.5, 3.0))))
        # |3 * 0.3 - 1 * 0.3| rounds below 0.6, yet cells two apart lie at
        # 2 * 0.3 == 0.6 and stay outside: exact and oracle pick 2 (0.9)
        cases.append((ProbField(ActionGrid((4,), (0.3,)),
                                np.array([0.1, 0.2, 0.3, 0.4])), 0.6))
        for p, tau in cases:
            grid = p.grid
            full = ua_select(p, SelectionConfig(metric=EUCL, tau=tau))
            restricted = ua_select_restricted(p, SelectionConfig(
                metric=EUCL, tau=tau, alpha=0.0, k=grid.size,
                window=2 * max(grid.dims), mode="ua_restricted"))
            assert restricted.action == full.action
            assert restricted.aggregated_score == pytest.approx(
                full.aggregated_score, abs=1e-12)

    def test_hand_enumerated_1d(self):
        # second case: retained {0, 4, 5, 6} centre on 4, window {3, 4, 5};
        # cell 5 still counts cell 6 outside the window
        for values, alpha, window, action, score in [
                ([0.30, 0.0, 0.0, 0.24, 0.23, 0.23, 0.0], 0.1, 7, 4, 0.70),
                ([0.2, 0.0, 0.0, 0.0, 0.1, 0.3, 0.4, 0.0, 0.0], 0.0, 3, 5, 0.8)]:
            res = ua_select_restricted(prob(values), SelectionConfig(
                metric=EUCL, tau=1.5, alpha=alpha, k=len(values), window=window,
                mode="ua_restricted"))
            assert res.action == action
            assert res.aggregated_score == pytest.approx(score)

    def test_k1_with_tight_tau_equals_greedy(self, rng):
        for _ in range(20):
            p = random_prob_field(rng, random_grid(rng, max_side=7))
            res = ua_select_restricted(p, SelectionConfig(
                metric=EUCL, tau=0.5, alpha=0.0, k=1,
                window=2 * max(p.grid.dims), mode="ua_restricted"))
            assert res.action == greedy_select(p).action

    def test_alpha_too_high_falls_back_to_greedy(self):
        p = prob([0.4, 0.6])
        res = ua_select_restricted(p, SelectionConfig(
            metric=EUCL, tau=1.5, alpha=1.0, mode="ua_restricted"))
        assert res.action == 1
        assert "empty_retained_fallback" in res.flags

    def test_top_k_keeps_highest_with_low_index_ties(self):
        # k=2 over probabilities [0.3, 0.3, 0.3, 0.1]: keep indices 0 and 1
        p = prob([0.3, 0.3, 0.3, 0.1])
        res = ua_select_restricted(p, SelectionConfig(
            metric=EUCL, tau=1.1, alpha=0.0, k=2, window=8,
            mode="ua_restricted"))
        # retained {0,1}; scores: a=0 -> 0.6, a=1 -> 0.6, a=2 -> 0.3
        assert res.action == 0
        assert res.aggregated_score == pytest.approx(0.6)

    def test_window_clipped_at_boundary(self):
        p = prob([0.9, 0.05, 0.05])
        res = ua_select_restricted(p, SelectionConfig(
            metric=EUCL, tau=0.5, alpha=0.0, k=3, window=99,
            mode="ua_restricted"))
        assert res.action == 0


class TestGaussian:
    def test_sigma_to_zero_equals_greedy(self, rng):
        for _ in range(30):
            p = random_prob_field(rng, random_grid(rng, max_axes=2))
            res = gaussian_select(p, SelectionConfig(mode="gaussian", sigma=1e-6))
            assert res.action == greedy_select(p).action

    def test_matches_dense_convolution_oracle(self, rng):
        for _ in range(10):
            grid = random_grid(rng, max_side=8, max_axes=2)
            p = random_prob_field(rng, grid)
            sigma = float(rng.uniform(0.4, 1.6))
            got = gaussian_blur(grid, p.values, sigma)
            want = oracle_gaussian_blur(grid, p.values, sigma)
            assert np.allclose(got, want, atol=1e-12)

    def test_uniform_field_center_attenuation(self):
        # zero padding attenuates borders; with radius 3 no 5x5 cell has
        # full support, so the center cell keeps the most kernel mass
        grid = ActionGrid((5, 5))
        p = ProbField(grid, np.full(25, 0.04))
        res = gaussian_select(p, SelectionConfig(mode="gaussian", sigma=1.0))
        want = oracle_gaussian_blur(grid, p.values, 1.0)
        assert res.action == int(np.argmax(want))
        assert coords_of(grid, res.action) == (2, 2)

    def test_uniform_field_plateau_lowest_interior(self):
        # grid wide enough for a fully supported interior: lowest plateau cell
        grid = ActionGrid((9, 9))
        p = ProbField(grid, np.full(81, 1.0 / 81))
        res = gaussian_select(p, SelectionConfig(mode="gaussian", sigma=1.0))
        assert coords_of(grid, res.action) == (3, 3)

    def test_spike_vs_blob_blurred(self):
        grid = ActionGrid((5, 5))
        v = np.zeros(25)
        v[flat_index(grid, (0, 0))] = 0.30
        for c in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            v[flat_index(grid, c)] = 0.175
        res = gaussian_select(ProbField(grid, v),
                              SelectionConfig(mode="gaussian", sigma=1.0))
        assert coords_of(grid, res.action) in [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_rejects_3_axes(self, rng):
        p = random_prob_field(rng, ActionGrid((3, 3, 3)))
        with pytest.raises(UnsupportedConfigError):
            gaussian_select(p, SelectionConfig(mode="gaussian", sigma=1.0))


class TestDispatch:
    def test_greedy(self, rng):
        p = random_prob_field(rng, ActionGrid((9,)))
        assert select(p, SelectionConfig(mode="greedy")) == greedy_select(p)

    def test_fast_euclidean_unsupported(self):
        p = prob([0.5, 0.5])
        with pytest.raises(UnsupportedConfigError):
            select(p, SelectionConfig(metric=EUCL, tau=1.5, mode="ua_fast"))

    def test_restricted_paper_defaults(self, rng):
        p = random_prob_field(rng, ActionGrid((12, 12)))
        cfg = SelectionConfig(metric=EUCL, tau=2.0, window=24, mode="ua_restricted")
        assert cfg.alpha is None  # 1/|A| at call time
        assert cfg.k == 4000
        assert select(p, cfg) == ua_select_restricted(p, cfg)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            SelectionConfig(mode="conformal")

    @pytest.mark.parametrize("alpha", [None, 0.0, 1.0])
    def test_tau_zero_degenerate_in_every_aggregation_mode(self, rng, alpha):
        # alpha 0 retains every cell, 1 none; at tau 0 neither matters
        p = random_prob_field(rng, ActionGrid((8, 8)))
        want = SelectionResult(0, 0.0, 0.0, 64, ("degenerate_neighborhood",))
        for mode in ("ua_exact", "ua_fast", "ua_restricted"):
            assert select(p, SelectionConfig(metric=CHEB, tau=0.0, alpha=alpha,
                                             mode=mode)) == want

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_tau_and_sigma_rejected(self, bad):
        grid = ActionGrid((4, 4))
        with pytest.raises(ParameterError, match="tau"):
            SelectionConfig(tau=bad)
        with pytest.raises(ParameterError, match="tau"):
            ball_offsets(grid, EUCL, bad)
        with pytest.raises(ParameterError, match="sigma"):
            SelectionConfig(mode="gaussian", sigma=bad)
        with pytest.raises(ParameterError, match="sigma"):
            gaussian_kernel(bad)


class TestProperties:
    def test_tie_determinism_repeat_runs(self, rng):
        p = random_prob_field(rng, ActionGrid((7, 7)))
        cfg = SelectionConfig(metric=CHEB, tau=2.5)
        runs = [ua_select(p, cfg) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_scale_covariance_of_aggregation(self, rng):
        for _ in range(20):
            grid = random_grid(rng, max_side=8)
            v = rng.random(grid.size)
            tau = float(rng.uniform(0.5, 3.0))
            base = neighborhood_sums(grid, v, EUCL, tau)
            for c in (0.25, 3.0):
                scaled = neighborhood_sums(grid, c * v, EUCL, tau)
                assert np.allclose(scaled, c * base, rtol=1e-12)
                assert np.argmax(scaled) == np.argmax(base)

    def test_probability_scores_bounded(self, rng):
        for _ in range(20):
            p = random_prob_field(rng, random_grid(rng, max_side=9))
            res = ua_select(p, SelectionConfig(metric=EUCL, tau=3.0))
            assert 0.0 <= res.aggregated_score <= 1.0 + 1e-9

    def test_temperature_changes_ua_choice_witness(self):
        # temperature preserves the greedy argmax but reshapes neighborhood
        # sums: a spike beats a two-cell blob when sharp, loses when flat
        grid = ActionGrid((5,))
        f = LogitField(grid, np.array([4.0, 0.0, 0.0, 2.85, 2.85]))
        cfg = SelectionConfig(metric=EUCL, tau=1.5)
        cold = ua_select(apply_temperature(f, 1.0), cfg)
        hot = ua_select(apply_temperature(f, 5.0), cfg)
        assert greedy_select(softmax(f)).action == \
            greedy_select(apply_temperature(f, 5.0)).action == 0
        assert cold.action != hot.action
        # confirmed against the pairwise oracle at both temperatures
        for T, expected in ((1.0, cold.action), (5.0, hot.action)):
            p = apply_temperature(f, T)
            want = oracle_neighborhood_sums(grid, p.values, EUCL, 1.5)
            assert int(np.argmax(want)) == expected


class TestKernelProperties:
    @given(kernel_fields(), st.sampled_from(KINDS),
           st.floats(0.05, 4.0) | st.floats(4.0, 30.0) | st.just(1000.0),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_stencil_bit_identical_to_reference(self, field, kind, tau, crop):
        # offsets from a grid up to twice the field's size stand in for
        # ua_restricted's crop, whose stencil can reach past the field
        grid = ActionGrid(tuple(2 * n if crop else n for n in field.shape))
        offs = ball_offsets(grid, Metric(kind), tau)
        assert np.array_equal(_shifted_sums(field, offs),
                              reference_shifted_sums(field, offs))

    @given(kernel_fields(), st.integers(0, 12), st.floats(0.2, 4.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_separable_bit_identical_to_reference(self, field, half, sigma, unit):
        taps = ([np.ones(2 * half + 1)] if unit else [gaussian_kernel(sigma)]) * field.ndim
        assert np.array_equal(_separable_sums(field, taps),
                              reference_separable_sums(field, taps))

    @given(scaled_setups(max_axes=4, max_side=5), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_restricted_full_window_is_exact(self, setup, seed):
        grid, metric, tau = setup
        p = random_prob_field(np.random.default_rng(seed), grid)
        full = ua_select(p, SelectionConfig(metric=metric, tau=tau))
        restricted = ua_select_restricted(p, SelectionConfig(
            metric=metric, tau=tau, alpha=0.0, k=grid.size,
            window=2 * max(grid.dims), mode="ua_restricted"))
        assert restricted.action == full.action
        assert restricted.aggregated_score == full.aggregated_score

    @given(scaled_setups(max_axes=4, max_side=9))
    @example((ActionGrid((4,), (0.1,)), CHEB, 3 * 0.1))  # 3 * 0.1 / 0.1 rounds above 3
    @settings(max_examples=200, deadline=None)
    def test_ball_reach_matches_offsets(self, setup):
        grid, metric, tau = setup
        reach = np.abs(ball_offsets(grid, metric, tau)).max(axis=0)
        assert ball_reach(grid, metric, tau) == reach.tolist()

    @given(scaled_setups(max_axes=3, max_side=9, kinds=["chebyshev"]))
    @settings(max_examples=80, deadline=None)
    def test_fast_uniform_field_lowest_index(self, setup):
        grid, metric, tau = setup
        p = ProbField(grid, np.full(grid.size, 1.0 / grid.size))
        cfg = SelectionConfig(metric=metric, tau=tau)
        assert ua_select_fast(p, cfg).action == ua_select(p, cfg).action

    @given(scaled_setups(max_axes=3, max_side=5, kinds=["chebyshev"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fast_random_field_matches_oracle(self, setup, seed):
        # mirrored fields tie in real arithmetic and may round apart in either
        # kernel, so compare scores with the oracle rather than actions
        grid, metric, tau = setup
        p = random_prob_field(np.random.default_rng(seed), grid)
        res = ua_select_fast(p, SelectionConfig(metric=metric, tau=tau))
        want = oracle_neighborhood_sums(grid, p.values, metric, tau)
        assert abs(res.aggregated_score - want[res.action]) <= 1e-12
        assert want.max() - want[res.action] <= 1e-12


class TestKernelMemory:
    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_tau(self):
        grid = ActionGrid((12, 12, 12))
        v = np.random.default_rng(3).random(grid.size)
        diag = math.dist(grid.dims, (1, 1, 1))
        peaks = [self.peak_bytes(lambda: neighborhood_sums(grid, v, EUCL, tau))
                 for tau in (diag, 1000.0)]
        assert peaks[1] <= 1.1 * peaks[0]

    def test_fast_peak_bounded_by_grid(self):
        grid = ActionGrid((32, 32, 32))
        p = ProbField(grid, np.full(grid.size, 1.0 / grid.size))
        diag = math.dist(grid.dims, (1, 1, 1))
        peaks = [self.peak_bytes(lambda: ua_select_fast(
                     p, SelectionConfig(metric=CHEB, tau=tau, mode="ua_fast")))
                 for tau in (diag, 1000.0)]
        assert peaks[1] <= 1.1 * peaks[0]
        assert max(peaks) <= 8 * p.values.nbytes
