import math
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uacal import selection
from uacal.action_space import (
    ActionGrid,
    Metric,
    ball_offsets,
    ball_reach,
    coords_of,
    flat_index,
)
from uacal import calibration
from uacal.calibration import LogitField, ProbField, apply_temperature, softmax
from uacal.errors import ParameterError, UnsupportedConfigError
from uacal.selection import (
    SelectionConfig,
    SelectionResult,
    _aggregate,
    _axis_layouts,
    _layout,
    _result_from_scores,
    _top_k,
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


def kind_field(grid, kind, rng):
    """A positive probability field that is random, flat, or tied in levels."""
    v = {"random": rng.random(grid.size) + 1e-6, "flat": np.ones(grid.size),
         "tied": rng.integers(1, 4, grid.size).astype(float)}[kind]
    return ProbField(grid, v / v.sum())


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
        # only the retained cells are scored, each by its whole-field sum:
        # cells 0, 3, 4, 5 get 0.30, 0.47, 0.70, 0.46 in the first case, and
        # cells 0, 4, 5, 6 get 0.2, 0.4, 0.8, 0.7 in the second
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
        # full-field sums at tau 1.1 over [0.3, 0.3, 0.3, 0.1] are 0.6, 0.9,
        # 0.7, 0.4; k=1 must keep cell 0 of the three tied cells, not 1 or 2
        p = prob([0.3, 0.3, 0.3, 0.1])
        for k, action, score in [(1, 0, 0.6), (2, 1, 0.9)]:
            res = ua_select_restricted(p, SelectionConfig(
                metric=EUCL, tau=1.1, alpha=0.0, k=k, mode="ua_restricted"))
            assert res.action == action
            assert res.aggregated_score == pytest.approx(score)
            assert res.candidates_evaluated == k

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

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ParameterError, match="alpha"):
            SelectionConfig(alpha=1.5)

    @pytest.mark.parametrize("k", [100.0, 4e3, 2.5, np.nan])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ParameterError, match="k must be an integer"):
            SelectionConfig(mode="ua_restricted", k=k)

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


def reference_top_k(indices, values, k):
    """The k highest values[indices] by a full sort, ties by lowest index,
    returned ascending."""
    order = np.lexsort((indices, -values[indices]))
    return np.sort(indices[order[:k]])


@st.composite
def top_k_cases(draw):
    """Ascending indices into random, heavily tied or flat values, and a k."""
    size = draw(st.integers(1, 60))
    levels = draw(st.sampled_from([1, 2, 3, 1000]))  # 1: flat, 2-3: ties everywhere
    values = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=size,
                                    max_size=size)), dtype=np.float64) / levels
    indices = np.flatnonzero(np.array(draw(st.lists(st.booleans(), min_size=size,
                                                    max_size=size))))
    return indices, values, draw(st.integers(1, size + 2))


class TestKernelProperties:
    @given(top_k_cases())
    @settings(max_examples=300, deadline=None)
    def test_top_k_matches_sort_reference(self, case):
        indices, values, k = case
        got = _top_k(indices, values, k)
        assert np.array_equal(got, reference_top_k(indices, values, k))

    @given(kernel_fields(), st.sampled_from(KINDS),
           st.floats(0.05, 4.0) | st.floats(4.0, 30.0) | st.just(1000.0),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_stencil_bit_identical_to_reference(self, field, kind, tau, crop):
        # offsets from a grid up to twice the field's size reach past the
        # field, so the layout must drop the offsets that never land
        grid = ActionGrid(tuple(2 * n if crop else n for n in field.shape))
        offs = ball_offsets(grid, Metric(kind), tau)
        sums = _aggregate(ActionGrid(field.shape), field, (_layout(field.shape, offs),))
        assert np.array_equal(sums, reference_shifted_sums(field, offs).ravel())

    @given(kernel_fields(), st.integers(0, 12), st.floats(0.2, 4.0), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_separable_bit_identical_to_reference(self, field, half, sigma, unit):
        taps = ([np.ones(2 * half + 1)] if unit else [gaussian_kernel(sigma)]) * field.ndim
        sums = _aggregate(ActionGrid(field.shape), field, _axis_layouts(field.shape, taps))
        assert np.array_equal(sums, reference_separable_sums(field, taps).ravel())

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

    @given(scaled_setups(max_axes=4, max_side=5), st.sampled_from(["random", "flat", "tied"]),
           st.integers(0, 2**32 - 1), st.floats(0.0, 1.0, exclude_max=True),
           st.integers(1, 700))
    @settings(max_examples=150, deadline=None)
    def test_restricted_scores_are_stencil_sums(self, setup, kind, seed, frac, k):
        grid, metric, tau = setup
        rng = np.random.default_rng(seed)
        v = {"random": rng.random(grid.size), "flat": np.ones(grid.size),
             "tied": rng.integers(1, 4, grid.size).astype(float)}[kind]
        p = ProbField(grid, v / v.sum())
        alpha = frac * p.values.max()  # below the max, so never empty
        cands = _top_k(np.flatnonzero(p.values > alpha), p.values, k)
        want = neighborhood_sums(grid, p.values, metric, tau)[cands]
        with mock.patch("uacal.selection._result_from_scores",
                        wraps=_result_from_scores) as spy:
            res = ua_select_restricted(p, SelectionConfig(
                metric=metric, tau=tau, alpha=alpha, k=k, mode="ua_restricted"))
        scores = spy.call_args.args[0]
        assert np.array_equal(spy.call_args.kwargs["actions"], cands)
        assert scores.tobytes() == want.tobytes()
        assert res == _result_from_scores(want, actions=cands)

    @given(scaled_setups(max_axes=3, max_side=9), st.sampled_from(["random", "flat", "tied"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_restricted_dense_branch_at_k_equal_size(self, setup, kind, seed):
        # with every cell a candidate, the scores come from one stencil pass
        grid, metric, tau = setup
        p = kind_field(grid, kind, np.random.default_rng(seed))
        want = neighborhood_sums(grid, p.values, metric, tau)
        with mock.patch("uacal.selection._result_from_scores",
                        wraps=_result_from_scores) as spy, \
             mock.patch("uacal.selection.neighborhood_sums",
                        wraps=neighborhood_sums) as dense:
            res = ua_select_restricted(p, SelectionConfig(
                metric=metric, tau=tau, alpha=0.0, k=grid.size, mode="ua_restricted"))
        assert dense.call_count == 1
        assert np.array_equal(spy.call_args.kwargs["actions"], np.arange(grid.size))
        assert spy.call_args.args[0].tobytes() == want.tobytes()
        assert res == ua_select(p, SelectionConfig(metric=metric, tau=tau))

    @given(scaled_setups(max_axes=4, max_side=9))
    @example((ActionGrid((4,), (0.1,)), CHEB, 3 * 0.1))  # 3 * 0.1 / 0.1 rounds above 3
    @example((ActionGrid((4,), (1e-300,)), EUCL, 1e10))  # tau / unit overflows
    @example((ActionGrid((4,)), Metric("manhattan", (1e-300,)), 1e10))
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

    @pytest.mark.parametrize("dims", [(64, 64, 64), (100, 100, 100)])
    def test_two_lane_peak_bounded_by_grid(self, dims):
        # both lanes' slab buffers and the result, made once per call
        grid = ActionGrid(dims)
        p = random_prob_field(np.random.default_rng(4), grid)
        for mode in ("ua_exact", "ua_fast"):
            cfg = SelectionConfig(metric=CHEB, tau=4.5, mode=mode)
            select(p, cfg)  # the layout is built outside the traced call
            assert self.peak_bytes(lambda: select(p, cfg)) <= 3 * p.values.nbytes


class TestSelectMemory:
    @pytest.mark.parametrize("cfg", [
        SelectionConfig(metric=EUCL, tau=2.5),
        SelectionConfig(metric=CHEB, tau=4.5, mode="ua_fast"),
        SelectionConfig(sigma=1.0, mode="gaussian")], ids=["ua_exact", "ua_fast", "gaussian"])
    def test_select_builds_no_score_array(self, cfg):
        # select keeps each slab's sums in its lane's scratch; the sums call
        # returns one |A|-cell array on top of the same scratch
        grid = ActionGrid((64, 64, 64))
        p = random_prob_field(np.random.default_rng(5), grid)
        sums = {"ua_exact": lambda: neighborhood_sums(grid, p.values, cfg.metric, cfg.tau),
                "ua_fast": lambda: box_sums(p, cfg.tau),
                "gaussian": lambda: gaussian_blur(grid, p.values, cfg.sigma)}[cfg.mode]
        select(p, cfg)  # the layouts are built outside the traced calls
        peak = TestKernelMemory.peak_bytes
        assert peak(lambda: select(p, cfg)) <= peak(sums) - 0.9 * p.values.nbytes


class TestFieldMemory:
    def test_apply_temperature_peak_is_one_field(self):
        # the field is built in the array it is returned in
        grid = ActionGrid((64, 64, 64))
        f = LogitField(grid, np.random.default_rng(6).normal(0.0, 4.0, grid.size))
        apply_temperature(f, 4.0)
        peak = TestKernelMemory.peak_bytes(lambda: apply_temperature(f, 4.0))
        assert peak <= 1.1 * f.values.nbytes


LAYOUT_CACHES = (selection._kept_stencil_layout, selection._box_layouts,
                 selection._gaussian_layouts)


def clear_layout_caches():
    for cache in LAYOUT_CACHES:
        cache.cache_clear()


@st.composite
def cache_configs(draw):
    """(grid, metric, tau, sigma) on 1-4 axes, with balls small and large."""
    grid, metric, tau = draw(scaled_setups(max_axes=4, max_side=7))
    return grid, metric, tau, draw(st.floats(0.2, 3.0))


def every_mode(p, metric, tau, sigma):
    """Every layout-using mode that accepts this config, by name."""
    out = {"ua_exact": ua_select(p, SelectionConfig(metric=metric, tau=tau)),
           "ua_restricted": ua_select_restricted(p, SelectionConfig(
               metric=metric, tau=tau, mode="ua_restricted")),
           "ua_restricted_all": ua_select_restricted(p, SelectionConfig(
               metric=metric, tau=tau, alpha=0.0, k=p.grid.size, mode="ua_restricted"))}
    if metric.kind == "chebyshev":
        out["ua_fast"] = ua_select_fast(p, SelectionConfig(metric=metric, tau=tau))
    out["gaussian"] = gaussian_select(p, SelectionConfig(sigma=sigma, mode="gaussian"))
    return out


class TestLayoutCache:
    @given(st.lists(cache_configs(), min_size=selection._LAYOUTS_KEPT + 1,
                    max_size=selection._LAYOUTS_KEPT + 6, unique=True),
           st.sampled_from(["random", "flat", "tied"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_results_equal_a_cold_cache_run(self, configs, kind, seed):
        # two passes over more configs than a cache keeps: the second pass
        # meets entries that were evicted and rebuilt
        rng = np.random.default_rng(seed)
        fields = [kind_field(grid, kind, rng) for grid, *_ in configs]
        warm = [every_mode(p, *cfg[1:]) for _ in range(2) for p, cfg in zip(fields, configs)]
        for i, (p, cfg) in enumerate(zip(fields, configs)):
            clear_layout_caches()
            cold = every_mode(p, *cfg[1:])
            assert warm[i] == cold
            assert warm[i + len(configs)] == cold

    def test_mutating_ball_offsets_leaves_the_cache_intact(self, rng):
        grid = ActionGrid((9, 7))
        v = rng.random(grid.size)
        before = neighborhood_sums(grid, v, EUCL, 2.5)
        offs = ball_offsets(grid, EUCL, 2.5)
        again = ball_offsets(grid, EUCL, 2.5)
        assert not np.shares_memory(offs, again)
        offs[:] = 3
        again[::2] = -1
        after = neighborhood_sums(grid, v, EUCL, 2.5)
        assert after.tobytes() == before.tobytes()
        lay = selection._stencil_layout(grid, EUCL, 2.5)
        with pytest.raises(ValueError):
            lay.shifts[0] = 0

    def test_miss_builds_the_stencil_through_ball_offsets_once(self, rng):
        clear_layout_caches()
        grid = ActionGrid((16, 16))
        p = random_prob_field(rng, grid)
        with mock.patch("uacal.selection.ball_offsets", wraps=ball_offsets) as spy:
            first = ua_select(p, SelectionConfig(metric=EUCL, tau=2.5))
            second = ua_select(p, SelectionConfig(metric=EUCL, tau=2.5))
        assert spy.call_count == 1
        assert first == second

    def test_large_ball_is_rebuilt_not_kept(self, rng):
        # its box holds more offsets than the grid has cells
        grid = ActionGrid((6, 6))
        v = rng.random(grid.size)
        with mock.patch("uacal.selection.ball_offsets", wraps=ball_offsets) as spy:
            sums = [neighborhood_sums(grid, v, EUCL, 4.0) for _ in range(2)]
        assert spy.call_count == 2
        assert selection._kept_stencil_layout(grid, EUCL, 4.0) is None
        assert sums[0].tobytes() == sums[1].tobytes()

    def test_caches_stay_within_maxsize(self, rng):
        for n in range(3 * selection._LAYOUTS_KEPT):
            grid = ActionGrid((5 + n % 7, 4 + n // 7))
            p = random_prob_field(rng, grid)
            tau = 1.0 + 0.1 * n
            ua_select(p, SelectionConfig(metric=CHEB, tau=tau))
            ua_select_fast(p, SelectionConfig(metric=CHEB, tau=tau))
            gaussian_blur(grid, p.values, 0.3 + 0.05 * n)
        for cache in LAYOUT_CACHES:
            info = cache.cache_info()
            assert info.maxsize == selection._LAYOUTS_KEPT
            assert info.currsize <= info.maxsize

    def test_warm_cache_cannot_skew_the_memory_ratio(self):
        # TestKernelMemory's peaks with one of its two configs already seen:
        # neither ball is kept, so both calls build their stencil alike
        grid = ActionGrid((12, 12, 12))
        v = np.random.default_rng(3).random(grid.size)
        diag = math.dist(grid.dims, (1, 1, 1))
        for warm in (diag, 1000.0):
            neighborhood_sums(grid, v, EUCL, warm)
            peaks = [TestKernelMemory.peak_bytes(lambda: neighborhood_sums(grid, v, EUCL, tau))
                     for tau in (diag, 1000.0)]
            assert peaks[1] <= 1.1 * peaks[0]
            assert peaks[0] <= 1.1 * peaks[1]


def slab_cuts():
    """_SLAB_CELLS small enough to cut a test field into many slabs of a row
    or more."""
    return st.integers(1, 200)


@st.composite
def slab_fields(draw):
    """``kernel_fields`` and fields of one or two rows along axis 0."""
    field = draw(kernel_fields())
    if draw(st.booleans()):
        field = field[:draw(st.integers(1, 2))]
    return field


def modes_by_reference(field, kind, tau, sigma):
    """{mode: (config, reference sums)} for every full-field mode on ``field``."""
    grid = ActionGrid(field.shape)
    metric = Metric(kind)
    stencil = reference_shifted_sums(field, ball_offsets(grid, metric, tau)).ravel()
    out = {"ua_exact": (SelectionConfig(metric=metric, tau=tau), stencil),
           "ua_restricted": (SelectionConfig(metric=metric, tau=tau, alpha=0.0, k=grid.size,
                                             mode="ua_restricted"), stencil)}
    if kind == "chebyshev":
        taps = [np.ones(2 * h + 1) for h in ball_reach(grid, metric, tau)]
        out["ua_fast"] = (SelectionConfig(metric=metric, tau=tau, mode="ua_fast"),
                          reference_separable_sums(field, taps).ravel())
    out["gaussian"] = (SelectionConfig(sigma=sigma, mode="gaussian"),
                       reference_separable_sums(field, [gaussian_kernel(sigma)] * field.ndim)
                       .ravel())
    return out


class TestSlabs:
    """``_aggregate`` cut into many slabs gives the whole-grid sums, bit for bit."""

    @given(slab_fields(), st.sampled_from(KINDS),
           st.floats(0.05, 4.0) | st.floats(4.0, 30.0) | st.just(1000.0), slab_cuts())
    @settings(max_examples=150, deadline=None)
    def test_stencil_bit_identical_to_reference(self, field, kind, tau, cut):
        # tau up to 1000 gives halos of more rows than a one-row slab holds
        offs = ball_offsets(ActionGrid(field.shape), Metric(kind), tau)
        with mock.patch.object(selection, "_SLAB_CELLS", cut):
            sums = _aggregate(ActionGrid(field.shape), field, (_layout(field.shape, offs),))
        assert sums.tobytes() == reference_shifted_sums(field, offs).ravel().tobytes()

    @given(slab_fields(), st.integers(0, 12), st.floats(0.2, 4.0), st.booleans(), slab_cuts())
    @settings(max_examples=150, deadline=None)
    def test_separable_bit_identical_to_reference(self, field, half, sigma, unit, cut):
        taps = ([np.ones(2 * half + 1)] if unit else [gaussian_kernel(sigma)]) * field.ndim
        with mock.patch.object(selection, "_SLAB_CELLS", cut):
            sums = _aggregate(ActionGrid(field.shape), field, _axis_layouts(field.shape, taps))
        assert sums.tobytes() == reference_separable_sums(field, taps).ravel().tobytes()

    @given(slab_fields(), st.sampled_from(KINDS), st.floats(0.5, 6.0) | st.just(1000.0),
           st.floats(0.2, 4.0), slab_cuts())
    @settings(max_examples=100, deadline=None)
    def test_every_mode_selects_as_its_reference(self, field, kind, tau, sigma, cut):
        # the selected action and score of each mode, against the clipped-slice
        # stencil (or per-axis reference) on the same field
        p = ProbField(ActionGrid(field.shape), (field + 1.0).ravel() / (field + 1.0).sum())
        values = p.values.reshape(field.shape)
        for mode, (cfg, want) in modes_by_reference(values, kind, tau, sigma).items():
            with mock.patch.object(selection, "_SLAB_CELLS", cut):
                res = select(p, cfg)
            best = _result_from_scores(want)
            assert (res.action, res.aggregated_score) == (best.action, best.aggregated_score), mode


def result_bits(res):
    """A SelectionResult's fields, its floats by their bits."""
    return (res.action, res.aggregated_score.hex(), res.runner_up_gap.hex(),
            res.candidates_evaluated, res.flags)


@st.composite
def slab_prob_fields(draw):
    """A ProbField from ``slab_fields``, made positive, or two equal spikes on
    zeros in the first and the last cell, which lie in different slabs."""
    field = draw(slab_fields())
    if draw(st.booleans()):
        field = np.zeros(field.shape)
        field.flat[0] = field.flat[-1] = 1.0
    else:
        field = field + 1.0
    return ProbField(ActionGrid(field.shape), field.ravel() / field.sum())


def box_sums(p, tau):
    """``ua_fast``'s whole score array: chebyshev box sums, axis by axis."""
    reach = tuple(ball_reach(p.grid, CHEB, tau))
    return _aggregate(p.grid, p.values, selection._box_layouts(p.grid.dims, reach))


def full_field_scores(p, kind, tau, sigma):
    """{mode: (config, its whole score array)} for ua_exact, ua_fast (chebyshev
    only) and gaussian on p."""
    metric = Metric(kind)
    out = {"ua_exact": (SelectionConfig(metric=metric, tau=tau),
                        neighborhood_sums(p.grid, p.values, metric, tau)),
           "gaussian": (SelectionConfig(sigma=sigma, mode="gaussian"),
                        gaussian_blur(p.grid, p.values, sigma))}
    if kind == "chebyshev":
        out["ua_fast"] = (SelectionConfig(metric=metric, tau=tau, mode="ua_fast"),
                          box_sums(p, tau))
    return out


class TestSlabTops:
    """Each lane's per-slab (argmax, best, runner-up), merged in slab order,
    is the whole score array's result, bit for bit."""

    @given(slab_prob_fields(), st.sampled_from(KINDS), st.floats(0.3, 6.0) | st.just(1000.0),
           st.floats(0.2, 4.0), slab_cuts())
    @settings(max_examples=150, deadline=None)
    def test_merged_tops_equal_the_whole_array_result(self, p, kind, tau, sigma, cut):
        with mock.patch.object(selection, "_SLAB_CELLS", cut):
            for mode, (cfg, scores) in full_field_scores(p, kind, tau, sigma).items():
                res = select(p, cfg)
                assert result_bits(res) == result_bits(_result_from_scores(scores)), mode
                tied = np.flatnonzero(scores == scores.max())
                assert res.action == tied[0], mode
                if len(tied) > 1:
                    assert res.runner_up_gap == 0.0, mode

    @pytest.mark.parametrize("cfg", [
        SelectionConfig(metric=EUCL, tau=0.5),
        SelectionConfig(metric=CHEB, tau=0.5, mode="ua_fast"),
        SelectionConfig(sigma=1.0, mode="gaussian")], ids=["ua_exact", "ua_fast", "gaussian"])
    def test_first_slab_wins_a_tie_across_slabs(self, cfg):
        # equal spikes in the first and the last of six one-row slabs, beyond
        # each other's reach: both cells score the maximum, bit for bit
        grid = ActionGrid((6, 5))
        v = np.zeros(grid.size)
        v[0] = v[-1] = 0.5
        p = ProbField(grid, v)
        with mock.patch.object(selection, "_SLAB_CELLS", 5), \
                mock.patch("uacal.calibration._beside", wraps=calibration._beside) as beside:
            res = select(p, cfg)
        assert beside.call_count == 1
        assert (res.action, res.runner_up_gap, res.candidates_evaluated) == (0, 0.0, grid.size)
        assert res.aggregated_score > 0.0

    def test_flat_field_ties_go_to_the_lowest_cell(self):
        # ua_fast's full boxes on a flat field: every cell of the grid ties
        grid = ActionGrid((10, 4, 3))
        p = ProbField(grid, np.full(grid.size, 1.0 / grid.size))
        with mock.patch.object(selection, "_SLAB_CELLS", 12):
            res = select(p, SelectionConfig(metric=CHEB, tau=1000.0, mode="ua_fast"))
            sums = box_sums(p, 1000.0)
        assert np.all(sums == sums[0])
        assert (res.action, res.aggregated_score, res.runner_up_gap) == (0, sums[0], 0.0)


def both_lanes_enter():
    """A function each lane calls first: a lane's first call waits until the
    other lane holds a slab too, so both surely take one."""
    barrier, entered = threading.Barrier(2), set()

    def enter():
        lane = threading.current_thread()
        if lane not in entered:
            entered.add(lane)
            barrier.wait(timeout=10)
    return enter


class TestLanes:
    GRID = ActionGrid((12, 10, 8))

    def every_mode(self, p):
        """Every 3-axis full-field kernel on p: at _SLAB_CELLS = 80, each slab
        is one row of GRID, so every call runs on two lanes."""
        cfgs = [SelectionConfig(metric=EUCL, tau=2.5), SelectionConfig(metric=CHEB, tau=4.5),
                SelectionConfig(metric=CHEB, tau=4.5, mode="ua_fast"),
                SelectionConfig(metric=EUCL, tau=2.5, alpha=0.0, k=p.grid.size,
                                mode="ua_restricted")]
        return [select(p, cfg) for cfg in cfgs]

    def test_every_kernel_joins_its_worker(self, rng):
        p = random_prob_field(rng, self.GRID)
        before = threading.enumerate()
        with mock.patch.object(selection, "_SLAB_CELLS", 80), \
                mock.patch("uacal.calibration._beside", wraps=calibration._beside) as beside:
            for res in self.every_mode(p):
                assert threading.enumerate() == before
            flat = ProbField(ActionGrid((40, 30)), np.full(1200, 1 / 1200))
            gaussian_select(flat, SelectionConfig(sigma=2.0, mode="gaussian"))
            assert threading.enumerate() == before
        assert beside.call_count == 5

    def test_two_lanes_give_one_lanes_bits(self, rng):
        p = random_prob_field(rng, self.GRID)
        one = self.every_mode(p)
        with mock.patch.object(selection, "_SLAB_CELLS", 80):
            assert self.every_mode(p) == one

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_a_lane_error_reaches_the_caller(self, rng, where):
        p = random_prob_field(rng, self.GRID)
        caller, enter = threading.current_thread(), both_lanes_enter()
        shift_add = selection._shift_add

        def failing(*args):
            enter()
            if (threading.current_thread() is caller) == (where == "caller"):
                raise RuntimeError(f"failed on the {where}")
            return shift_add(*args)

        before = threading.enumerate()
        with mock.patch.object(selection, "_SLAB_CELLS", 80), \
                mock.patch.object(selection, "_shift_add", failing), \
                pytest.raises(RuntimeError, match=f"failed on the {where}"):
            ua_select(p, SelectionConfig(metric=CHEB, tau=1.5))
        assert threading.enumerate() == before

    def test_one_slab_field_starts_no_thread(self, rng):
        # a 64x64 field is one slab: every mode runs on the caller alone
        p = random_prob_field(rng, ActionGrid((64, 64)))
        with mock.patch("uacal.calibration._beside", wraps=calibration._beside) as beside:
            for cfg in (SelectionConfig(metric=EUCL, tau=2.5),
                        SelectionConfig(metric=CHEB, tau=4.5, mode="ua_fast"),
                        SelectionConfig(sigma=1.0, mode="gaussian"),
                        SelectionConfig(metric=EUCL, tau=2.5, alpha=0.0, k=p.grid.size,
                                        mode="ua_restricted")):
                select(p, cfg)
        assert beside.call_count == 0


class TestGaussianTaps:
    @given(st.floats(0.1, 300.0) | st.sampled_from([64.0, 1e3, 1e5]), st.integers(0, 200))
    @settings(max_examples=200, deadline=None)
    def test_taps_are_the_kernels_taps_that_land(self, sigma, reach):
        r = math.ceil(3.0 * sigma)
        kept = min(r, reach)
        want = gaussian_kernel(sigma)[r - kept:r + kept + 1]
        got = selection._gaussian_taps(sigma, reach)
        if r <= reach or sigma < selection._SUMMED_SIGMA:
            assert got.tobytes() == want.tobytes()
        else:  # the closed-form normaliser may move the last bits
            assert np.abs(got / want - 1.0).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_blur_refuses_a_bad_sigma(self, sigma):
        grid = ActionGrid((8, 8))
        with pytest.raises(ParameterError, match="sigma must be finite and positive"):
            gaussian_blur(grid, np.ones(grid.size), sigma)

    def test_cold_cost_does_not_grow_with_sigma(self):
        # a cold call at sigma = 1e5 against one at sigma = dims: time (best of
        # 5, as one call takes about a millisecond) and tracemalloc peak within 2x
        grid = ActionGrid((64, 64))
        v = np.random.default_rng(5).random(grid.size)

        def cold(sigma):
            best = math.inf
            for _ in range(5):
                selection._gaussian_layouts.cache_clear()
                t0 = time.perf_counter()
                gaussian_blur(grid, v, sigma)
                best = min(best, time.perf_counter() - t0)
            selection._gaussian_layouts.cache_clear()
            return best, TestKernelMemory.peak_bytes(lambda: gaussian_blur(grid, v, sigma))

        (t_dims, peak_dims), (t_big, peak_big) = cold(64.0), cold(1e5)
        assert t_big <= 2 * t_dims
        assert peak_big <= 2 * peak_dims
