"""Action selection over probability fields.

Five modes:

* ``greedy``       - argmax of the probabilities.
* ``ua_exact``     - argmax of the summed probability over each action's
                     tau-neighborhood (strict ``d < tau``), evaluated
                     exactly for any metric via a translation-invariant
                     stencil.
* ``ua_fast``      - same neighborhoods for the chebyshev metric, whose
                     tau-ball is a box: separable unit-tap sums per axis.
* ``ua_restricted``- thresholded variant: keep the top-k actions above a
                     probability floor and score only those, each by its
                     ``ua_exact`` sum over the whole field.
* ``gaussian``     - argmax of the field's separable truncated-Gaussian blur.

One function computes every full-field aggregate: it adds shifted reads of a
zero-padded, flattened field through the stencil's layout (``ua_exact``,
``ua_restricted``) or one per-axis tap layout per axis (``ua_fast``,
``gaussian``). An out-of-range term reads a padding zero; adding +0.0 is
exact, so each cell gets the clipped sums' terms in their order. Every mode
breaks ties by lowest flat index and is bit-deterministic.

The full-field aggregate cuts the grid along axis 0 into slabs of at least
_SLAB_CELLS cells, and runs them through ``calibration._two_lanes``, the lane
scheduler the calibration pass uses; a grid of one slab runs on the caller
alone. Each slab's rows get the bits the whole grid gives them, so results
do not depend on the cut or the lane. Each lane's buffer is its scratch for
one slab, made once per call. For ``ua_exact``, ``ua_fast`` and ``gaussian``
the lane that sums a slab reduces it to (first argmax, best, runner-up), and
those merge in slab order, an earlier slab winning a tie: no score array is
built. ``neighborhood_sums`` and ``gaussian_blur`` copy each slab's sums into
one array; ``_result_from_scores`` serves ``greedy`` and ``ua_restricted``.

Where a field goes in the padded buffer and which shifts are added (its
``_Layout``) depend on the configuration alone: (grid, metric, tau) for the
stencil, (dims, reach) for ``ua_fast`` and (dims, sigma) for ``gaussian``.
Each kernel keeps its last ``_LAYOUTS_KEPT`` layouts in an LRU cache. A kept
stencil holds at most |A| shifts and a kept tap layout fewer than
2 * dims[ax] per axis, so the caches stay bounded by the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .action_space import ActionGrid, Metric, ball_offsets, ball_reach
from .calibration import ProbField, _two_lanes
from .errors import ParameterError, UnsupportedConfigError

MODES = ("greedy", "ua_exact", "ua_fast", "ua_restricted", "gaussian")

DEFAULT_K = 4000          # top-k cap on retained actions in restricted search
# A lane's numpy adds must be long: two threads adding 16K-cell slices ran
# slower than one, through GIL hand-offs, and 48K-64K-cell ones 1.6x faster
# (2 vCPUs); yet a slab and its sums should stay in a core's 2 MiB L2.
_SLAB_CELLS = 1 << 16     # output cells per slab of rows, at least: a lane's unit of work
_LAYOUTS_KEPT = 16        # layouts each kernel's cache keeps, least recently used first out
# ua_restricted's gather costs more than the full stencil from ~8% of |A| at 64^3
_DENSE_SHARE = 0.08       # candidates/|A| from which ua_restricted scores every cell
_SUMMED_SIGMA = 64.0      # Gaussian sigma from which a far tail is summed in closed form


@dataclass(frozen=True)
class SelectionConfig:
    metric: Metric = Metric("euclidean")
    tau: float = 1.5
    alpha: float | None = None   # None -> 1/|A| at call time
    k: int = DEFAULT_K
    window: int = 16             # unused; still accepted and validated
    sigma: float = 1.0
    mode: str = "ua_exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not 0 <= self.tau < math.inf:
            raise ParameterError(f"tau must be finite and nonnegative, got {self.tau}")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ParameterError(f"k must be an integer >= 1, got {self.k!r}")
        if self.window < 1:
            raise ParameterError("window must be >= 1")
        if self.mode == "gaussian" and not 0 < self.sigma < math.inf:
            raise ParameterError(
                f"sigma must be finite and positive for gaussian mode, got {self.sigma}")


@dataclass(frozen=True)
class SelectionResult:
    action: int
    aggregated_score: float
    runner_up_gap: float
    candidates_evaluated: int
    flags: tuple[str, ...] = ()


def _top2(scores: np.ndarray, at: int = 0) -> tuple[int, float, float]:
    """(at + first argmax, its score, the largest other score or -inf)."""
    pos = int(np.argmax(scores))
    second = max(scores[:pos].max(initial=-np.inf), scores[pos + 1:].max(initial=-np.inf))
    return at + pos, float(scores[pos]), float(second)


def _result_from_tops(tops, n: int, actions: np.ndarray | None = None) -> SelectionResult:
    """Lowest-first argmax plus margin of n scores from the ``_top2`` of their
    consecutive parts, in order: a tie goes to the earlier part. ``actions``
    maps positions to flat ids."""
    pos, best, second = tops[0]
    for at, b, s in tops[1:]:
        if b > best:
            pos, best, second = at, b, max(best, s)
        else:
            second = max(second, b)
    action = pos if actions is None else int(actions[pos])
    return SelectionResult(action, best, best - second if n > 1 else 0.0, n)


def _result_from_scores(scores: np.ndarray, actions: np.ndarray | None = None) -> SelectionResult:
    """Lowest-first argmax plus margin; ``actions`` maps positions to flat ids."""
    return _result_from_tops([_top2(scores)], int(scores.size), actions)


def _empty_neighborhoods(p: ProbField) -> SelectionResult:
    """Every aggregation mode at tau == 0, where each strict d < tau ball is empty."""
    return SelectionResult(0, 0.0, 0.0, p.grid.size, ("degenerate_neighborhood",))


def greedy_select(p: ProbField) -> SelectionResult:
    """Pick the action with maximum probability (lowest index on ties)."""
    return _result_from_scores(p.values)


def _shift_add(dst: np.ndarray, src: np.ndarray, first: int, shifts, weights,
               tmp: np.ndarray) -> None:
    """dst[i] = sum of weights[k] * src[first + i + shifts[k]] over k, in k order.

    Every read must lie in ``src``, which ``dst`` must not overlap. Each term
    is one contiguous slice; unit-weight multiplies, the only ones ``tmp`` is
    needed for, are skipped, exactly.
    """
    n = len(dst)
    t = tmp[:n]
    dst.fill(0.0)  # so a lone -0.0 term sums to +0.0, as in a zeroed loop
    for s, w in zip(shifts, weights):
        i = first + s
        term = src[i:i + n]
        dst += term if w == 1.0 else np.multiply(term, w, out=t)


class _Layout(NamedTuple):
    """Where ``_fill`` and ``_aggregate`` put a field, and the shifts read.

    Each axis is zero-padded on its high side only, by the kept offsets'
    reach: a low-side overrun wraps into the previous row's padding, or into
    the ``lead`` zeros in front. Cell x sits at buf[lead + flat(x)], flat by
    the ``padded`` shape, and x + kept offset k at that plus ``shifts[k]``.
    """

    padded: tuple[int, ...]
    lead: int
    shifts: np.ndarray            # read-only int64, one per kept offset
    weights: tuple[float, ...]    # one per kept offset


def _layout(shape: tuple[int, ...], offsets: np.ndarray, weights=None) -> _Layout:
    """The layout for shift-adding ``offsets`` (unit ``weights`` by default).

    Offsets that never land in a field of ``shape`` are dropped with their
    weights, as every term they add is a padding zero.
    """
    keep = (np.abs(offsets) < shape).all(axis=1)
    offsets = offsets[keep]
    reach = np.abs(offsets).max(axis=0, initial=0)
    padded = tuple((np.array(shape) + reach).tolist())
    strides = np.cumprod((padded[1:] + (1,))[::-1])[::-1]
    shifts = offsets @ strides
    shifts.flags.writeable = False
    weights = ((1.0,) * len(shifts) if weights is None
               else tuple(np.asarray(weights, dtype=np.float64)[keep].tolist()))
    return _Layout(padded, int(reach @ strides), shifts, weights)


def _fill(field: np.ndarray, lay: _Layout) -> np.ndarray:
    """A fresh zero buffer holding ``field`` where ``lay`` puts it."""
    buf = np.zeros(lay.lead + math.prod(lay.padded))
    buf[lay.lead:].reshape(lay.padded)[tuple(map(slice, field.shape))] = field
    return buf


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _kept_stencil_layout(grid: ActionGrid, metric: Metric, tau: float) -> _Layout | None:
    """The tau-ball's layout when its box holds at most |A| offsets, else None.

    A ball in a larger box makes of the order of |A| or more passes over the
    field, next to which its layout is cheap to build, so it is not kept.
    """
    if math.prod(2 * r + 1 for r in ball_reach(grid, metric, tau)) > grid.size:
        return None
    return _layout(grid.dims, ball_offsets(grid, metric, tau))


def _stencil_layout(grid: ActionGrid, metric: Metric, tau: float) -> _Layout:
    """The strict tau-ball's layout on ``grid``, from the cache when kept there."""
    lay = _kept_stencil_layout(grid, metric, tau)
    return _layout(grid.dims, ball_offsets(grid, metric, tau)) if lay is None else lay


def _slabs(grid: ActionGrid, values: np.ndarray, layouts, finish) -> list:
    """[finish(sums, at) for each slab], in slab order: sums holds the slab's
    part of ``values`` shift-added through each of ``layouts`` in turn, flat
    in the lane's scratch, and at is the flat index of its first cell.

    sums[x] = sum of weights[k] * field[x + offsets[k]] over in-bounds
    x + offsets[k]. One stencil layout gives its neighborhood sums. One
    ``_axis_layouts`` layout per axis sums along each axis in turn, taps in
    ascending offset, so cells whose clipped windows hold equal values get
    bit-identical sums. Only the first layout may reach along axis 0, as a
    later pass reads only its slab's rows of the pass before.

    The grid is cut along axis 0 into slabs of at least _SLAB_CELLS cells,
    which ``calibration._two_lanes`` hands to its lanes; a lane's buffer is
    its scratch for one slab, so memory stays bounded by the grid. A slab
    runs every layout in turn on its rows [a, b). A pass lays the rows it
    reads out in the scratch as they lie in the layout's padded field: row a
    at the lead, the rows within the layout's axis-0 reach (the halo) either
    side of [a, b), zeros around. It sums into the scratch's accumulator,
    from which the next pass reads; the scratch's tail takes weighted terms. So
    each cell adds the terms it adds in the whole padded field, in order,
    and gets the bits the whole grid gives it. The pass buffer, unread after
    the last pass, takes the slab's sums, and the lane that summed them runs
    finish on them there.
    """
    dims = grid.dims
    field = np.asarray(values, dtype=np.float64).reshape(dims)
    cells = math.prod(dims[1:])  # per row of the result
    slab = min(-(-_SLAB_CELLS // cells), dims[0])
    lead = width = 0  # the largest lead and padded row over the layouts
    weighted = False
    for lay in layouts:
        lead, width = max(lead, lay.lead), max(width, math.prod(lay.padded[1:]))
        weighted = weighted or lay.weights.count(1.0) < len(lay.weights)
    acc_at = 2 * lead + slab * width
    tmp_at = acc_at + slab * width
    tmp_len = slab * width if weighted else 0
    crop = (slice(None),) + tuple(map(slice, dims[1:]))

    def slab_sums(k, scratch):
        a = k * slab
        b = min(a + slab, dims[0])
        buf, acc, tmp = scratch[:acc_at], scratch[acc_at:tmp_at], scratch[tmp_at:]
        src, at = field, 0  # src holds rows [at, at + len(src)) of the previous pass
        for lay in layouts:
            r, row = lay.padded[0] - dims[0], math.prod(lay.padded[1:])
            lo, hi = max(0, a - r), min(dims[0], b + r)
            padded = buf[:2 * lay.lead + (b - a) * row]
            padded.fill(0.0)
            base = lay.lead - (a - lo) * row
            padded[base:base + (hi - lo) * row].reshape(
                (hi - lo,) + lay.padded[1:])[crop] = src[lo - at:hi - at]
            sums = acc[:(b - a) * row]
            _shift_add(sums, padded, lay.lead, lay.shifts.tolist(), lay.weights, tmp)
            src, at = sums.reshape((b - a,) + lay.padded[1:])[crop], a
        sums = buf[:src.size]
        sums.reshape(src.shape)[...] = src
        return finish(sums, a * cells)

    return _two_lanes(slab_sums, -(-dims[0] // slab), (tmp_at + tmp_len,))


def _aggregate(grid: ActionGrid, values: np.ndarray, layouts) -> np.ndarray:
    """``_slabs``' sums of ``values`` through ``layouts``, in one array, flat order."""
    out = np.empty(grid.size)
    _slabs(grid, values, layouts, lambda sums, at: np.copyto(out[at:at + len(sums)], sums))
    return out


def _aggregate_select(p: ProbField, layouts) -> SelectionResult:
    """``_result_from_scores`` of p's ``_aggregate`` through ``layouts``, from its slabs' tops."""
    return _result_from_tops(_slabs(p.grid, p.values, layouts, _top2), p.grid.size)


def neighborhood_sums(grid: ActionGrid, values: np.ndarray, metric: Metric,
                      tau: float) -> np.ndarray:
    """Exact per-action sum of ``values`` over the strict tau-ball, flat order."""
    return _aggregate(grid, values, (_stencil_layout(grid, metric, tau),))


def ua_select(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Exact neighborhood-aggregation selection (any metric)."""
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    return _aggregate_select(p, (_stencil_layout(p.grid, cfg.metric, cfg.tau),))


def _axis_layouts(dims: tuple[int, ...], taps) -> tuple[_Layout, ...]:
    """One layout per axis, shift-adding the odd, centred ``taps[ax]`` along it.

    Only the summed axis is padded.
    """
    layouts = []
    for ax, w in enumerate(taps):
        r = len(w) // 2
        offsets = np.zeros((len(w), len(dims)), dtype=np.int64)
        offsets[:, ax] = np.arange(-r, r + 1)
        layouts.append(_layout(dims, offsets, w))
    return tuple(layouts)


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _box_layouts(dims: tuple[int, ...], reach: tuple[int, ...]) -> tuple[_Layout, ...]:
    """``ua_fast``'s unit taps spanning ``reach[ax]`` cells either side."""
    return _axis_layouts(dims, [np.ones(2 * h + 1) for h in reach])


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _gaussian_layouts(dims: tuple[int, ...], sigma: float) -> tuple[_Layout, ...]:
    """``gaussian_kernel(sigma)`` along every axis, built from its taps that land."""
    return _axis_layouts(dims, [_gaussian_taps(sigma, max(dims) - 1)] * len(dims))


def ua_select_fast(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Chebyshev neighborhoods as separable box sums.

    The chebyshev tau-ball is a box, so unit taps spanning the stencil's
    per-axis reach give the same neighborhood as ``ua_select``.
    """
    if cfg.metric.kind != "chebyshev":
        raise UnsupportedConfigError(
            f"ua_select_fast requires the chebyshev metric, got {cfg.metric.kind!r}")
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    reach = tuple(ball_reach(p.grid, cfg.metric, cfg.tau))
    return _aggregate_select(p, _box_layouts(p.grid.dims, reach))


def _top_k(indices: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The k of the ascending flat ``indices`` with the highest ``values``,
    ties by lowest index, still ascending: every index above the k-th largest
    value, then the lowest-index ties at it. O(n), where a sort is O(n log n)."""
    if indices.size <= k:
        return indices
    v = values[indices]
    kth = np.partition(v, v.size - k)[v.size - k]
    keep = v > kth
    keep[np.flatnonzero(v == kth)[:k - np.count_nonzero(keep)]] = True
    return indices[keep]


def ua_select_restricted(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Neighborhood aggregation over the retained actions only.

    The candidates are the top-k actions above the probability floor; each
    is scored by its ``ua_select`` neighborhood sum over the whole field, the
    stencil's terms gathered in its order, so bit-identical to
    ``neighborhood_sums`` at that cell. From ``_DENSE_SHARE`` of the grid on,
    gathers cost more than the contiguous stencil pass, which then scores
    every cell. ``candidates_evaluated`` is the candidates' count.
    """
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    grid = p.grid
    values = p.values
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / grid.size
    cands = _top_k(np.flatnonzero(values > alpha), values, cfg.k)
    if cands.size == 0:
        res = greedy_select(p)
        return replace(res, flags=res.flags + ("empty_retained_fallback",))
    if cands.size >= _DENSE_SHARE * grid.size:
        scores = neighborhood_sums(grid, values, cfg.metric, cfg.tau)[cands]
    else:
        lay = _stencil_layout(grid, cfg.metric, cfg.tau)
        buf = _fill(values.reshape(grid.dims), lay)
        base = lay.lead + np.ravel_multi_index(np.unravel_index(cands, grid.dims), lay.padded)
        scores = np.zeros(len(cands))
        for s in lay.shifts.tolist():
            scores += buf[base + s]
    return _result_from_scores(scores, actions=cands)


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), normalized to sum 1."""
    return _gaussian_taps(sigma, math.inf)


def _gaussian_taps(sigma: float, reach: float) -> np.ndarray:
    """``gaussian_kernel(sigma)``'s taps within ``reach`` of its centre.

    While every tap is within reach or sigma < _SUMMED_SIGMA, this is a slice
    of ``gaussian_kernel(sigma)``, bit for bit. Otherwise only the kept taps
    are built, and the normaliser, the sum of all 2 * ceil(3 * sigma) + 1
    taps, is sigma * sqrt(2 pi) (the whole line's sum, exact at such sigma)
    less both tails beyond the radius, each summed by the Euler-Maclaurin
    formula to its third derivative. It matched a correctly rounded sum to
    2 ulp for sigma from 64 to 3e5, and its cost does not grow with sigma.
    """
    if not 0 < sigma < math.inf:
        raise ParameterError(f"sigma must be finite and positive, got {sigma}")
    r = math.ceil(3.0 * sigma)
    if r <= reach or sigma < _SUMMED_SIGMA:
        x = np.arange(-r, r + 1, dtype=np.float64)
        k = np.exp(-0.5 * (x / sigma) ** 2)
        kept = min(r, reach)
        return (k / k.sum())[r - kept:r + kept + 1]
    x = np.arange(-reach, reach + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    a, v = r + 1.0, sigma * sigma
    f = math.exp(-0.5 * (a / sigma) ** 2)
    d1 = -a / v * f
    d3 = (3 * a / v ** 2 - a ** 3 / v ** 3) * f
    tail = (sigma * math.sqrt(math.pi / 2) * math.erfc(a / (sigma * math.sqrt(2)))
            + f / 2 - d1 / 12 + d3 / 720)
    return k / (sigma * math.sqrt(2 * math.pi) - 2 * tail)


def gaussian_blur(grid: ActionGrid, values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable per-axis blur with zero padding, flat order."""
    return _aggregate(grid, values, _gaussian_layouts(grid.dims, sigma))


def gaussian_select(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Argmax of the Gaussian-blurred field."""
    return _aggregate_select(p, _gaussian_layouts(p.grid.dims, cfg.sigma))


def select(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Dispatch on cfg.mode."""
    if cfg.mode == "greedy":
        return greedy_select(p)
    if cfg.mode == "ua_exact":
        return ua_select(p, cfg)
    if cfg.mode == "ua_fast":
        return ua_select_fast(p, cfg)
    if cfg.mode == "ua_restricted":
        return ua_select_restricted(p, cfg)
    return gaussian_select(p, cfg)
