"""Action selection over probability fields.

Five modes:

* ``greedy``       - argmax of the probabilities.
* ``ua_exact``     - argmax of the summed probability over each action's
                     tau-neighborhood (strict ``d < tau``), evaluated
                     exactly for any metric via a translation-invariant
                     stencil.
* ``ua_fast``      - same neighborhoods for the chebyshev metric, whose
                     tau-ball is a box: separable unit-tap sums per axis.
* ``ua_restricted``- thresholded variant: keep actions above a probability
                     floor (top-k capped), zero the rest, and run the
                     stencil on a window around their mean coordinate,
                     grown by the stencil reach.
* ``gaussian``     - separable truncated-Gaussian blur of the field
                     (1-2 axes), then argmax.

Two kernels compute every aggregate: the stencil (``ua_exact``,
``ua_restricted``) and a separable per-axis tap kernel (``ua_fast``,
``gaussian``). Both shift-add over a zero-padded, flattened field, where
an out-of-range term reads a padding zero; adding +0.0 is exact, so each
cell gets the clipped sums' terms in their order. Every mode breaks ties
by lowest flat index and is bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action_space import ActionGrid, Metric, ball_offsets, ball_reach
from .calibration import ProbField
from .errors import ParameterError, UnsupportedConfigError

MODES = ("greedy", "ua_exact", "ua_fast", "ua_restricted", "gaussian")

DEFAULT_K = 4000          # top-k cap on retained actions in restricted search
DEFAULT_WINDOW = 16       # restricted-search window edge length, cells
_CHUNK = 1 << 14          # output cells per shift-add pass (128 KiB of float64)


@dataclass(frozen=True)
class SelectionConfig:
    metric: Metric = Metric("euclidean")
    tau: float = 1.5
    alpha: float | None = None   # None -> 1/|A| at call time
    k: int = DEFAULT_K
    window: int = DEFAULT_WINDOW
    sigma: float = 1.0
    mode: str = "ua_exact"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not 0 <= self.tau < math.inf:
            raise ParameterError(f"tau must be finite and nonnegative, got {self.tau}")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")
        if self.k < 1:
            raise ParameterError("k must be >= 1")
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


def _result_from_scores(scores: np.ndarray, actions: np.ndarray | None = None,
                        flags: tuple[str, ...] = ()) -> SelectionResult:
    """Lowest-first argmax plus margin; ``actions`` maps positions to flat ids."""
    pos = int(np.argmax(scores))
    best = float(scores[pos])
    if scores.size > 1:
        second = max(scores[:pos].max(initial=-np.inf),
                     scores[pos + 1:].max(initial=-np.inf))
        gap = best - float(second)
    else:
        gap = 0.0
    action = pos if actions is None else int(actions[pos])
    return SelectionResult(action, best, gap, int(scores.size), flags)


def _empty_neighborhoods(p: ProbField) -> SelectionResult:
    """Every aggregation mode at tau == 0, where each strict d < tau ball is empty."""
    return SelectionResult(0, 0.0, 0.0, p.grid.size, ("degenerate_neighborhood",))


def greedy_select(p: ProbField) -> SelectionResult:
    """Pick the action with maximum probability (lowest index on ties)."""
    return _result_from_scores(p.values)


def _shift_add(src: np.ndarray, out: np.ndarray, start: int, stop: int,
               shifts, weights) -> None:
    """out[c - start] = sum of weights[k] * src[c + shifts[k]] for c in [start, stop).

    ``src`` must be zero outside [start, stop). One cache-sized chunk of
    cells at a time, terms in ``k`` order, each read one contiguous slice;
    reads wholly in the zeros and unit-weight multiplies are skipped, both
    exactly. A chunk is stored after its reads and later chunks read above
    it, so ``out`` may be ``src`` when every shift is >= -start.
    """
    acc_buf, tmp = np.empty((2, min(_CHUNK, stop - start)))
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        acc, t = acc_buf[:b - a], tmp[:b - a]
        acc.fill(0.0)  # so a lone -0.0 term sums to +0.0, as in a zeroed loop
        for s, w in zip(shifts, weights):
            if a + s < stop and b + s > start:
                term = src[a + s:b + s]
                acc += term if w == 1.0 else np.multiply(term, w, out=t)
        out[a - start:b - start] = acc


def _shifted_sums(field: np.ndarray, offsets: np.ndarray, weights=None) -> np.ndarray:
    """sums[x] = sum of weights[k] * field[x + offsets[k]] over in-bounds x + offsets[k].

    Each axis is zero-padded on its high side only, by the offsets' reach:
    a low-side overrun wraps into the previous row's padding, or into the
    ``lead`` zeros in front. The sums overwrite the buffer, shifted down.
    """
    shape = np.array(field.shape)
    keep = (np.abs(offsets) < shape).all(axis=1)
    offsets = offsets[keep]
    weights = np.ones(len(offsets)) if weights is None else np.asarray(weights)[keep]
    reach = np.abs(offsets).max(axis=0, initial=0)
    padded = tuple(shape + reach)
    strides = np.cumprod((padded[1:] + (1,))[::-1])[::-1]
    lead = int(reach @ strides)
    interior = tuple(slice(0, n) for n in field.shape)
    buf = np.zeros(lead + math.prod(padded))
    buf[lead:].reshape(padded)[interior] = field
    _shift_add(buf, buf, lead, lead + int((shape - 1) @ strides) + 1,
               (offsets @ strides).tolist(), weights.tolist())
    return buf[:math.prod(padded)].reshape(padded)[interior]


def neighborhood_sums(grid: ActionGrid, values: np.ndarray, metric: Metric,
                      tau: float) -> np.ndarray:
    """Exact per-action sum of ``values`` over the strict tau-ball, flat order."""
    offs = ball_offsets(grid, metric, tau)
    field = np.asarray(values, dtype=np.float64).reshape(grid.dims)
    return _shifted_sums(field, offs).ravel()


def ua_select(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Exact neighborhood-aggregation selection (any metric)."""
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    sums = neighborhood_sums(p.grid, p.values, cfg.metric, cfg.tau)
    return _result_from_scores(sums)


def _separable_sums(field: np.ndarray, taps) -> np.ndarray:
    """Per-axis zero-padded shift-add with odd, centered ``taps[ax]``.

    Along each axis in turn, out[x] = sum of taps[o + r] * field[x + o] over
    in-bounds o, added in ascending o, so cells whose clipped windows hold
    equal values get bit-identical sums. Only the summed axis is padded.
    """
    for ax, w in enumerate(taps):
        r = len(w) // 2
        offsets = np.zeros((len(w), field.ndim), dtype=np.int64)
        offsets[:, ax] = np.arange(-r, r + 1)
        field = _shifted_sums(field, offsets, w)
    return field


def ua_select_fast(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Chebyshev neighborhoods on 1-3 axis grids as separable box sums.

    The chebyshev tau-ball is a box, so unit taps spanning the stencil's
    per-axis reach give the same neighborhood as ``ua_select``.
    """
    if cfg.metric.kind != "chebyshev":
        raise UnsupportedConfigError(
            f"ua_select_fast requires the chebyshev metric, got {cfg.metric.kind!r}")
    if p.grid.ndim > 3:
        raise UnsupportedConfigError("ua_select_fast supports 1-3 axis grids")
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    reach = ball_reach(p.grid, cfg.metric, cfg.tau)
    field = np.asarray(p.values, dtype=np.float64).reshape(p.grid.dims)
    sums = _separable_sums(field, [np.ones(2 * h + 1) for h in reach])
    return _result_from_scores(sums.ravel())


def ua_select_restricted(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Restricted-search aggregation around the high-probability region.

    Actions outside the retained set are zeroed; the stencil then runs on a
    window around the retained mean, grown by the stencil reach so every
    window cell sees its whole clipped neighborhood.
    """
    if cfg.tau == 0.0:
        return _empty_neighborhoods(p)
    grid = p.grid
    values = p.values
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / grid.size
    retained = np.flatnonzero(values > alpha)
    if retained.size == 0:
        res = greedy_select(p)
        return replace(res, flags=res.flags + ("empty_retained_fallback",))
    if retained.size > cfg.k:
        # k highest probabilities, ties by lowest flat index
        order = np.lexsort((retained, -values[retained]))
        retained = np.sort(retained[order[:cfg.k]])

    dims = np.asarray(grid.dims, dtype=np.int64)
    r_coords = np.stack(np.unravel_index(retained, grid.dims), axis=-1)
    center = np.floor(r_coords.mean(axis=0) + 0.5).astype(np.int64)
    center = np.minimum(np.maximum(center, 0), dims - 1)
    half = cfg.window // 2
    lo = np.maximum(center - half, 0)
    hi = np.minimum(center + half + 1, dims)

    offs = ball_offsets(grid, cfg.metric, cfg.tau)
    reach = np.abs(offs).max(axis=0, initial=0)
    crop_lo = np.maximum(lo - reach, 0)
    crop = tuple(slice(a, b) for a, b in zip(crop_lo, np.minimum(hi + reach, dims)))
    masked = np.zeros(grid.size)
    masked[retained] = values[retained]
    sums = _shifted_sums(masked.reshape(grid.dims)[crop], offs)
    window = tuple(slice(a - c, b - c) for a, b, c in zip(lo, hi, crop_lo))
    cells = np.indices(tuple(hi - lo)).reshape(grid.ndim, -1) + lo[:, None]
    return _result_from_scores(sums[window].ravel(),
                               actions=np.ravel_multi_index(tuple(cells), grid.dims))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Sampled Gaussian truncated at radius ceil(3*sigma), normalized to sum 1."""
    if not 0 < sigma < math.inf:
        raise ParameterError(f"sigma must be finite and positive, got {sigma}")
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(grid: ActionGrid, values: np.ndarray, sigma: float) -> np.ndarray:
    """Separable per-axis blur with zero padding, flat order."""
    field = np.asarray(values, dtype=np.float64).reshape(grid.dims)
    return _separable_sums(field, [gaussian_kernel(sigma)] * grid.ndim).ravel()


def gaussian_select(p: ProbField, cfg: SelectionConfig) -> SelectionResult:
    """Argmax of the Gaussian-blurred field (1-2 axis grids)."""
    if p.grid.ndim > 2:
        raise UnsupportedConfigError("gaussian_select supports 1-2 axis grids")
    blurred = gaussian_blur(p.grid, p.values, cfg.sigma)
    return _result_from_scores(blurred)


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
