"""Discretized action grids, flat-index enumeration, and action metrics.

Actions live on a rectangular grid of 1-4 axes. Each action is identified
either by its per-axis cell coordinates or by a flat row-major index
(last axis fastest); the two views are bijective. Distances between
actions are computed on cell coordinates scaled by the physical cell size
and optional per-axis metric scales, so a radius keeps its meaning across
grid resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundsError, ParameterError

MAX_AXES = 4

METRIC_KINDS = ("euclidean", "chebyshev", "manhattan")


@dataclass(frozen=True)
class ActionGrid:
    """A finite discretized action space with row-major enumeration."""

    dims: tuple[int, ...]
    cell_size: tuple[float, ...] = ()

    def __post_init__(self):
        if not all(float(d).is_integer() for d in self.dims):
            raise ParameterError(f"every dim must be an integer, got {tuple(self.dims)}")
        dims = tuple(int(d) for d in self.dims)
        if not 1 <= len(dims) <= MAX_AXES:
            raise ParameterError(f"grid must have 1-{MAX_AXES} axes, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ParameterError(f"every dim must be >= 1, got {dims}")
        cell = self.cell_size or (1.0,) * len(dims)
        cell = tuple(float(c) for c in cell)
        if len(cell) != len(dims):
            raise ParameterError("cell_size length must match number of axes")
        if any(not 0.0 < c < math.inf for c in cell):
            raise ParameterError("cell_size entries must be finite and positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "cell_size", cell)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total action count |A|."""
        return math.prod(self.dims)


@dataclass(frozen=True)
class Metric:
    """Distance on the action grid: euclidean, chebyshev, or manhattan."""

    kind: str = "euclidean"
    scale: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ParameterError(f"unknown metric kind {self.kind!r}")
        if self.scale:
            scale = tuple(float(s) for s in self.scale)
            if any(not 0.0 < s < math.inf for s in scale):
                raise ParameterError("metric scale factors must be finite and strictly positive")
            object.__setattr__(self, "scale", scale)

    def axis_units(self, grid: ActionGrid) -> np.ndarray:
        """Physical length of one cell step per axis under this metric."""
        scale = self.scale or (1.0,) * grid.ndim
        if len(scale) != grid.ndim:
            raise ParameterError("metric scale length must match grid axes")
        return np.asarray(grid.cell_size, dtype=np.float64) * np.asarray(scale)


def flat_index(grid: ActionGrid, coords: Sequence[int]) -> int:
    """Row-major flat index of per-axis cell coordinates."""
    if len(coords) != grid.ndim:
        raise BoundsError(f"expected {grid.ndim} coordinates, got {len(coords)}")
    idx = 0
    for c, d in zip(coords, grid.dims):
        c = int(c)
        if not 0 <= c < d:
            raise BoundsError(f"coordinate {c} out of range [0, {d})")
        idx = idx * d + c
    return idx


def coords_of(grid: ActionGrid, idx: int) -> tuple[int, ...]:
    """Per-axis cell coordinates of a flat index (inverse of flat_index)."""
    idx = int(idx)
    if not 0 <= idx < grid.size:
        raise BoundsError(f"flat index {idx} out of range [0, {grid.size})")
    out = []
    for d in reversed(grid.dims):
        out.append(idx % d)
        idx //= d
    return tuple(reversed(out))


def _lengths(delta: np.ndarray, units: np.ndarray, kind: str) -> np.ndarray:
    """Metric length of each coordinate offset along the last axis of ``delta``."""
    scaled = np.abs(delta) * units
    if kind == "euclidean":
        return np.sqrt(np.sum(scaled * scaled, axis=-1))
    if kind == "chebyshev":
        return np.max(scaled, axis=-1)
    return np.sum(scaled, axis=-1)


def distance(grid: ActionGrid, m: Metric, a: int, b: int) -> float:
    """Metric distance between two actions given by flat index."""
    ca = np.asarray(coords_of(grid, a), dtype=np.float64)
    cb = np.asarray(coords_of(grid, b), dtype=np.float64)
    return float(_lengths(ca - cb, m.axis_units(grid), m.kind))


def ball_reach(grid: ActionGrid, m: Metric, tau: float) -> list[int]:
    """Per-axis reach of ``ball_offsets(grid, m, tau)`` without building it.

    Every metric measures k steps along one axis as k * unit, and no offset
    reaches further along an axis than that one, so the reach is the largest
    k <= dims - 1 with k * unit < tau (0 when tau == 0). That is dims - 1
    when (dims - 1) * unit < tau, tested first as tau / unit can overflow
    there; otherwise it is searched down from ceil(tau / unit), as the
    rounded quotient can fall either side of an integer k.
    """
    if not 0 <= tau < math.inf:
        raise ParameterError(f"tau must be finite and nonnegative, got {tau}")
    reach = []
    for u, n in zip(m.axis_units(grid), grid.dims):
        k = n - 1 if (n - 1) * u < tau else math.ceil(tau / u)
        while k > 0 and k * u >= tau:
            k -= 1
        reach.append(k)
    return reach


def ball_offsets(grid: ActionGrid, m: Metric, tau: float) -> np.ndarray:
    """Integer coordinate offsets with metric length strictly below tau.

    The metric is translation invariant on coordinates, so the tau-ball
    around any action is this stencil clipped to the grid. Each axis's
    reach is capped at dims - 1, since a longer offset never lands on the
    grid. Shape (n_offsets, ndim); empty when tau == 0, as every length is >= 0.
    """
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in ball_reach(grid, m, tau)]
    mesh = np.meshgrid(*axes, indexing="ij")
    offs = np.stack([g.ravel() for g in mesh], axis=-1)
    return offs[_lengths(offs, m.axis_units(grid), m.kind) < tau]


def neighborhood(grid: ActionGrid, m: Metric, a: int, tau: float) -> np.ndarray:
    """Flat indices b with distance(a, b) < tau, ascending.

    Strict inequality: tau = 0 yields the empty set.
    """
    pts = np.asarray(coords_of(grid, a), dtype=np.int64) + ball_offsets(grid, m, tau)
    pts = pts[np.all((pts >= 0) & (pts < grid.dims), axis=1)]
    return np.sort(np.ravel_multi_index(pts.T, grid.dims))
