"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: they
enumerate cells, compute distances pairwise, and bin in two passes, so
they can serve as references for the optimized implementations.
"""

import itertools
import math
import time

import numpy as np
import pytest

from uacal import dataset_io
from uacal.action_space import ActionGrid, Metric, coords_of
from uacal.calibration import LogitBatch


def batch_of(samples):
    """The LogitBatch holding the same records as a sample list."""
    return LogitBatch(samples[0].logits.grid,
                      np.stack([s.logits.values for s in samples]),
                      [s.expert for s in samples], [s.task_id for s in samples])


def metric_units(grid: ActionGrid, metric: Metric):
    scale = metric.scale or (1.0,) * grid.ndim
    return [c * s for c, s in zip(grid.cell_size, scale)]


def oracle_distance(grid: ActionGrid, metric: Metric, ca, cb) -> float:
    units = metric_units(grid, metric)
    gaps = [abs(a - b) * u for a, b, u in zip(ca, cb, units)]
    if metric.kind == "euclidean":
        return math.sqrt(sum(g * g for g in gaps))
    if metric.kind == "chebyshev":
        return max(gaps)
    return sum(gaps)


def all_coords(grid: ActionGrid):
    return list(itertools.product(*(range(d) for d in grid.dims)))


def oracle_neighborhood(grid: ActionGrid, metric: Metric, a: int, tau: float):
    """Flat indices within strict tau of a, by full O(|A|) scan."""
    ca = coords_of(grid, a)
    out = []
    for flat, cb in enumerate(all_coords(grid)):
        if oracle_distance(grid, metric, ca, cb) < tau:
            out.append(flat)
    return out


def oracle_neighborhood_sums(grid: ActionGrid, values, metric: Metric, tau: float):
    """O(|A|^2) aggregation oracle; use on small grids only."""
    values = np.asarray(values, dtype=np.float64)
    coords = all_coords(grid)
    sums = np.zeros(grid.size)
    for i, ci in enumerate(coords):
        for j, cj in enumerate(coords):
            if oracle_distance(grid, metric, ci, cj) < tau:
                sums[i] += values[j]
    return sums


def oracle_gaussian_blur(grid: ActionGrid, values, sigma: float):
    """Dense full-kernel 2-D (or 1-D) convolution with zero padding."""
    r = math.ceil(3.0 * sigma)
    offs = range(-r, r + 1)
    kern1 = np.array([math.exp(-0.5 * (o / sigma) ** 2) for o in offs])
    kern1 /= kern1.sum()
    field = np.asarray(values, dtype=np.float64).reshape(grid.dims)
    out = np.zeros_like(field)
    if grid.ndim == 1:
        for i in range(grid.dims[0]):
            for o in offs:
                j = i + o
                if 0 <= j < grid.dims[0]:
                    out[i] += kern1[o + r] * field[j]
        return out.ravel()
    kern2 = np.outer(kern1, kern1)
    for y in range(grid.dims[0]):
        for x in range(grid.dims[1]):
            acc = 0.0
            for oy in offs:
                for ox in offs:
                    yy, xx = y + oy, x + ox
                    if 0 <= yy < grid.dims[0] and 0 <= xx < grid.dims[1]:
                        acc += kern2[oy + r, ox + r] * field[yy, xx]
            out[y, x] = acc
    return out.ravel()


def oracle_ece(confidences, corrects, n_bins: int) -> float:
    """Two-pass binning oracle for expected calibration error."""
    n = len(confidences)
    assignments = []
    for c in confidences:
        b = int(c * n_bins)
        assignments.append(min(b, n_bins - 1))
    total = 0.0
    for b in range(n_bins):
        members = [i for i, a in enumerate(assignments) if a == b]
        if not members:
            continue
        conf = sum(confidences[i] for i in members) / len(members)
        acc = sum(corrects[i] for i in members) / len(members)
        total += (len(members) / n) * abs(acc - conf)
    return total


def random_prob_field(rng, grid: ActionGrid):
    from uacal.calibration import ProbField
    v = rng.random(grid.size) + 1e-6
    v /= v.sum()
    return ProbField(grid, v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def slow_digest(monkeypatch):
    """Makes every ``dataset_io._digest`` call take 50 ms longer, so a hash
    worker that was not joined is still alive when a test looks; returns the
    list of finished calls' buffer counts."""
    real, finished = dataset_io._digest, []

    def slow(*buffers):
        time.sleep(0.05)
        digest = real(*buffers)
        finished.append(len(buffers))
        return digest

    monkeypatch.setattr(dataset_io, "_digest", slow)
    return finished
