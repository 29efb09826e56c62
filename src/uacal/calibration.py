"""Temperature scaling and calibration diagnostics.

A scalar temperature T divides the logits before softmax. T is fitted by
minimizing mean negative log-likelihood of the expert actions on a
calibration set, via golden-section search on log T. The NLL is an exact
log-softmax computed in bounded row blocks. Diagnostics cover expected
calibration error (ECE), reliability binning, and entropy. All arithmetic
is float64 regardless of storage precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action_space import ActionGrid
from .errors import ParameterError, ValidationError

T_MIN = 1e-2
T_MAX = 1e2
LOG_T_TOL = 1e-5
DEFAULT_BINS = 15
_BLOCK_BYTES = 1 << 20  # float64 bytes per row block of logits

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class LogitField:
    """Raw model scores over an action grid; values finite, length |A|."""

    grid: ActionGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.size,):
            raise ValidationError(
                f"logit vector length {v.shape} does not match |A|={self.grid.size}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("logits must be finite (NaN/Inf rejected)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ProbField:
    """Probability distribution over an action grid; sums to 1 within 1e-9."""

    grid: ActionGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.size,):
            raise ValidationError(
                f"probability vector length {v.shape} does not match |A|={self.grid.size}")
        if np.any(v < 0) or np.any(v > 1):
            raise ValidationError("probabilities must lie in [0, 1]")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {v.sum()!r}, expected 1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class CalibrationSample:
    """One labeled model output: logits, the expert's action, a task id."""

    logits: LogitField
    expert: int
    task_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.expert) < self.logits.grid.size:
            raise ValidationError(
                f"expert index {self.expert} out of range for |A|={self.logits.grid.size}")
        object.__setattr__(self, "expert", int(self.expert))
        object.__setattr__(self, "task_id", int(self.task_id))


@dataclass(frozen=True)
class TemperatureModel:
    """Fitted temperature plus fit metadata."""

    temperature: float
    final_nll: float
    iterations: int
    degenerate: bool = False


@dataclass(frozen=True)
class ReliabilityTable:
    """Per-confidence-bin sample count, mean confidence, and accuracy."""

    bin_edges: np.ndarray       # n_bins + 1 ascending edges over [0, 1]
    counts: np.ndarray          # int, per bin
    mean_confidence: np.ndarray  # nan for empty bins
    accuracy: np.ndarray        # nan for empty bins

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    def ece(self) -> float:
        """Recompute ECE from the table rows."""
        n = int(self.counts.sum())
        if n == 0:
            return 0.0
        filled = self.counts > 0
        gaps = np.abs(self.accuracy[filled] - self.mean_confidence[filled])
        return float(np.sum(self.counts[filled] / n * gaps))


def _softmax64(values: np.ndarray) -> np.ndarray:
    z = values - values.max()
    e = np.exp(z)
    return e / e.sum()


def softmax(f: LogitField) -> ProbField:
    """Shift-stable softmax of a logit field."""
    return ProbField(f.grid, _softmax64(f.values))


def _checked_temperature(T) -> float:
    T = float(T)
    if not 0.0 < T < math.inf:
        raise ParameterError(f"temperature must be positive and finite, got {T}")
    return T


def apply_temperature(f: LogitField, T: float) -> ProbField:
    """Softmax of logits divided by temperature T > 0; T=1 is plain softmax."""
    return ProbField(f.grid, _softmax64(f.values / _checked_temperature(T)))


def _log_softmax_blocks(data, T: float):
    """Yield (log-softmax of logits / T, expert indices) over row blocks of data.

    Each row is z - logsumexp(z) with z = logits / T, exact at any T. A block
    holds at most _BLOCK_BYTES of float64 (or one row, if a row is larger),
    so memory does not grow with n. All samples must share one |A|.
    """
    data = list(data)
    if not data:
        raise ParameterError("calibration requires a nonempty dataset")
    T = _checked_temperature(T)
    rows = max(1, _BLOCK_BYTES // (8 * data[0].logits.grid.size))
    for start in range(0, len(data), rows):
        block = data[start:start + rows]
        z = np.stack([s.logits.values for s in block])
        z /= T
        z -= z.max(axis=1, keepdims=True)
        z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
        yield z, np.array([s.expert for s in block])


def nll(data, T: float) -> float:
    """Mean negative log-likelihood of expert actions at temperature T."""
    picked = [np.take_along_axis(logp, experts[:, None], axis=1)
              for logp, experts in _log_softmax_blocks(data, T)]
    return -float(np.concatenate(picked).mean())


def fit_temperature(data) -> TemperatureModel:
    """Fit the temperature minimizing NLL over [T_MIN, T_MAX].

    Golden-section search on log T to absolute tolerance 1e-5; deterministic.
    If every sample's logits are constant the objective is flat in T: the
    fit returns T=1 with the degenerate flag set.
    """
    data = list(data)
    if all(float(np.ptp(s.logits.values)) == 0.0 for s in data):
        return TemperatureModel(1.0, nll(data, 1.0), 0, degenerate=True)

    def objective(u: float) -> float:
        return nll(data, math.exp(u))

    lo, hi = math.log(T_MIN), math.log(T_MAX)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    iterations = 0
    while hi - lo > LOG_T_TOL:
        iterations += 1
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = objective(x2)
    u_hat = 0.5 * (lo + hi)
    t_hat = min(max(math.exp(u_hat), T_MIN), T_MAX)
    return TemperatureModel(t_hat, nll(data, t_hat), iterations)


def reliability_bins(data, T: float = 1.0, n_bins: int = DEFAULT_BINS) -> ReliabilityTable:
    """Equal-width confidence binning: count, mean confidence, accuracy per bin."""
    if n_bins < 1:
        raise ParameterError(f"n_bins must be >= 1, got {n_bins}")
    confs, hits = [], []
    for logp, experts in _log_softmax_blocks(data, T):
        confs.append(np.exp(logp.max(axis=1)))
        hits.append(logp.argmax(axis=1) == experts)  # lowest index among ties
    conf = np.concatenate(confs)
    correct = np.concatenate(hits)
    # equal-width bins on [0,1]; confidence 1.0 lands in the top bin
    bins = np.minimum((conf * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins)
    conf_sum = np.bincount(bins, weights=conf, minlength=n_bins)
    hit_sum = np.bincount(bins, weights=correct, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_conf = np.where(counts > 0, conf_sum / counts, np.nan)
        acc = np.where(counts > 0, hit_sum / counts, np.nan)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    return ReliabilityTable(edges, counts, mean_conf, acc)


def ece(data, T: float = 1.0, n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error: bin-weighted |accuracy - mean confidence|."""
    return reliability_bins(data, T, n_bins).ece()


def entropy(p: ProbField) -> float:
    """Shannon entropy in nats, with 0*ln(0) = 0; range [0, ln |A|]."""
    v = p.values
    nz = v[v > 0]
    return float(-np.sum(nz * np.log(nz)))
