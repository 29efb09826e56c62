"""Temperature scaling and calibration diagnostics.

A scalar temperature T divides the logits before softmax. T is fitted by
minimizing mean negative log-likelihood of the expert actions on a
calibration set, which is convex in beta = 1/T, via safeguarded Newton
steps on beta. Every routine takes the calibration set as one
``LogitBatch``, as ``read_dataset`` returns it. One blocked pass over it
yields each row block's shifted logits z, e = exp(z) and the row sums s;
the NLL and its derivatives, the reliability table and the entropy all come
from those three arrays, so each logit is exponentiated once per pass, and
the NLL is an exact log-softmax at every T. Diagnostics cover expected
calibration error (ECE), reliability binning, and entropy. All arithmetic is
float64 regardless of storage precision.

``softmax`` and ``apply_temperature`` build each probability field in the
one buffer they return: logits / T go into a fresh array, and the max
shift, exp and normalisation run in place there, so a field costs one
field's memory and the same bits as separate temporaries would give.

``_two_lanes`` is the one lane scheduler, here and in ``selection``: it
runs n indexed steps on the calling thread and one ``_beside`` worker, each
lane with its own buffer; numpy releases the GIL inside its loops, so the
lanes overlap. A pass's steps are its row blocks, each lane's buffer holds
512 KiB z and e arrays, and the per-block figures are joined in block order.
Each row's figures come from that row alone, so a pass gives the same bits
on two lanes as on one. They also do not depend on the block size for rows
of up to 8192 cells; numpy's einsum sums a longer row that is alone in its
block in 8192-cell chunks, which can move the last bits of its E_p[z].
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .action_space import ActionGrid
from .errors import ParameterError, RecordError, ValidationError

T_MIN = 1e-2
T_MAX = 1e2
LOG_T_TOL = 1e-5
DEFAULT_BINS = 15
_BLOCK_BYTES = 1 << 19  # float64 bytes per row block of logits, per lane


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
        # fmin/fmax ignore NaNs, which the sum check rejects, and make no mask
        if np.fmin.reduce(v) < 0 or np.fmax.reduce(v) > 1:
            raise ValidationError("probabilities must lie in [0, 1]")
        if not abs(float(v.sum()) - 1.0) <= 1e-9:  # so a NaN sum fails too
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
        for name in ("expert", "task_id"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value == int(value)):
                raise ValidationError(f"{name} {value!r} is not an integer")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.expert < self.logits.grid.size:
            raise ValidationError(
                f"expert index {self.expert} out of range for |A|={self.logits.grid.size}")


def _not_integers(values: np.ndarray) -> np.ndarray:
    """Mask of the entries that are NaN, infinite or have a fractional part."""
    return ~(np.isfinite(values) & (values == np.round(values)))


@dataclass(frozen=True)
class LogitBatch:
    """n records on one grid: a read-only (n, |A|) float logit array (float32
    straight from a UACL file), each record's expert index and task id.
    ``batch[i]`` is record i as a CalibrationSample, and iteration yields
    every record so."""

    grid: ActionGrid
    logits: np.ndarray
    experts: np.ndarray
    task_ids: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.logits).view()
        e, t = np.asarray(self.experts), np.asarray(self.task_ids)
        if v.shape != (len(e), self.grid.size) or t.shape != e.shape:
            raise ValidationError(f"{v.shape} logits, {e.shape} experts and {t.shape} "
                                  f"task ids do not fit |A|={self.grid.size}")
        checks = {"logits must be finite (NaN/Inf rejected)": ~np.isfinite(v).all(axis=1),
                  "expert index {e} is not an integer": _not_integers(e),
                  "expert index {e} out of range for |A|={n}": (e < 0) | (e >= self.grid.size),
                  "task id {t} is not an integer": _not_integers(t)}
        bad = np.array(list(checks.values()))
        if bad.any():  # the first bad record, as a per-record scan would name it
            k = int(bad.any(axis=0).argmax())
            reason = list(checks)[bad[:, k].argmax()]
            raise RecordError(k, reason.format(e=e[k], t=t[k], n=self.grid.size))
        v.flags.writeable = False
        for name, value in zip(("logits", "experts", "task_ids"),
                               (v, e.astype(np.intp), t.astype(np.int64))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.experts)

    def __getitem__(self, i) -> CalibrationSample:
        return CalibrationSample(LogitField(self.grid, self.logits[i]), self.experts[i],
                                 self.task_ids[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class TemperatureModel:
    """Fitted temperature plus fit metadata; ``iterations`` counts NLL passes."""

    temperature: float
    final_nll: float
    iterations: int
    degenerate: bool = False
    at_bound: bool = False   # minimiser pinned at T_MIN or T_MAX


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


def _softmax64(values: np.ndarray, T: float = 1.0) -> np.ndarray:
    """softmax(values / T), each step in place in the one array returned."""
    z = np.divide(values, T)
    z -= z.max()
    np.exp(z, out=z)
    z /= z.sum()
    return z


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
    return ProbField(f.grid, _softmax64(f.values, _checked_temperature(T)))


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) on one worker thread, in a copy of the caller's context
    (so the caller's np.errstate holds in fn), while the with-block runs.

    Yields a function that joins the worker and returns fn's result or raises
    fn's error. The worker is joined when the block exits, on every path; an
    error of the block is raised in place of fn's. fn's arguments must not
    change until then.
    """
    # A plain thread, not a ThreadPoolExecutor: an executor variant raised
    # calibrate-offline's peak RSS from 64.3-64.6 to 66.7-72.5 MB, past the 5%
    # bound, through glibc's per-thread malloc arenas (MALLOC_ARENA_MAX=1 evens it).
    done = {}

    def work():
        try:
            done["result"] = fn(*args)
        except BaseException as exc:  # raised by result()
            done["error"] = exc

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()

    def result():
        worker.join()
        if "error" in done:
            raise done["error"]
        return done["result"]

    try:
        yield result
    finally:
        worker.join()


def _two_lanes(step, n: int, shape: tuple) -> list:
    """[step(k, buf) for k in range(n)], n >= 1, in k order, on two lanes:
    the calling thread and one ``_beside`` worker.

    Each lane takes the next k from one shared iterator as it comes free, and
    passes every step its own buffer of ``shape``, one lane's part of a
    lane-major np.empty((min(2, n), *shape)) made here on the calling thread.
    So step's result for k must not depend on the lane or on what the buffer
    held. n == 1 runs on the caller alone and starts no thread. A lane's
    error is raised once the other lane has run the remaining steps.
    """
    bufs = np.empty((min(2, n), *shape))
    if n == 1:
        return [step(0, bufs[0])]
    results, ks, lock = [None] * n, iter(range(n)), threading.Lock()

    def lane(buf):
        while True:
            with lock:
                k = next(ks, None)
            if k is None:
                return
            results[k] = step(k, buf)

    with _beside(lane, bufs[1]) as other:
        lane(bufs[0])
        other()
    return results


def _softmax_blocks(batch: LogitBatch, T: float, fn) -> list:
    """[fn(z, e, s, experts, task ids) for each row block of logits / T], in
    block order, run by ``_two_lanes``.

    z is logits / T less its row maximum (so each row's max is exactly 0),
    e = exp(z) and s is e's row sum: log-softmax is z - log(s), exact at any
    T, and the softmax is e / s. Blocks hold at most _BLOCK_BYTES of float64
    (or one row, if a row is larger). A lane's buffer holds its z and then
    its e, so memory does not grow with n; fn may overwrite z and e but must
    not return them.
    """
    if not len(batch):
        raise ParameterError("calibration requires a nonempty dataset")
    T = _checked_temperature(T)
    rows = max(1, _BLOCK_BYTES // (8 * batch.grid.size))
    starts = range(0, len(batch), rows)

    def block(k, buf):
        i = starts[k]
        x = batch.logits[i:i + rows]
        z = np.divide(x, T, dtype=np.float64, out=buf[0, :len(x)])
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z, out=buf[1, :len(x)])
        return fn(z, e, e.sum(axis=1), batch.experts[i:i + rows], batch.task_ids[i:i + rows])

    return _two_lanes(block, len(starts), (2, min(rows, len(batch)), batch.grid.size))


def _nll_rows(z, e, s, experts, _):
    """A block's per-row log-softmax at the expert, E_p[z] - z_expert and
    Var_p[z], and whether every row is constant."""
    z_expert = z[np.arange(len(z)), experts]
    # z <= 0 is 0 only at a row's max values; the first row settles most blocks
    flat = z[0].min() == 0.0 and z.min() == 0.0
    mean = np.einsum("ij,ij->i", e, z) / s
    picked = z_expert - np.log(s)
    z -= mean[:, None]
    return picked, mean - z_expert, np.einsum("ij,ij,ij->i", e, z, z) / s, flat


def _nll_pass(batch: LogitBatch, T: float):
    """(NLL, gradient, curvature, flat) at T: the mean NLL, its derivatives in
    beta = 1/T, mean(E_p[x] - x_expert) and mean(Var_p[x]) over the raw logits
    x, and whether every row is constant."""
    picked, grads, curvs, flats = zip(*_softmax_blocks(batch, T, _nll_rows))
    value, grad, curv = (float(np.concatenate(x).mean()) for x in (picked, grads, curvs))
    # z is x / T less a per-row constant: scale by T and T^2
    return -value, T * grad, T * T * curv, bool(all(flats))


def _picked(z, e, s, experts, _):
    return z[np.arange(len(z)), experts] - np.log(s)


def nll(batch: LogitBatch, T: float) -> float:
    """Mean negative log-likelihood of batch's expert actions at temperature T."""
    return -float(np.concatenate(_softmax_blocks(batch, T, _picked)).mean())


def fit_temperature(batch: LogitBatch) -> TemperatureModel:
    """Fit the temperature minimizing batch's NLL over [T_MIN, T_MAX]; deterministic.

    Newton steps on beta = 1/T from T=1, one blocked pass each, inside a
    bracket from the gradients' signs (a step leaving it bisects in log beta).
    Stops once a step would move log T by at most LOG_T_TOL and returns the
    last pass's T and NLL; ``iterations`` counts the passes, and ``at_bound``
    is set when the minimiser is pinned at T_MIN or T_MAX. If every sample's
    logits are constant the objective is flat in T: the fit returns T=1 with
    the degenerate flag set.
    """
    b_lo, b_hi = 1.0 / T_MAX, 1.0 / T_MIN
    lo, hi, beta, last = b_lo / 2, b_hi * 2, 1.0, math.inf  # ends outside the domain: open
    for passes in itertools.count(1):
        value, grad, curv, flat = _nll_pass(batch, 1.0 / beta)
        if flat:
            return TemperatureModel(1.0, value, passes, degenerate=True)
        lo, hi = (lo, beta) if grad > 0 else (beta, hi)
        step = beta - grad / curv if curv > 0 else (b_lo if grad > 0 else b_hi)
        step = min(max(step, b_lo), b_hi)
        # toward an open end, steps that stop halving (an exponential tail) jump to it
        slow = abs(math.log(step / beta)) > last / 2 and (lo < b_lo or hi > b_hi)
        if (slow or not lo < step < hi) and step != beta:
            step = b_hi if hi > b_hi else b_lo if lo < b_lo else math.sqrt(lo * hi)
        if abs(math.log(step / beta)) <= LOG_T_TOL:
            break
        last, beta = abs(math.log(step / beta)), step
    pinned = (beta == b_hi and grad <= 0) or (beta == b_lo and grad >= 0)
    return TemperatureModel(1.0 / beta, value, passes, at_bound=pinned)


def _report_rows(z, e, s, experts, tasks):
    """A block's per-row top probability, hit, task id and entropy."""
    log_s = np.log(s)
    high = log_s - np.einsum("ij,ij->i", e, z) / s
    z -= log_s[:, None]  # log-softmax, whose row max is -log(s) exactly
    return np.exp(-log_s), z.argmax(axis=1) == experts, tasks, high


def calibration_report(batch: LogitBatch, T: float = 1.0, n_bins: int = DEFAULT_BINS
                       ) -> tuple[ReliabilityTable, dict[int, float]]:
    """(ReliabilityTable, {task id: max entropy}) at T from one blocked pass.

    The table bins each row's top softmax probability into n_bins equal-width
    bins on [0, 1] with its hit (argmax == expert, lowest index among ties);
    a row's entropy in nats is log(s) - E_p[z].
    """
    if n_bins < 1:
        raise ParameterError(f"n_bins must be >= 1, got {n_bins}")
    confs, hits, ids, highs = zip(*_softmax_blocks(batch, T, _report_rows))
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
    table = ReliabilityTable(np.linspace(0.0, 1.0, n_bins + 1), counts, mean_conf, acc)
    tasks, which = np.unique(np.concatenate(ids), return_inverse=True)
    best = np.zeros(len(tasks))
    np.maximum.at(best, which, np.concatenate(highs))
    return table, dict(zip(tasks.tolist(), best.tolist()))


def reliability_bins(batch: LogitBatch, T: float = 1.0,
                     n_bins: int = DEFAULT_BINS) -> ReliabilityTable:
    """Equal-width confidence binning: ``calibration_report``'s table part."""
    return calibration_report(batch, T, n_bins)[0]


def ece(batch: LogitBatch, T: float = 1.0, n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error: bin-weighted |accuracy - mean confidence|."""
    return reliability_bins(batch, T, n_bins).ece()


def max_entropy_by_task(batch: LogitBatch, T: float = 1.0) -> dict[int, float]:
    """Largest softmax entropy (nats) per task at T: ``calibration_report``'s part."""
    return calibration_report(batch, T)[1]


def entropy(p: ProbField) -> float:
    """Shannon entropy in nats, with 0*ln(0) = 0; range [0, ln |A|]."""
    v = p.values
    nz = v[v > 0]
    return float(-np.sum(nz * np.log(nz)))
