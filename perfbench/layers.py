"""Which uacal functions the traced run wraps, and the per-layer metrics
derived from its spans.

Counts whose names end in ``_computed``, and the stencil, NLL, tie, reuse
and byte counts, are computed from the arguments and results of the
wrapped calls by the formulas below; they are not measured by hardware
counters. Every per-op figure is divided by the number of traced ops.
A layer that the workload never calls reports 0.
"""

from __future__ import annotations

import functools
import math
import os
import statistics

import numpy as np

from uacal.action_space import ActionGrid, Metric
from uacal.action_space import ball_offsets as _ball_offsets  # the unwrapped stencil

from tracing import SpanStats, Target, Tracer

MIB = float(1 << 20)
F64 = 8  # bytes per float64 operand


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _select_label(tracer, args, kwargs):
    """selection.<mode>[.<metric> for ua_exact][.flat on a flat-field op]."""
    cfg = _arg(args, kwargs, 1, "cfg")
    name = "selection." + cfg.mode
    if cfg.mode == "ua_exact":
        name += "." + cfg.metric.kind
    if tracer.op_tag == "flat":
        name += ".flat"
    return name


def _kernel(tracer, adds, nbytes):
    tracer.add("selection.cell_adds", adds)
    tracer.add("selection.bytes_moved", nbytes)


@functools.lru_cache(maxsize=64)
def _stencil_adds(dims, cell_size, kind, scale, tau):
    """Additions of the shift-add kernel: one per in-bounds (cell, offset)."""
    offs = _ball_offsets(ActionGrid(dims, cell_size), Metric(kind, scale), tau)
    n = np.asarray(dims, dtype=np.int64)
    return int(np.prod(np.maximum(n - np.abs(offs), 0), axis=1).sum())


def _neighborhood_sums_hook(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    metric = _arg(args, kwargs, 2, "metric")
    tau = float(_arg(args, kwargs, 3, "tau"))
    adds = _stencil_adds(grid.dims, grid.cell_size, metric.kind, metric.scale, tau)
    _kernel(tracer, adds, 3 * F64 * adds)   # read out, read field, write out


def _box_sums_hook(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    n, d = grid.size, grid.ndim
    corners = 1 << d
    # d cumsum passes (read+write) and d pad copies; 2^d corner passes of
    # gather (r+w), sign scale (r+w) and accumulate (2r+w)
    _kernel(tracer, d * n + corners * n, F64 * (4 * d * n + 7 * corners * n))
    tracer.add("selection.ua_fast.tie_rescore_cells",
               int(np.count_nonzero(result >= result.max() - 1e-9)))


def _gaussian_blur_hook(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    sigma = float(_arg(args, kwargs, 2, "sigma"))
    taps = 2 * math.ceil(3.0 * sigma) + 1
    n, d = grid.size, grid.ndim
    # per tap: shifted add into a zeroed buffer (w + 2r+w), scale (r+w), accumulate (2r+w)
    _kernel(tracer, 2 * d * taps * n, F64 * 9 * d * taps * n)


def _restricted_hook(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    cfg = _arg(args, kwargs, 1, "cfg")
    grid = p.grid
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / grid.size
    retained = min(cfg.k, int(np.count_nonzero(p.values > alpha)))
    window = math.prod(min(2 * (cfg.window // 2) + 1, n) for n in grid.dims)
    pairs = window * retained
    d = grid.ndim
    # per (window cell, retained action): d differences, abs, squares and a
    # sum over axes, then sqrt, compare and one matmul accumulate
    _kernel(tracer, pairs * (d + 1), pairs * (F64 * (7 * d + 4) + 2))


def _synth_hook(tracer, args, kwargs, result):
    tracer.add("simbench.synthesize_logits.world", _arg(args, kwargs, 0, "world").episode_seed)


def _fit_hook(tracer, args, kwargs, result):
    tracer.add("calibration.fit_temperature.iterations", result.iterations)


def _io_hook(name, direction):
    def hook(tracer, args, kwargs, result):
        size = os.path.getsize(_arg(args, kwargs, 0, "path"))
        tracer.add(name + ".bytes", size)
        tracer.add("dataset_io.bytes_" + direction, size)
    return hook


def _t(module, attr, **kw):
    return Target(module, attr, kw.pop("name", f"{module}.{attr}"), **kw)


TARGETS = [
    _t("action_space", "ball_offsets",
       hook=lambda tr, a, k, r: tr.add("action_space.ball_offsets.offsets", len(r))),
    _t("calibration", "apply_temperature"),
    _t("calibration", "nll"),
    _t("calibration", "fit_temperature", hook=_fit_hook),
    _t("calibration", "reliability_bins"),
    _t("calibration", "entropy"),
    _t("selection", "select", label=_select_label),
    _t("selection", "neighborhood_sums", hook=_neighborhood_sums_hook),
    _t("selection", "box_sums", hook=_box_sums_hook),
    _t("selection", "gaussian_blur", hook=_gaussian_blur_hook),
    _t("selection", "ua_select_restricted", hook=_restricted_hook, alloc=True),
    _t("simbench", "evaluate"),
    _t("simbench", "run_episode"),
    _t("simbench", "make_world"),
    _t("simbench", "synthesize_logits", hook=_synth_hook),
    _t("dataset_io", "fnv1a64"),
    _t("dataset_io", "dataset_bytes"),
    _t("dataset_io", "write_dataset", hook=_io_hook("dataset_io.write_dataset", "written")),
    _t("dataset_io", "read_dataset", hook=_io_hook("dataset_io.read_dataset", "read")),
    _t("dataset_io", "dataset_checksum",
       hook=_io_hook("dataset_io.dataset_checksum", "read")),
    _t("dataset_io", "write_temperature_file",
       hook=_io_hook("dataset_io.write_temperature_file", "written")),
    _t("dataset_io", "read_temperature_file",
       hook=_io_hook("dataset_io.read_temperature_file", "read")),
    _t("dataset_io", "write_reliability_csv",
       hook=_io_hook("dataset_io.write_reliability_csv", "written")),
    _t("cli", "main"),
    _t("cli", "cmd_calibrate", name="cli.calibrate"),
    _t("cli", "cmd_report", name="cli.report"),
]


def per_layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    st = tracer.stats()
    empty = SpanStats()
    samples = tracer.samples

    def span(name):
        return st.get(name, empty)

    n_ops = max(span("op").calls, 1)

    def ms_p50(name):
        d = span(name).durations
        return statistics.median(d) * 1e3 if d else 0.0

    def self_per_op(name, scale=1.0):
        return span(name).self_total / n_ops * scale

    def calls_per_op(name):
        return span(name).calls / n_ops

    def mean(name):
        v = samples.get(name)
        return sum(v) / len(v) if v else 0.0

    def per_op(name):
        return sum(samples.get(name, ())) / n_ops

    def mib_per_s(name):
        secs = sum(span(name).durations)
        return sum(samples.get(name + ".bytes", ())) / MIB / secs if secs else 0.0

    fits = span("calibration.fit_temperature").calls
    synth = span("simbench.synthesize_logits").calls
    worlds = len(set(samples.get("simbench.synthesize_logits.world", ())))
    peaks = samples.get("selection.ua_select_restricted.peak_alloc", ())
    return {
        "selection.ua_exact.euclidean.ms_p50": (ms_p50("selection.ua_exact.euclidean"), "ms"),
        "selection.ua_exact.chebyshev.ms_p50": (ms_p50("selection.ua_exact.chebyshev"), "ms"),
        "selection.ua_fast.ms_p50": (ms_p50("selection.ua_fast"), "ms"),
        "selection.ua_fast.flat.ms_p50": (ms_p50("selection.ua_fast.flat"), "ms"),
        "selection.ua_fast.tie_rescore_cells":
            (mean("selection.ua_fast.tie_rescore_cells"), "count"),
        "selection.ua_restricted.ms_p50": (ms_p50("selection.ua_restricted"), "ms"),
        "selection.ua_restricted.peak_alloc_mb": (max(peaks, default=0) / MIB, "MB"),
        "selection.greedy.ms_p50": (ms_p50("selection.greedy"), "ms"),
        "selection.gaussian.ms_p50": (ms_p50("selection.gaussian"), "ms"),
        "selection.neighborhood_sums.self_ms":
            (self_per_op("selection.neighborhood_sums", 1e3), "ms"),
        "selection.box_sums.self_ms": (self_per_op("selection.box_sums", 1e3), "ms"),
        "selection.cell_adds_computed": (mean("selection.cell_adds"), "count"),
        "selection.bytes_moved_computed": (mean("selection.bytes_moved"), "B"),
        "action_space.ball_offsets.calls": (calls_per_op("action_space.ball_offsets"), "count"),
        "action_space.ball_offsets.offsets":
            (mean("action_space.ball_offsets.offsets"), "count"),
        "action_space.ball_offsets.self_ms":
            (self_per_op("action_space.ball_offsets", 1e3), "ms"),
        "calibration.apply_temperature.ms_p50":
            (ms_p50("calibration.apply_temperature"), "ms"),
        "calibration.fit_temperature.self_s":
            (self_per_op("calibration.fit_temperature"), "s"),
        "calibration.nll.calls":
            (span("calibration.nll").calls / fits if fits else 0.0, "count"),
        "calibration.nll.self_s": (self_per_op("calibration.nll"), "s"),
        "calibration.fit.iterations":
            (mean("calibration.fit_temperature.iterations"), "count"),
        "calibration.reliability_bins.self_ms":
            (self_per_op("calibration.reliability_bins", 1e3), "ms"),
        "calibration.entropy.calls": (calls_per_op("calibration.entropy"), "count"),
        "calibration.entropy.self_ms": (self_per_op("calibration.entropy", 1e3), "ms"),
        "simbench.make_world.ms_p50": (ms_p50("simbench.make_world"), "ms"),
        "simbench.synthesize_logits.ms_p50": (ms_p50("simbench.synthesize_logits"), "ms"),
        "simbench.synthesize_logits.calls":
            (calls_per_op("simbench.synthesize_logits"), "count"),
        "simbench.synth_reuse_ratio": (worlds / synth if synth else 0.0, "ratio"),
        "dataset_io.write_dataset.MBps": (mib_per_s("dataset_io.write_dataset"), "MB/s"),
        "dataset_io.read_dataset.MBps": (mib_per_s("dataset_io.read_dataset"), "MB/s"),
        "dataset_io.dataset_checksum.MBps":
            (mib_per_s("dataset_io.dataset_checksum"), "MB/s"),
        "dataset_io.fnv1a64.self_s": (self_per_op("dataset_io.fnv1a64"), "s"),
        "dataset_io.bytes_read": (per_op("dataset_io.bytes_read"), "B"),
        "dataset_io.bytes_written": (per_op("dataset_io.bytes_written"), "B"),
        "cli.calibrate.self_s": (self_per_op("cli.calibrate"), "s"),
        "cli.report.self_s": (self_per_op("cli.report"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
