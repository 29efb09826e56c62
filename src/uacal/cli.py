"""Command-line surface: calibrate, report, select, bench.

Exit codes: 0 success, 2 dataset format error, 3 parameter error,
4 degenerate fit under --strict.

``calibrate`` hashes the dataset bytes it read for the temperature file's
``dataset_checksum`` on a ``calibration._beside`` worker while it fits.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import calibration, dataset_io, selection, simbench
from .action_space import METRIC_KINDS, Metric, coords_of
from .errors import FormatError, UacalError

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_PARAMETER = 3
EXIT_DEGENERATE = 4

_MODE_NAMES = {
    "greedy": "greedy",
    "ua": "ua_exact",
    "ua-fast": "ua_fast",
    "ua-restricted": "ua_restricted",
    "gaussian": "gaussian",
}


def _filter_task(batch, task: str):
    if task == "all":
        return batch
    tid = int(task)
    keep = batch.task_ids == tid
    if not keep.any():
        raise UacalError(f"no samples with task id {tid}")
    return calibration.LogitBatch(batch.grid, batch.logits[keep], batch.experts[keep],
                                  batch.task_ids[keep])


def _resolve_temperature(arg: str) -> float:
    try:
        return float(arg)
    except ValueError:
        model, _ = dataset_io.read_temperature_file(arg)
        return model.temperature


def _selection_config(args, mode: str) -> selection.SelectionConfig:
    return selection.SelectionConfig(
        metric=Metric(args.metric),
        tau=args.tau,
        alpha=args.alpha,
        k=args.k,
        sigma=args.sigma,
        mode=mode,
    )


def cmd_calibrate(args) -> int:
    batch, data = dataset_io._read_batch(args.dataset)
    with calibration._beside(dataset_io._digest, (data,)) as checksum:
        model = calibration.fit_temperature(_filter_task(batch, args.task))
    dataset_io.write_temperature_file(args.out, model, checksum())
    print(f"temperature {model.temperature:.17g} nll {model.final_nll:.17g} "
          f"iterations {model.iterations}")
    if model.at_bound:
        print(f"warning: temperature pinned at the bound {model.temperature:g} "
              f"of [{calibration.T_MIN:g}, {calibration.T_MAX:g}]", file=sys.stderr)
    if model.degenerate:
        print("warning: degenerate fit (NLL constant in T)", file=sys.stderr)
        if args.strict:
            return EXIT_DEGENERATE
    return EXIT_OK


def cmd_report(args) -> int:
    batch = _filter_task(dataset_io.read_dataset(args.dataset), args.task)
    T = _resolve_temperature(args.temperature)
    table, max_entropy = calibration.calibration_report(batch, T, args.bins)
    dataset_io.write_reliability_csv(args.out, table)
    print(f"ece {table.ece():.17g}")
    for tid, h in sorted(max_entropy.items()):
        print(f"task {tid} max_entropy {h:.17g}")
    return EXIT_OK


def cmd_select(args) -> int:
    batch = dataset_io.read_dataset(args.dataset)
    if not 0 <= args.index < len(batch):
        raise UacalError(f"record index {args.index} out of range "
                         f"[0, {len(batch)})")
    logits = calibration.LogitField(batch.grid, batch.logits[args.index])
    T = _resolve_temperature(args.temperature)
    p = calibration.apply_temperature(logits, T)
    cfg = _selection_config(args, _MODE_NAMES[args.mode])
    res = selection.select(p, cfg)
    coords = coords_of(batch.grid, res.action)
    print(f"action {res.action}")
    print(f"coords {' '.join(str(c) for c in coords)}")
    print(f"score {res.aggregated_score:.17g}")
    print(f"margin {res.runner_up_gap:.17g}")
    if res.flags:
        print(f"flags {' '.join(res.flags)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    task, model = simbench.PRESETS[args.preset]
    cfgs = []
    for name in (n.strip() for n in args.modes.split(",")):
        if name not in _MODE_NAMES:
            raise UacalError(f"unknown mode {name!r}; "
                             f"choose from {', '.join(sorted(_MODE_NAMES))}")
        cfg = _selection_config(args, _MODE_NAMES[name])
        if cfg.mode == "ua_fast":
            cfg = dataclasses.replace(cfg, metric=Metric("chebyshev"))
        cfgs.append(cfg)
    reports = simbench.evaluate(args.episodes, args.seed, task, model, cfgs,
                                T=args.temperature_value)
    simbench.write_report_csv(args.out, reports)
    for r in reports:
        print(f"{r.mode} success_rate {r.success_rate:.4f} "
              f"stderr {r.stderr:.4f} distractor_hits {r.distractor_hits}")
    return EXIT_OK


def _add_selection_flags(p, tau_default=1.5):
    p.add_argument("--metric", default="euclidean", choices=METRIC_KINDS)
    p.add_argument("--tau", type=float, default=tau_default)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--k", type=int, default=selection.DEFAULT_K)
    p.add_argument("--sigma", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uacal")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a temperature on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--task", default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="reliability table, ECE, max entropy")
    p.add_argument("--dataset", required=True)
    p.add_argument("--task", default="all")
    p.add_argument("--temperature", default="1.0")
    p.add_argument("--bins", type=int, default=calibration.DEFAULT_BINS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("select", help="run one selection on a dataset record")
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--mode", required=True, choices=sorted(_MODE_NAMES))
    p.add_argument("--temperature", default="1.0")
    _add_selection_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bench", help="synthetic distractor benchmark")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--preset", default="distractor-hard",
                   choices=sorted(simbench.PRESETS))
    p.add_argument("--modes", default="greedy,ua")
    p.add_argument("--temperature-value", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_selection_flags(p, tau_default=2.5)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (UacalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
