#!/usr/bin/env python3
"""uacal benchmark: run workloads and print their metrics.

    python3 perfbench/run.py --workload volume-select --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py          # every workload, on --seed and on the held-out seed

Run from anywhere; the checkout is this file's parent directory, and uacal
is imported from its ``src/``. Each workload runs in fresh child processes
(child.py) with BLAS and OpenMP pinned to one thread: ``SETUP_RUNS - 1``
that only set up, then one that sets up and measures. ``setup_s`` is the
median of those set-ups.

For one workload, the last line of standard output is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The lines above it give the
provenance and every figure with its unit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_RUNS = 3
HELDOUT_SEED = 18222
DEADLINE_S = 175.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in SINGLE_THREAD})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child passed the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up SETUP_RUNS times in fresh processes, measure in the last one."""
    deadline = time.monotonic() + DEADLINE_S
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--workdir", workdir, "--src", str(SRC),
                "--trace-out", str(WORK_DIR / f"trace-{name}.jsonl")]
        setups = [_run_child(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        result = _run_child(base, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_runs"] = setups
    result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    return result


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(result: dict, spec_metrics: list[dict], trace: int) -> dict:
    """Print provenance and every figure; return the JSON result object."""
    r = result
    print(f"== {r['workload']}  seed {r['seed']}  python {r['python']}  numpy {r['numpy']}"
          f"  nproc {os.cpu_count()}  closed loop, 1 client, 1 thread")
    print("inputs " + json.dumps(r["inputs"]))
    print(f"ops {r['attempted']} ({_fmt(r['op_seconds'])} s of op time)  "
          f"set-ups {len(r['setup_runs'])}: {', '.join(_fmt(s) for s in r['setup_runs'])} s")
    if trace:
        print(f"traced ops {r['traced_ops']}, untraced ops {r['untraced_ops']}"
              + (f"; absent: {', '.join(r['absent'])}" if r["absent"] else ""))
    else:
        q1, q2, q3 = r["op_ms_quartiles"]
        print(f"op_ms quartiles {_fmt(q1)} / {_fmt(q2)} / {_fmt(q3)} ms (n={r['attempted']})")
        q1, q2, q3 = r["op_rate_quartiles"]
        print(f"per-op {r['work_unit']}/s quartiles {_fmt(q1)} / {_fmt(q2)} / {_fmt(q3)}")
        p90 = r["op_ms_p90"]
        print(f"op_ms_p90 {_fmt(p90)} ms (n={r['attempted']})" if p90 is not None
              else f"op_ms_p90 not reported: {r['attempted']} ops < 100")
        print(f"error_rate {_fmt(r['failed'] / r['attempted'])} fraction "
              f"({r['failed']} of {r['attempted']})")
        for k, (v, unit) in r["quality"].items():
            print(f"{k} {_fmt(v)} {unit}")
    for e in r["errors"]:
        print("check failed: " + e.strip().replace("\n", " | "))

    metrics = {}
    for m in spec_metrics:
        if m["name"] not in r["metrics"]:
            raise BenchError(f"workload gave no value for metric {m['name']}")
        value, unit = r["metrics"][m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {unit}, BENCHMARK.json says {m['unit']}")
        shown = f"{r['work_unit']}/s" if m["name"] == "throughput" else unit
        print(f"{m['name']} {_fmt(value)} {shown}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uacal benchmark")
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="op time measured per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "uacal" / "__init__.py").is_file():
            raise BenchError(f"no uacal source at {SRC}")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if not seconds > 0:
            raise BenchError("--seconds must be positive")
        spec_metrics = spec["per_layer" if args.trace else "end_to_end"]

        if args.workload != "all":
            result = run_workload(args.workload, args.seed, seconds, args.trace)
            print(json.dumps(report(result, spec_metrics, args.trace)))
            return 0

        failures = 0
        for seed in (args.seed, HELDOUT_SEED):
            for name in names:
                out = report(run_workload(name, seed, seconds, args.trace),
                             spec_metrics, args.trace)
                print(json.dumps(out))
                failures += out["failed"]
        print(f"all workloads on seeds {args.seed} and {HELDOUT_SEED} (held out): "
              f"{failures} failed ops")
        return 1 if failures else 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
