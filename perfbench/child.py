"""Run one workload in this process and print one JSON line with its results.

Started by run.py, which pins BLAS and OpenMP to one thread and puts the
checkout's ``src/`` on PYTHONPATH. Set-up time covers importing numpy and
uacal, building the inputs from the seed, and the warm-up ops. The timed
loop is closed: op ``i + 1`` starts only after op ``i`` and its output
check return. Only op time counts, so the checks do not dilute the rates.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced; the per-layer metrics come from the traced half, and their
throughput ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Phase:
    times: list = field(default_factory=list)   # op seconds
    failed: int = 0
    errors: list = field(default_factory=list)
    next_op: int = 0

    def throughput(self, work_per_op: float) -> float:
        return work_per_op * len(self.times) / sum(self.times)


def measure(wl, start: int, seconds: float, tracer=None) -> Phase:
    """Run ops from ``start`` until ``seconds`` of op time have passed and the
    op count is a whole number of input cycles."""
    ph = Phase()
    i = start
    busy = 0.0
    while busy < seconds or (i - start) % wl.cycle:
        scope = tracer.op(i, wl.tag(i)) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = wl.op(i)
        except Exception:  # a raising op is a failed op; the closed loop goes on
            dt = time.perf_counter() - t0
            problems = [f"op {i}: {traceback.format_exc(limit=3)}"]
        else:
            dt = time.perf_counter() - t0
            try:
                problems = wl.check(i, out)
            except Exception:  # a check that cannot run counts the op as failed
                problems = [f"op {i} check: {traceback.format_exc(limit=3)}"]
        ph.times.append(dt)
        busy += dt
        if problems:
            ph.failed += 1
            ph.errors += problems
        i += 1
    ph.next_op = i
    return ph


def _quartiles_ms(times):
    if len(times) < 2:
        return [times[0] * 1e3] * 3
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return [q1 * 1e3, q2 * 1e3, q3 * 1e3]


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="directory for the workload's files")
    ap.add_argument("--trace-out", help="JSON-lines file for the traced run's spans")
    ap.add_argument("--src", required=True, help="the checkout's src/ directory")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and print only its time")
    args = ap.parse_args(argv)

    import numpy
    import uacal
    from workloads import WORKLOADS

    src = os.path.realpath(args.src)
    if not os.path.realpath(uacal.__file__).startswith(src + os.sep):
        print(f"uacal imported from {uacal.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.warm_up()
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from layers import TARGETS, per_layer_metrics
        from tracing import Tracer
        plain = measure(wl, 0, args.seconds / 2)
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            traced = measure(wl, plain.next_op, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if args.trace_out:
            tracer.write(args.trace_out)
        overhead = (plain.throughput(wl.work_per_op)
                    / traced.throughput(wl.work_per_op) - 1.0) * 100.0
        metrics = per_layer_metrics(tracer, overhead)
        phases = [plain, traced]
        extra = {"absent": tracer.absent,
                 "traced_ops": len(traced.times), "untraced_ops": len(plain.times)}
    else:
        run = measure(wl, 0, args.seconds)
        times = run.times
        metrics = {
            "throughput": (run.throughput(wl.work_per_op), "1/s"),
            "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        phases = [run]
        # a tail percentile is reported only with at least ten samples beyond it
        extra = {"op_ms_p90": (statistics.quantiles(times, n=10)[8] * 1e3
                               if len(times) >= 100 else None),
                 "op_ms_quartiles": _quartiles_ms(times),
                 "op_rate_quartiles": sorted(wl.work_per_op * 1e3 / q
                                             for q in _quartiles_ms(times))}

    quality, finish_errors = wl.finish()
    attempted = sum(len(p.times) for p in phases)
    # the post-run checks (re-runs, quality figures) fail at most one op's worth
    failed = min(attempted, sum(p.failed for p in phases) + (1 if finish_errors else 0))
    errors = [e for p in phases for e in p.errors] + finish_errors
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": metrics,
        "quality": quality,
        "op_seconds": sum(sum(p.times) for p in phases),
        "work_unit": wl.work_unit,
        "inputs": wl.describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
