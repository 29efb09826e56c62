#!/usr/bin/env python3
"""Time each full-field selection kernel at 64x64, 64x64x64 and 100x100x100.

Each case scores one random probability field (seeded) with warm layout
caches, and prints the median and quartiles of its calls in ms. The cases
are ``ua_exact`` (euclidean tau 2.5, chebyshev tau 4.5), ``ua_fast``
(chebyshev tau 4.5), ``ua_restricted`` with every cell a candidate (its
dense branch, euclidean tau 2.5) and ``gaussian`` (sigma 1).

Then it times ``calibration.apply_temperature`` (T = 4, as perfbench's
volume-select op) on a seeded N(0, 4^2) logit field at 64x64 and 64x64x64.
It prints the median and quartiles of its calls in ms, one call's traced
peak (tracemalloc) in sizes of the field, and the minor page faults
(``ru_minflt``) per call over a loop that keeps the last four results
alive, as a volume-select op keeps its four decisions' fields.

Last it prints the acceptance test C7's exact/fast ratio, computed as
``test_c7_fast_path_performance`` computes it: one cold ``ua_select`` call
against the best of 3 ``ua_select_fast`` calls, on the same 100^3 field at
chebyshev tau 4.5, each in a fresh Python process. Each process then times
one more, warm ``ua_select`` call, and prints the minor page faults
(``ru_minflt``) that the cold and the warm call each took, so a cold premium
from first-touch faults would show.

The script uses only public names, so the same script compares two
checkouts:

    PYTHONPATH=<checkout>/src python3 scripts/time_select.py

A checkout whose ``gaussian`` refuses 3-axis grids prints that refusal in
place of those two cases' times.
"""

import collections
import math
import resource
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np

from uacal import selection
from uacal.action_space import ActionGrid, Metric
from uacal.calibration import LogitField, ProbField, apply_temperature
from uacal.errors import UnsupportedConfigError
from uacal.selection import SelectionConfig

from timing import timed

SEED = 1
CALLS = {(64, 64): 101, (64, 64, 64): 11, (100, 100, 100): 5}  # timed calls per case
C7_PROCESSES = 5
TEMPERATURE_CALLS = {(64, 64): 101, (64, 64, 64): 41}  # timed calls, and calls counted for faults
TEMPERATURE, KEPT = 4.0, 4

EUCL, CHEB = Metric("euclidean"), Metric("chebyshev")

# As test_c7_fast_path_performance, with its seed, field and timing, then one
# more call that C7 does not make.
C7_CODE = """
import resource
import time
import numpy as np
from uacal.action_space import ActionGrid, Metric
from uacal.calibration import ProbField
from uacal.selection import SelectionConfig, ua_select, ua_select_fast
grid = ActionGrid((100, 100, 100))
rng = np.random.default_rng(987654321 + 5)
v = rng.random(grid.size)
v /= v.sum()
p = ProbField(grid, v)
cfg = SelectionConfig(metric=Metric("chebyshev"), tau=4.5)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
exact = ua_select(p, cfg)
t_exact = time.perf_counter() - t0
cold_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
t_fast = float("inf")
for _ in range(3):
    t0 = time.perf_counter()
    fast = ua_select_fast(p, cfg)
    t_fast = min(t_fast, time.perf_counter() - t0)
assert fast.action == exact.action
# one more, warm ua_select call, which C7 does not make, for its minor faults
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
ua_select(p, cfg)
t_warm = time.perf_counter() - t0
warm_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(t_exact * 1e3, t_fast * 1e3, t_warm * 1e3, cold_faults, warm_faults)
"""


def configs(grid):
    return {
        "ua_exact euclidean tau=2.5": SelectionConfig(metric=EUCL, tau=2.5),
        "ua_exact chebyshev tau=4.5": SelectionConfig(metric=CHEB, tau=4.5),
        "ua_fast chebyshev tau=4.5": SelectionConfig(metric=CHEB, tau=4.5, mode="ua_fast"),
        "ua_restricted dense euclidean tau=2.5": SelectionConfig(
            metric=EUCL, tau=2.5, alpha=0.0, k=grid.size, mode="ua_restricted"),
        "gaussian sigma=1": SelectionConfig(sigma=1.0, mode="gaussian"),
    }


def temperature_case(f, calls):
    """(median, q1, q3 ms, traced peak in field sizes, minor faults per call)
    of apply_temperature(f, TEMPERATURE)."""
    def call():
        return apply_temperature(f, TEMPERATURE)

    med, q1, q3 = timed(call, calls)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = collections.deque((call() for _ in range(KEPT)), maxlen=KEPT)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        kept.append(call())
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return med, q1, q3, peak / f.values.nbytes, faults / calls


def c7_run():
    """(cold exact ms, best fast ms, warm exact ms, cold minor faults, warm
    minor faults) from one fresh process."""
    exact, fast, warm, cold_faults, warm_faults = map(float, subprocess.run(
        [sys.executable, "-c", C7_CODE], check=True, capture_output=True,
        text=True).stdout.split())
    return exact, fast, warm, int(cold_faults), int(warm_faults)


def main():
    rng = np.random.default_rng(SEED)
    for dims, calls in CALLS.items():
        grid = ActionGrid(dims)
        v = rng.random(grid.size)
        p = ProbField(grid, v / v.sum())
        for name, cfg in configs(grid).items():
            try:
                med, q1, q3 = timed(lambda cfg=cfg: selection.select(p, cfg), calls)
            except UnsupportedConfigError as e:
                print(f"{'x'.join(map(str, dims))} {name}: refused ({e})")
                continue
            print(f"{'x'.join(map(str, dims))} {name}: median {med:.3f} ms "
                  f"(quartiles {q1:.3f}-{q3:.3f}, {calls} calls)")
    rng = np.random.default_rng(SEED)
    for dims, calls in TEMPERATURE_CALLS.items():
        f = LogitField(ActionGrid(dims), rng.normal(0.0, 4.0, math.prod(dims)))
        med, q1, q3, peak, faults = temperature_case(f, calls)
        print(f"{'x'.join(map(str, dims))} apply_temperature T={TEMPERATURE:g}: median "
              f"{med:.3f} ms (quartiles {q1:.3f}-{q3:.3f}, {calls} calls), traced peak "
              f"{peak:.2f} field sizes, {faults:.1f} minor faults per call with the last "
              f"{KEPT} results alive")
    ratios = []
    for _ in range(C7_PROCESSES):
        exact, fast, warm, cold_faults, warm_faults = c7_run()
        ratios.append(exact / fast)
        print(f"C7 run: exact {exact:.0f} ms, fast {fast:.1f} ms, ratio {exact / fast:.1f}; "
              f"minor faults: cold exact {cold_faults}, warm exact {warm_faults} ({warm:.0f} ms)")
    print(f"C7 exact/fast ratio: median {statistics.median(ratios):.1f} "
          f"over {C7_PROCESSES} processes (gate >= 10)")


if __name__ == "__main__":
    main()
