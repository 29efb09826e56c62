#!/usr/bin/env python3
"""Time each full-field selection kernel at 64x64, 64x64x64 and 100x100x100.

Each case scores one random probability field (seeded) with warm layout
caches, and prints the median and quartiles of its calls in ms. The cases
are ``ua_exact`` (euclidean tau 2.5, chebyshev tau 4.5), ``ua_fast``
(chebyshev tau 4.5), ``ua_restricted`` with every cell a candidate (its
dense branch, euclidean tau 2.5) and, on 64x64, ``gaussian`` (sigma 1).

Then it prints the acceptance test C7's exact/fast ratio, computed as
``test_c7_fast_path_performance`` computes it: one cold ``ua_select`` call
against the best of 3 ``ua_select_fast`` calls, on the same 100^3 field at
chebyshev tau 4.5, each in a fresh Python process.

The script uses only public names, so the same script compares two
checkouts:

    PYTHONPATH=<checkout>/src python3 scripts/time_select.py
"""

import statistics
import subprocess
import sys
import time

import numpy as np

from uacal import selection
from uacal.action_space import ActionGrid, Metric
from uacal.calibration import ProbField
from uacal.selection import SelectionConfig

SEED = 1
CALLS = {(64, 64): 101, (64, 64, 64): 11, (100, 100, 100): 5}  # timed calls per case
C7_PROCESSES = 5

EUCL, CHEB = Metric("euclidean"), Metric("chebyshev")

# As test_c7_fast_path_performance, with its seed, field and timing.
C7_CODE = """
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
t0 = time.perf_counter()
exact = ua_select(p, cfg)
t_exact = time.perf_counter() - t0
t_fast = float("inf")
for _ in range(3):
    t0 = time.perf_counter()
    fast = ua_select_fast(p, cfg)
    t_fast = min(t_fast, time.perf_counter() - t0)
assert fast.action == exact.action
print(t_exact * 1e3, t_fast * 1e3)
"""


def configs(grid):
    cases = {
        "ua_exact euclidean tau=2.5": SelectionConfig(metric=EUCL, tau=2.5),
        "ua_exact chebyshev tau=4.5": SelectionConfig(metric=CHEB, tau=4.5),
        "ua_fast chebyshev tau=4.5": SelectionConfig(metric=CHEB, tau=4.5, mode="ua_fast"),
        "ua_restricted dense euclidean tau=2.5": SelectionConfig(
            metric=EUCL, tau=2.5, alpha=0.0, k=grid.size, mode="ua_restricted"),
    }
    if grid.ndim <= 2:
        cases["gaussian sigma=1"] = SelectionConfig(sigma=1.0, mode="gaussian")
    return cases


def timed(fn, calls):
    fn()  # warm-up: builds the layout
    ms = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        ms.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = statistics.quantiles(ms, n=4)
    return med, q1, q3


def c7_ratio():
    exact, fast = map(float, subprocess.run(
        [sys.executable, "-c", C7_CODE], check=True, capture_output=True,
        text=True).stdout.split())
    return exact, fast


def main():
    rng = np.random.default_rng(SEED)
    for dims, calls in CALLS.items():
        grid = ActionGrid(dims)
        v = rng.random(grid.size)
        p = ProbField(grid, v / v.sum())
        for name, cfg in configs(grid).items():
            med, q1, q3 = timed(lambda cfg=cfg: selection.select(p, cfg), calls)
            print(f"{'x'.join(map(str, dims))} {name}: median {med:.3f} ms "
                  f"(quartiles {q1:.3f}-{q3:.3f}, {calls} calls)")
    ratios = []
    for _ in range(C7_PROCESSES):
        exact, fast = c7_ratio()
        ratios.append(exact / fast)
        print(f"C7 run: exact {exact:.0f} ms, fast {fast:.1f} ms, ratio {exact / fast:.1f}")
    print(f"C7 exact/fast ratio: median {statistics.median(ratios):.1f} "
          f"over {C7_PROCESSES} processes (gate >= 10)")


if __name__ == "__main__":
    main()
