#!/usr/bin/env python3
"""Time one desk episode layer by layer at the benchmark's desk-episodes
shape: a distractor-hard 64x64 world scored under greedy, ua_exact and
gaussian selection (euclidean tau 2.5, sigma 1), at T = 1.

Prints the median and quartiles over REPEATS calls of each layer on the
same world, then of the whole episode (``simbench.evaluate(1, ...)``).
The script uses only public names, so the same script compares two
checkouts:

    PYTHONPATH=<checkout>/src python3 scripts/time_episode.py
"""

from uacal import calibration, selection, simbench
from uacal.action_space import Metric
from uacal.selection import SelectionConfig

from timing import timed

PRESET = "distractor-hard"
MODES = ("greedy", "ua_exact", "gaussian")
TAU = 2.5
SIGMA = 1.0
SEED = 1
REPEATS = 301


def main():
    task, model = simbench.PRESETS[PRESET]
    world_seed = simbench.splitmix64(SEED, 0)
    world = simbench.make_world(world_seed, task)
    logits, _ = simbench.synthesize_logits(world, model)
    p = calibration.apply_temperature(logits, 1.0)
    cfgs = [SelectionConfig(metric=Metric("euclidean"), tau=TAU, sigma=SIGMA, mode=m)
            for m in MODES]
    print(f"{PRESET} {'x'.join(map(str, task.dims))}, modes {', '.join(MODES)}")
    cases = {
        "make_world": lambda: simbench.make_world(world_seed, task),
        "synthesize_logits": lambda: simbench.synthesize_logits(world, model),
        "apply_temperature": lambda: calibration.apply_temperature(logits, 1.0),
    }
    for cfg in cfgs:
        cases[f"select {cfg.mode}"] = lambda cfg=cfg: selection.select(p, cfg)
    cases["episode"] = lambda: simbench.evaluate(1, SEED, task, model, cfgs)
    for name, fn in cases.items():
        med, q1, q3 = timed(fn, REPEATS)
        print(f"{name}: median {med:.3f} ms (quartiles {q1:.3f}-{q3:.3f})")


if __name__ == "__main__":
    main()
