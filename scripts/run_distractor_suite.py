#!/usr/bin/env python3
"""Sweep spike strength on the synthetic distractor benchmark and print a
success-rate table for greedy vs neighborhood-aggregation selection.
Optionally dump one episode's heatmap as PGM for inspection."""

import argparse
import dataclasses
from pathlib import Path

from uacal.action_space import Metric
from uacal.selection import SelectionConfig
from uacal.simbench import (
    PRESETS,
    evaluate,
    make_world,
    splitmix64,
    synthesize_logits,
    write_pgm,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--tau", type=float, default=2.5)
    ap.add_argument("--spikes", default="1.0,1.1,1.2",
                    help="comma-separated spike logits (x blob peak)")
    ap.add_argument("--heatmap-dir", default=None)
    args = ap.parse_args()

    task, base_model = PRESETS["distractor-hard"]
    cfgs = [SelectionConfig(mode="greedy"),
            SelectionConfig(metric=Metric("euclidean"), tau=args.tau,
                            mode="ua_exact")]

    print(f"{'spike':>6} {'greedy':>8} {'ua':>8} {'greedy_hits':>12} {'ua_hits':>8}")
    for spike in (float(s) for s in args.spikes.split(",")):
        model = dataclasses.replace(base_model, spike_logit=spike)
        greedy, ua = evaluate(args.episodes, args.seed, task, model, cfgs)
        print(f"{spike:>6.2f} {greedy.success_rate:>8.4f} {ua.success_rate:>8.4f} "
              f"{greedy.distractor_hits:>12} {ua.distractor_hits:>8}")

    if args.heatmap_dir:
        outdir = Path(args.heatmap_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        world = make_world(splitmix64(args.seed, 0), task)
        logits, _ = synthesize_logits(world, base_model)
        path = outdir / "episode0.pgm"
        write_pgm(path, world.grid, logits.values)
        print(f"heatmap: {path}")


if __name__ == "__main__":
    main()
