#!/usr/bin/env python3
"""Generate a miscalibrated synthetic dataset, fit a temperature, and
print calibration diagnostics before/after, end to end through the CLI
file formats."""

import argparse
import tempfile
from pathlib import Path

from uacal.action_space import ActionGrid
from uacal.calibration import fit_temperature, reliability_bins
from uacal.dataset_io import write_dataset, write_reliability_csv
from uacal.simbench import make_calibration_set


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gain", type=float, default=4.0,
                    help="miscalibration gain (ground-truth temperature)")
    ap.add_argument("--samples", type=int, default=5000)
    ap.add_argument("--actions", type=int, default=64)
    ap.add_argument("--bins", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args()

    outdir = Path(args.outdir or tempfile.mkdtemp(prefix="uacal_demo_"))
    outdir.mkdir(parents=True, exist_ok=True)
    grid = ActionGrid((args.actions,))
    data = make_calibration_set(args.samples, args.gain, grid, seed=args.seed)
    checksum = write_dataset(outdir / "dataset.uacl", data)
    print(f"dataset: {outdir / 'dataset.uacl'} (checksum {checksum})")

    model = fit_temperature(data)
    print(f"true temperature {args.gain:g}, fitted {model.temperature:.4f} "
          f"({model.iterations} iterations)")
    for label, T in (("uncalibrated", 1.0), ("calibrated", model.temperature)):
        table = reliability_bins(data, T, args.bins)
        csv = outdir / f"reliability_{label}.csv"
        write_reliability_csv(csv, table)
        print(f"{label}: ECE {table.ece():.4f} -> {csv}")


if __name__ == "__main__":
    main()
