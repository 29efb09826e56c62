#!/usr/bin/env python3
"""Time the temperature fit and the report's statistics on calibrate-offline's
data shape: 2000 records on a 32x32 grid (two tasks, gain 4, seed 1), as the
LogitBatch ``read_dataset`` returns for it; that read itself; and the three
parts of a calibrate-offline op: ``write_dataset``, ``uacal calibrate`` and
``uacal report`` (both through ``cli.main``, stdout captured).

Prints the median and quartiles over REPEATS runs of each timed call.
The same script compares two checkouts:

    PYTHONPATH=<checkout>/src python3 scripts/time_fit.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

from uacal import calibration, cli
from uacal.action_space import ActionGrid
from uacal.dataset_io import read_dataset, write_dataset
from uacal.simbench import make_calibration_set

from timing import timed

RECORDS_PER_TASK = 1000
SIDE = 32
GAIN = 4.0
SEED = 1
REPEATS = 31


def main():
    grid = ActionGrid((SIDE, SIDE))
    samples = []
    for tid in (0, 1):
        samples += make_calibration_set(RECORDS_PER_TASK, GAIN, grid, SEED, task_id=tid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.uacl"
        write_dataset(path, samples)
        batch = read_dataset(path)
        model = calibration.fit_temperature(batch)
        T = model.temperature
        print(f"n={len(batch)} |A|={grid.size} T={T:.17g} passes={model.iterations}")
        temp = str(Path(tmp) / "t.txt")
        calibrate = ["calibrate", "--dataset", str(path), "--out", temp]
        report = ["report", "--dataset", str(path), "--temperature", temp,
                  "--out", str(Path(tmp) / "r.csv")]

        def run_cli(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        cases = {
            "write_dataset": lambda: write_dataset(path, samples),
            "read_dataset": lambda: read_dataset(path),
            "uacal calibrate": lambda: run_cli(calibrate),
            "uacal report": lambda: run_cli(report),  # reads the calibrate case's T
            "fit_temperature": lambda: calibration.fit_temperature(batch),
            "nll": lambda: calibration.nll(batch, T),
            "report statistics": lambda: calibration.calibration_report(batch, T),
        }
        for name, fn in cases.items():
            med, q1, q3 = timed(fn, REPEATS)
            print(f"{name}: median {med:.1f} ms (quartiles {q1:.1f}-{q3:.1f})")


if __name__ == "__main__":
    main()
