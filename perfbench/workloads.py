"""The benchmark's three workloads.

Each drives uacal's public API the way the ``uacal`` CLI and ``scripts/`` do,
builds its inputs from the seed at set-up, and checks every op's output.
Calls go through module attributes (``selection.select``, not a bound
name) so the traced run sees them.

A workload exposes:

* ``warm_up()``      - untimed ops that let lazy set-up finish;
* ``op(i)``          - op ``i`` of the closed loop; returns what ``check`` needs;
* ``check(i, out)``  - list of failure messages for op ``i`` (empty when correct);
* ``tag(i)``         - label of op ``i``'s input kind, for the trace;
* ``finish()``       - (quality figures, failure messages) after the timed loop;
* ``work_per_op``, ``work_unit`` and ``cycle``: the loop always ends on a
  multiple of ``cycle`` ops, so every run holds the same input mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from uacal import action_space, calibration, cli, dataset_io, selection, simbench
from uacal.action_space import ActionGrid, Metric
from uacal.selection import SelectionConfig

WARMUP_STREAM = 0x5EED


class DeskEpisodes:
    """The paper's experiment: one op scores one seeded desk world under
    greedy, ua_exact and gaussian selection, as ``uacal bench`` does."""

    name = "desk-episodes"
    work_unit = "episodes"
    work_per_op = 1
    cycle = 1
    warmup_ops = 100
    success_ops = 300   # success rates come from ops 0..299, fixed per seed
    recheck_ops = 100   # ops re-run after timing to show they repeat exactly

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.task, self.model = simbench.PRESETS["distractor-hard"]
        # the configs `uacal bench --modes greedy,ua,gaussian` builds
        self.cfgs = [SelectionConfig(metric=Metric("euclidean"), tau=2.5, sigma=1.0, mode=m)
                     for m in ("greedy", "ua_exact", "gaussian")]
        self.modes = [c.mode for c in self.cfgs]
        self.successes: dict[int, tuple[int, ...]] = {}

    def describe(self) -> dict:
        return {"grid": "x".join(map(str, self.task.dims)), "preset": "distractor-hard",
                "modes": self.modes, "tau": 2.5, "sigma": 1.0}

    def _evaluate(self, episode_seed: int):
        return simbench.evaluate(1, episode_seed, self.task, self.model, self.cfgs)

    def warm_up(self) -> None:
        base = simbench.splitmix64(self.seed, WARMUP_STREAM)
        for i in range(self.warmup_ops):
            self._evaluate(simbench.splitmix64(base, i))

    def tag(self, i: int) -> str:
        return ""

    def op(self, i: int):
        return self._evaluate(simbench.splitmix64(self.seed, i))

    def check(self, i: int, reports) -> list[str]:
        if [r.mode for r in reports] != self.modes:
            return [f"op {i}: report modes {[r.mode for r in reports]}"]
        if any(r.episodes != 1 for r in reports):
            return [f"op {i}: a report does not hold exactly one episode"]
        if i < self.success_ops:
            self.successes[i] = tuple(r.successes for r in reports)
        return []

    def finish(self):
        errors = []
        for i in range(self.success_ops):
            if i not in self.successes:
                errors += self.check(i, self.op(i))
        if errors:
            return {}, errors
        for i in range(self.recheck_ops):
            again = tuple(r.successes for r in self.op(i))
            if again != self.successes[i]:
                errors.append(f"op {i}: successes {again} on re-run, "
                              f"{self.successes[i]} before")
        wins = np.sum([self.successes[i] for i in range(self.success_ops)], axis=0)
        quality = {f"success_rate.{m}": (float(w) / self.success_ops, "fraction")
                   for m, w in zip(self.modes, wins)}
        return quality, errors


class VolumeSelect:
    """One op temperature-scales one pre-built 3-axis field and selects on it
    under four configs (four decisions). Peaked and flat fields alternate in
    a fixed 3:1 ratio; flat fields make every neighbourhood score tie."""

    name = "volume-select"
    work_unit = "decisions"
    dims = (64, 64, 64)
    field_kinds = ("peaked", "peaked", "peaked", "flat")
    cycle = len(field_kinds)
    gain = 4.0            # logit gain of the synthetic model; also the temperature
    blob_sigma = 2.0      # cells
    spike_logit = 1.2     # relative to the blob peak, as in the distractor preset
    noise_std = 0.25
    sample_cells = 8      # cells per decision checked against the chosen score
    warmup_dims = (12, 12, 12)

    configs = (
        SelectionConfig(metric=Metric("euclidean"), tau=2.5, mode="ua_exact"),
        SelectionConfig(metric=Metric("chebyshev"), tau=4.5, mode="ua_exact"),
        SelectionConfig(metric=Metric("chebyshev"), tau=4.5, mode="ua_fast"),
        SelectionConfig(metric=Metric("euclidean"), tau=2.5, mode="ua_restricted"),
    )
    work_per_op = len(configs)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.grid = ActionGrid(self.dims)
        rng = np.random.default_rng(np.random.PCG64(seed))
        self.fields = [self._field(self.grid, kind, rng) for kind in self.field_kinds]

    def describe(self) -> dict:
        return {"grid": "x".join(map(str, self.dims)), "fields": list(self.field_kinds),
                "temperature": self.gain,
                "configs": [f"{c.mode}/{c.metric.kind}/tau={c.tau}" for c in self.configs]}

    def _field(self, grid: ActionGrid, kind: str, rng) -> calibration.LogitField:
        if kind == "flat":
            return calibration.LogitField(grid, np.zeros(grid.size))
        dims = np.asarray(grid.dims)
        margin = np.minimum(4, dims // 4)
        center = rng.integers(margin, dims - margin)
        coords = np.indices(grid.dims).reshape(grid.ndim, -1).T
        d2 = np.sum((coords - center) ** 2, axis=1)
        base = np.exp(-0.5 * d2 / self.blob_sigma ** 2)
        base += rng.normal(0.0, self.noise_std, size=grid.size)
        base[rng.integers(grid.size)] = self.spike_logit
        return calibration.LogitField(grid, self.gain * base)

    def _decide(self, field, cfg):
        p = calibration.apply_temperature(field, self.gain)
        return p, selection.select(p, cfg)

    def warm_up(self) -> None:
        grid = ActionGrid(self.warmup_dims)
        rng = np.random.default_rng(np.random.PCG64(self.seed ^ WARMUP_STREAM))
        for kind in ("peaked", "flat"):
            field = self._field(grid, kind, rng)
            for cfg in self.configs:
                self._decide(field, cfg)

    def tag(self, i: int) -> str:
        return self.field_kinds[i % self.cycle]

    def op(self, i: int):
        field = self.fields[i % self.cycle]
        return [self._decide(field, cfg) for cfg in self.configs]

    def check(self, i: int, decisions) -> list[str]:
        errors = []
        rng = np.random.default_rng(np.random.PCG64(
            simbench.splitmix64(self.seed, i)))
        for cfg, (p, res) in zip(self.configs, decisions):
            if cfg.mode != "ua_exact":
                continue
            what = f"op {i} ({self.tag(i)}) ua_exact/{cfg.metric.kind}"

            def brute(a):
                nbr = action_space.neighborhood(self.grid, cfg.metric, int(a), cfg.tau)
                return float(p.values[nbr].sum())

            chosen = brute(res.action)
            if abs(chosen - res.aggregated_score) > 1e-12:
                errors.append(f"{what}: score {res.aggregated_score!r} "
                              f"but brute-force sum {chosen!r}")
            for a in rng.integers(self.grid.size, size=self.sample_cells):
                if brute(a) > res.aggregated_score + 1e-12:
                    errors.append(f"{what}: cell {a} scores above chosen {res.action}")
                    break
        exact_cheb = decisions[1][1].action
        fast = decisions[2][1].action
        if fast != exact_cheb:
            errors.append(f"op {i} ({self.tag(i)}): ua_fast chose {fast}, "
                          f"ua_exact/chebyshev {exact_cheb}")
        return errors

    def finish(self):
        return {}, []


class CalibrateOffline:
    """One op writes a 2000-record UACL file, then runs ``uacal calibrate``
    and ``uacal report`` on it in the same process."""

    name = "calibrate-offline"
    work_unit = "records"
    dims = (32, 32)
    task_ids = (0, 1)
    records_per_task = 1000
    gain = 4.0
    # The fitted T scatters around the gain with sd 2.2% across seeds at 2000
    # records (26 seeds; seed 201 gives 4.243 with a lower NLL than at 4.0),
    # so recovery is checked at 4.5 sd and the fit itself by NLL minimality.
    gain_tolerance = 0.10
    warmup_records = 50   # per task
    work_per_op = len(task_ids) * records_per_task
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        grid = ActionGrid(self.dims)
        self.samples = []
        for tid in self.task_ids:
            self.samples += simbench.make_calibration_set(
                self.records_per_task, self.gain, grid, seed, task_id=tid)
        self.paths = self._paths(workdir, "calib")
        self.warm_paths = self._paths(workdir, "warm")
        self.verified = None   # outputs of the first op that passed every check
        self.quality = {}

    @staticmethod
    def _paths(workdir, stem):
        return tuple(os.path.join(workdir, f"{stem}.{ext}") for ext in ("uacl", "temp", "csv"))

    def describe(self) -> dict:
        return {"grid": "x".join(map(str, self.dims)), "records": len(self.samples),
                "task_ids": list(self.task_ids), "gain": self.gain}

    @staticmethod
    def _pass(samples, paths):
        data, temp, csv = paths
        checksum = dataset_io.write_dataset(data, samples)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc_cal = cli.main(["calibrate", "--dataset", data, "--out", temp])
            rc_rep = cli.main(["report", "--dataset", data, "--temperature", temp,
                               "--out", csv])
        return checksum, rc_cal, rc_rep, out.getvalue()

    def warm_up(self) -> None:
        n = self.warmup_records
        per = self.records_per_task
        subset = [s for t in range(len(self.task_ids)) for s in self.samples[t * per:t * per + n]]
        self._pass(subset, self.warm_paths)

    def tag(self, i: int) -> str:
        return ""

    def op(self, i: int):
        return self._pass(self.samples, self.paths)

    def check(self, i: int, out) -> list[str]:
        checksum, rc_cal, rc_rep, text = out
        if rc_cal != 0 or rc_rep != 0:
            return [f"op {i}: calibrate exit {rc_cal}, report exit {rc_rep}"]
        outputs = [checksum, text]
        for path in self.paths:
            digest = hashlib.blake2b()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            outputs.append(digest.hexdigest())
        if self.verified is not None:
            # every op gets the same input, so it must repeat the verified output
            return [] if outputs == self.verified else [
                f"op {i}: output differs from that of a verified earlier op"]
        errors = self._verify(i, checksum, text)
        if not errors:
            self.verified = outputs
        return errors

    def _verify(self, i: int, checksum: str, text: str) -> list[str]:
        printed = {}
        for line in text.splitlines():
            words = line.split()
            if words and words[0] in ("temperature", "ece"):
                printed.update(zip(words[::2], words[1::2]))
        errors = []
        data, temp, _ = self.paths
        back = dataset_io.read_dataset(data)
        if len(back) != len(self.samples) or any(
                b.task_id != s.task_id or b.expert != s.expert
                or not np.array_equal(b.logits.values,
                                      s.logits.values.astype(np.float32).astype(np.float64))
                for b, s in zip(back, self.samples)):
            errors.append(f"op {i}: records read back differ from the f32 values written")
        model, stored_checksum = dataset_io.read_temperature_file(temp)
        if (stored_checksum != checksum
                or f"{model.temperature:.17g}" != printed.get("temperature")
                or f"{model.final_nll:.17g}" != printed.get("nll")
                or str(model.iterations) != printed.get("iterations")):
            errors.append(f"op {i}: temperature file {model}, {stored_checksum} does not "
                          f"match the printed fit {printed} and checksum {checksum}")
        t_fit = model.temperature
        if abs(t_fit - self.gain) > self.gain_tolerance * self.gain:
            errors.append(f"op {i}: fitted T {t_fit} not within "
                          f"{self.gain_tolerance:.0%} of {self.gain}")
        at_fit = calibration.nll(back, t_fit)
        for t in (self.gain, t_fit * 0.99, t_fit * 1.01):
            if calibration.nll(back, t) < at_fit - 1e-9:
                errors.append(f"op {i}: NLL at T={t} is below NLL at the fitted T {t_fit}")
        recomputed = calibration.reliability_bins(back, t_fit).ece()
        if "ece" not in printed or not math.isclose(float(printed["ece"]), recomputed,
                                                    rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"op {i}: printed ECE {printed.get('ece')} but "
                          f"reliability_bins gives {recomputed!r}")
        if not errors:
            self.quality = {"temperature_abs_err": (abs(t_fit - self.gain), "1"),
                            "ece_calibrated": (recomputed, "1")}
        return errors

    def finish(self):
        if self.verified is None:
            return {}, ["no op passed its checks"]
        return self.quality, []


WORKLOADS = {w.name: w for w in (DeskEpisodes, VolumeSelect, CalibrateOffline)}
