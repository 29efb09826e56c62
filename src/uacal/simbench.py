"""Deterministic synthetic pick-and-place benchmark.

Worlds are 2-axis grids holding rectangular target objects and smaller
distractors. The synthetic "model" emits logits that are a Gaussian blob
per target plus iid noise, all multiplied by a miscalibration gain g, and
a single high-logit cell at each distractor center. Because the gain is a
pure scalar on the true logits, the ground-truth optimal temperature is
exactly g, giving a closed-form oracle for temperature fitting. Episodes
are seeded by a splitmix64 hash of (base_seed, episode index), so
evaluation is order-insensitive and reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action_space import ActionGrid, coords_of, flat_index
from .calibration import LogitBatch, LogitField, _softmax64, apply_temperature
from .errors import GenerationError, ParameterError
from .selection import SelectionConfig, select

_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Derived 64-bit stream seed for (seed, index); splitmix64 finalizer."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned footprint: center cell plus half-extents, inclusive."""
    center: tuple[int, int]
    half_extents: tuple[int, int]
    kind: str  # "target" | "distractor"

    def contains(self, coords) -> bool:
        return all(abs(c - cc) <= h for c, cc, h
                   in zip(coords, self.center, self.half_extents))

    def cells(self):
        (cy, cx), (hy, hx) = self.center, self.half_extents
        for y in range(cy - hy, cy + hy + 1):
            for x in range(cx - hx, cx + hx + 1):
                yield (y, x)


@dataclass(frozen=True)
class WorldState:
    grid: ActionGrid
    objects: tuple[Rect, ...]
    episode_seed: int

    @property
    def targets(self):
        return [o for o in self.objects if o.kind == "target"]

    @property
    def distractors(self):
        return [o for o in self.objects if o.kind == "distractor"]


@dataclass(frozen=True)
class TaskConfig:
    dims: tuple[int, int] = (64, 64)
    n_targets: int = 1
    n_distractors: int = 0
    target_half_extent: tuple[int, int] = (2, 4)      # sampled inclusive range
    distractor_half_extent: tuple[int, int] = (0, 1)
    max_retries: int = 200


@dataclass(frozen=True)
class SynthModelConfig:
    gain: float = 1.0          # miscalibration factor; true temperature
    blob_sigma: float = 1.5    # cells
    spike_logit: float = 1.2   # relative to the blob peak of 1 (pre-gain)
    spike_count: int = 1       # spiked distractors per episode
    noise_std: float = 0.0

    def __post_init__(self):
        if not self.gain > 0:
            raise ParameterError("gain must be positive")
        if not self.blob_sigma > 0:
            raise ParameterError("blob_sigma must be positive")
        if self.spike_count < 0:
            raise ParameterError("spike_count must be >= 0")


@dataclass(frozen=True)
class EpisodeOutcome:
    chosen: int
    expert: int
    success: bool
    hit_distractor: bool
    mode: str


def make_world(seed: int, task: TaskConfig = TaskConfig()) -> WorldState:
    """Sample a world with pairwise-disjoint object footprints."""
    if task.n_targets < 1:
        raise ParameterError("need at least one target")
    rng = np.random.default_rng(np.random.PCG64(seed))
    dims = task.dims
    placed: list[Rect] = []
    plan = [("target", task.target_half_extent)] * task.n_targets
    plan += [("distractor", task.distractor_half_extent)] * task.n_distractors
    for kind, (h_lo, h_hi) in plan:
        for _ in range(task.max_retries):
            hy = int(rng.integers(h_lo, h_hi + 1))
            hx = int(rng.integers(h_lo, h_hi + 1))
            cy = int(rng.integers(hy, dims[0] - hy))
            cx = int(rng.integers(hx, dims[1] - hx))
            # inclusive footprints are disjoint iff they are apart on some axis
            if all(abs(cy - py) > hy + qy or abs(cx - px) > hx + qx
                   for (py, px), (qy, qx) in ((p.center, p.half_extents) for p in placed)):
                placed.append(Rect((cy, cx), (hy, hx), kind))
                break
        else:
            raise GenerationError(
                f"could not place {kind} after {task.max_retries} retries (seed {seed})")
    return WorldState(ActionGrid(dims), tuple(placed), seed)


def synthesize_logits(world: WorldState, model: SynthModelConfig):
    """Emit (LogitField, expert flat index) for a world.

    Logits = gain * (sum of unit-peak Gaussian blobs at target centers
    + N(0, noise_std^2) per cell); then the first spike_count distractor
    centers are overwritten with gain * spike_logit.
    """
    grid = world.grid
    rng = np.random.default_rng(np.random.PCG64(splitmix64(world.episode_seed, 0xF1E1D)))
    ys, xs = np.arange(grid.dims[0])[:, None], np.arange(grid.dims[1])
    base = np.zeros(grid.dims)
    for t in world.targets:
        cy, cx = t.center
        d2 = (ys - cy) ** 2 + (xs - cx) ** 2
        base += np.exp(-0.5 * d2 / model.blob_sigma ** 2)
    if model.noise_std > 0:
        base += rng.normal(0.0, model.noise_std, size=grid.dims)
    logits = model.gain * base
    for d in world.distractors[:model.spike_count]:
        logits[d.center] = model.gain * model.spike_logit
    expert = flat_index(grid, world.targets[0].center)
    return LogitField(grid, logits.ravel()), expert


def _score_episode(world: WorldState, model: SynthModelConfig, cfgs,
                   T: float) -> list[EpisodeOutcome]:
    """Synthesize and temperature-scale once, then select and classify the
    chosen cell under every config."""
    logits, expert = synthesize_logits(world, model)
    p = apply_temperature(logits, T)
    targets, distractors = world.targets, world.distractors
    outcomes = []
    for cfg in cfgs:
        res = select(p, cfg)
        coords = coords_of(world.grid, res.action)
        success = any(t.contains(coords) for t in targets)
        hit = (not success) and any(d.contains(coords) for d in distractors)
        outcomes.append(EpisodeOutcome(res.action, expert, success, hit, cfg.mode))
    return outcomes


def run_episode(world: WorldState, model: SynthModelConfig,
                cfg: SelectionConfig, T: float = 1.0) -> EpisodeOutcome:
    """Synthesize, temperature-scale, select, and classify the chosen cell."""
    return _score_episode(world, model, [cfg], T)[0]


@dataclass(frozen=True)
class ModeReport:
    mode: str
    episodes: int
    successes: int
    success_rate: float
    stderr: float
    distractor_hits: int


def evaluate(n_episodes: int, base_seed: int, task: TaskConfig,
             model: SynthModelConfig, cfgs, T: float = 1.0) -> list[ModeReport]:
    """Score every selection config on the same n_episodes worlds, one report
    per config; deterministic in (base_seed, configs).

    Each episode's world, logits and probabilities are built once and shared
    by all configs, so the modes are compared on identical scenes.
    """
    if n_episodes < 1:
        raise ParameterError("n_episodes must be >= 1")
    cfgs = [cfgs] if isinstance(cfgs, SelectionConfig) else list(cfgs)
    if not cfgs:
        raise ParameterError("need at least one selection config")
    wins = [0] * len(cfgs)
    hits = [0] * len(cfgs)
    for i in range(n_episodes):
        world = make_world(splitmix64(base_seed, i), task)
        for j, out in enumerate(_score_episode(world, model, cfgs, T)):
            wins[j] += out.success
            hits[j] += out.hit_distractor
    reports = []
    for cfg, w, h in zip(cfgs, wins, hits):
        rate = w / n_episodes
        se = math.sqrt(rate * (1.0 - rate) / n_episodes)
        reports.append(ModeReport(cfg.mode, n_episodes, w, rate, se, h))
    return reports


def make_calibration_set(n_samples: int, gain: float, grid: ActionGrid,
                         seed: int, task_id: int = 0) -> LogitBatch:
    """Synthetic calibration set with a known miscalibration gain.

    Per record: true logits ~ N(0, 1) iid over the grid, expert
    drawn from softmax(true logits), stored logits = gain * true logits.
    fit_temperature on the result should recover the gain.
    """
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    rng = np.random.default_rng(np.random.PCG64(splitmix64(seed, task_id)))
    logits = np.empty((n_samples, grid.size))
    experts = np.empty(n_samples, np.int64)
    for i in range(n_samples):
        true = rng.normal(0.0, 1.0, size=grid.size)
        experts[i] = rng.choice(grid.size, p=_softmax64(true))
        logits[i] = gain * true
    return LogitBatch(grid, logits, experts, np.full(n_samples, task_id))


# Benchmark presets: (TaskConfig, SynthModelConfig). The "hard" preset is the
# desk-scale spike-distractor failure mode: one distractor cell whose logit
# beats the blob peak, so greedy chases it while neighborhood aggregation
# stays on the blob.
PRESETS = {
    "clean": (
        TaskConfig(n_distractors=0),
        SynthModelConfig(gain=4.0, spike_count=0, noise_std=0.05),
    ),
    "distractor-easy": (
        TaskConfig(n_distractors=1),
        SynthModelConfig(gain=4.0, spike_logit=1.05, spike_count=1, noise_std=0.25),
    ),
    "distractor-hard": (
        TaskConfig(n_distractors=1),
        SynthModelConfig(gain=4.0, spike_logit=1.2, spike_count=1, noise_std=0.25),
    ),
}


def write_report_csv(path, reports) -> None:
    """CSV: mode,episodes,successes,success_rate,stderr,distractor_hits."""
    lines = ["mode,episodes,successes,success_rate,stderr,distractor_hits"]
    for r in reports:
        lines.append(f"{r.mode},{r.episodes},{r.successes},"
                     f"{r.success_rate:.17g},{r.stderr:.17g},{r.distractor_hits}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_pgm(path, grid: ActionGrid, values) -> None:
    """Max-normalized 8-bit binary PGM (P5), row-major, for 2-axis fields."""
    if grid.ndim != 2:
        raise ParameterError("PGM dumps require a 2-axis grid")
    arr = np.asarray(values, dtype=np.float64).reshape(grid.dims)
    peak = arr.max()
    img = np.zeros(grid.dims, dtype=np.uint8) if peak <= 0 else \
        np.clip(arr / peak * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.dims[1]} {grid.dims[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
