import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uacal.action_space import ActionGrid, Metric, flat_index
from uacal.calibration import LogitField, ece, fit_temperature
from uacal.dataset_io import write_dataset
from uacal.errors import GenerationError, ParameterError
from uacal.selection import SelectionConfig
from uacal.simbench import (
    PRESETS,
    Rect,
    SynthModelConfig,
    TaskConfig,
    WorldState,
    evaluate,
    make_calibration_set,
    make_world,
    run_episode,
    splitmix64,
    synthesize_logits,
    write_pgm,
    write_report_csv,
)

GREEDY = SelectionConfig(mode="greedy")
UA = SelectionConfig(metric=Metric("euclidean"), tau=2.5, mode="ua_exact")
ALL_MODES = [
    GREEDY,
    UA,
    SelectionConfig(metric=Metric("chebyshev"), tau=2.5, mode="ua_fast"),
    SelectionConfig(metric=Metric("euclidean"), tau=2.5, mode="ua_restricted"),
    SelectionConfig(mode="gaussian", sigma=1.0),
]


def set_based_world(seed, task):
    """Reference placement: the same draws, with disjointness tested on
    Python sets of footprint cells."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    dims = task.dims
    placed = []
    plan = [("target", task.target_half_extent)] * task.n_targets
    plan += [("distractor", task.distractor_half_extent)] * task.n_distractors
    for kind, (h_lo, h_hi) in plan:
        for _ in range(task.max_retries):
            hy = int(rng.integers(h_lo, h_hi + 1))
            hx = int(rng.integers(h_lo, h_hi + 1))
            cy = int(rng.integers(hy, dims[0] - hy))
            cx = int(rng.integers(hx, dims[1] - hx))
            rect = Rect((cy, cx), (hy, hx), kind)
            cells = set(rect.cells())
            if all(cells.isdisjoint(set(p.cells())) for p in placed):
                placed.append(rect)
                break
        else:
            raise GenerationError(
                f"could not place {kind} after {task.max_retries} retries (seed {seed})")
    return WorldState(ActionGrid(dims), tuple(placed), seed)


def meshgrid_logits(world, model):
    """Reference synthesis with full meshgrid coordinate arrays."""
    grid = world.grid
    rng = np.random.default_rng(np.random.PCG64(splitmix64(world.episode_seed, 0xF1E1D)))
    ys, xs = np.meshgrid(np.arange(grid.dims[0]), np.arange(grid.dims[1]),
                         indexing="ij")
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
    return LogitField(grid, logits.ravel()), flat_index(grid, world.targets[0].center)


def outcome(fn, *args):
    try:
        return fn(*args)
    except GenerationError as exc:
        return ("GenerationError", str(exc))


@st.composite
def placement_tasks(draw):
    dims = (draw(st.integers(3, 24)), draw(st.integers(3, 24)))
    h_max = (min(dims) - 1) // 2

    def half_range():
        lo = draw(st.integers(0, h_max))
        return lo, draw(st.integers(lo, h_max))

    return TaskConfig(dims=dims, n_targets=draw(st.integers(1, 3)),
                      n_distractors=draw(st.integers(0, 12)),
                      target_half_extent=half_range(),
                      distractor_half_extent=half_range(),
                      max_retries=draw(st.integers(1, 30)))


class TestMakeWorld:
    def test_same_seed_identical(self):
        task = TaskConfig(n_distractors=2)
        assert make_world(42, task) == make_world(42, task)

    def test_no_distractors(self):
        world = make_world(7, TaskConfig(n_distractors=0))
        assert world.distractors == []
        assert len(world.targets) == 1

    def test_disjointness_sweep(self):
        task = TaskConfig(n_targets=2, n_distractors=3)
        for seed in range(1000):
            world = make_world(splitmix64(5, seed), task)
            cells = []
            for obj in world.objects:
                cells.append(set(obj.cells()))
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    assert cells[i].isdisjoint(cells[j])

    def test_objects_within_bounds(self):
        task = TaskConfig(dims=(16, 16), n_distractors=2,
                          target_half_extent=(1, 3))
        for seed in range(200):
            world = make_world(seed, task)
            for obj in world.objects:
                for c, d in zip(obj.center, world.grid.dims):
                    assert 0 <= c < d
                for y, x in obj.cells():
                    assert 0 <= y < 16 and 0 <= x < 16

    def test_infeasible_placement_raises(self):
        task = TaskConfig(dims=(4, 4), n_targets=4,
                          target_half_extent=(1, 1), max_retries=10)
        with pytest.raises(GenerationError):
            make_world(0, task)

    def test_needs_target(self):
        with pytest.raises(ParameterError):
            make_world(0, TaskConfig(n_targets=0))

    @given(st.integers(0, 2**64 - 1), placement_tasks())
    @settings(max_examples=300, deadline=None)
    def test_interval_test_matches_set_based_placement(self, seed, task):
        assert outcome(make_world, seed, task) == outcome(set_based_world, seed, task)

    def test_crowded_grid_raises_on_the_same_seeds(self):
        task = TaskConfig(dims=(12, 12), n_targets=3, n_distractors=10,
                          target_half_extent=(1, 3), max_retries=10)
        results = [outcome(make_world, s, task) for s in range(300)]
        assert results == [outcome(set_based_world, s, task) for s in range(300)]
        assert any(isinstance(r, tuple) for r in results)
        assert any(isinstance(r, WorldState) for r in results)


class TestSynthesizeLogits:
    def test_noiseless_greedy_hits_expert(self):
        world = make_world(3, TaskConfig(n_distractors=0))
        model = SynthModelConfig(gain=2.0, spike_count=0, noise_std=0.0)
        logits, expert = synthesize_logits(world, model)
        assert int(np.argmax(logits.values)) == expert
        assert expert == np.ravel_multi_index(world.targets[0].center, (64, 64))

    def test_spike_flips_greedy_but_not_ua(self):
        world = make_world(11, TaskConfig(n_distractors=1))
        model = SynthModelConfig(gain=4.0, spike_logit=1.2, spike_count=1,
                                 noise_std=0.0)
        logits, expert = synthesize_logits(world, model)
        spike_flat = np.ravel_multi_index(world.distractors[0].center, (64, 64))
        assert int(np.argmax(logits.values)) == spike_flat
        out_greedy = run_episode(world, model, GREEDY)
        out_ua = run_episode(world, model, UA)
        assert out_greedy.hit_distractor
        assert out_ua.success

    def test_deterministic(self):
        world = make_world(9, TaskConfig(n_distractors=1))
        model = SynthModelConfig(gain=1.0, noise_std=0.3)
        a, ea = synthesize_logits(world, model)
        b, eb = synthesize_logits(world, model)
        assert np.array_equal(a.values, b.values)
        assert ea == eb

    @pytest.mark.parametrize("dims,n_targets,noise_std", [
        ((64, 64), 1, 0.25), ((32, 48), 2, 0.0), ((17, 9), 3, 0.5)])
    def test_matches_meshgrid_synthesis(self, dims, n_targets, noise_std):
        task = TaskConfig(dims=dims, n_targets=n_targets, n_distractors=2,
                          target_half_extent=(1, 2))
        model = SynthModelConfig(gain=3.0, blob_sigma=1.7, spike_count=2,
                                 noise_std=noise_std)
        for i in range(20):
            world = make_world(splitmix64(13, i), task)
            logits, expert = synthesize_logits(world, model)
            ref, ref_expert = meshgrid_logits(world, model)
            assert np.array_equal(logits.values, ref.values)
            assert expert == ref_expert

    def test_gain_recovered_by_fit(self):
        data = make_calibration_set(2000, 2.0, ActionGrid((64,)), seed=5)
        model = fit_temperature(data)
        assert abs(model.temperature - 2.0) / 2.0 <= 0.05


class TestCalibrationSet:
    def test_written_bytes_pinned(self, tmp_path):
        # checksum of the records the per-sample generator drew, recorded
        # before it filled one array: the draws and their order are unchanged
        samples = []
        for t in (0, 1):
            samples += make_calibration_set(200, 4.0, ActionGrid((8, 8)), seed=1, task_id=t)
        assert write_dataset(tmp_path / "d.uacl", samples) == "c98589160172383e"


class TestRunEpisode:
    def test_noiseless_single_target_succeeds_all_modes(self):
        world = make_world(17, TaskConfig(n_distractors=0))
        model = SynthModelConfig(gain=2.0, spike_count=0, noise_std=0.0)
        for cfg in (GREEDY, UA,
                    SelectionConfig(metric=Metric("chebyshev"), tau=2.5,
                                    mode="ua_fast"),
                    SelectionConfig(mode="gaussian", sigma=1.0),
                    SelectionConfig(metric=Metric("euclidean"), tau=2.5,
                                    window=64, mode="ua_restricted")):
            out = run_episode(world, model, cfg)
            assert out.success, cfg.mode

    def test_outcome_exclusivity(self):
        task, model = PRESETS["distractor-hard"]
        for seed in range(50):
            world = make_world(splitmix64(1, seed), task)
            out = run_episode(world, model, GREEDY)
            assert not (out.success and out.hit_distractor)


class TestEvaluate:
    def test_clean_preset_perfect(self):
        task, model = PRESETS["clean"]
        model_noiseless = SynthModelConfig(gain=model.gain, spike_count=0,
                                           noise_std=0.0)
        reports = evaluate(200, 42, task, model_noiseless, [GREEDY, UA])
        for r in reports:
            assert r.success_rate == 1.0
            assert r.stderr == 0.0

    def test_distractor_hard_regression(self):
        # frozen from the first verified run: seed 42, 1000 episodes
        task, model = PRESETS["distractor-hard"]
        reports = evaluate(1000, 42, task, model, [GREEDY, UA])
        greedy, ua = reports
        assert greedy.successes == 394
        assert ua.successes == 997
        assert greedy.success_rate <= 0.75
        assert ua.success_rate >= 0.95

    def test_repeat_identical(self):
        task, model = PRESETS["distractor-easy"]
        a = evaluate(100, 7, task, model, [GREEDY, UA])
        b = evaluate(100, 7, task, model, [GREEDY, UA])
        assert a == b

    def test_monotone_spike_harm_for_greedy(self):
        task, _ = PRESETS["distractor-hard"]
        rates = []
        for spike in (1.0, 1.1, 1.2):
            model = SynthModelConfig(gain=4.0, spike_logit=spike,
                                     spike_count=1, noise_std=0.25)
            (rep,) = evaluate(300, 42, task, model, [GREEDY])
            rates.append(rep.success_rate)
        assert rates[0] >= rates[1] >= rates[2]

    def test_ua_at_least_greedy_per_spike_level(self):
        task, _ = PRESETS["distractor-hard"]
        for spike in (1.0, 1.1, 1.2):
            model = SynthModelConfig(gain=4.0, spike_logit=spike,
                                     spike_count=1, noise_std=0.25)
            greedy, ua = evaluate(200, 11, task, model, [GREEDY, UA])
            assert ua.success_rate >= greedy.success_rate

    def test_stderr_formula(self):
        task, model = PRESETS["distractor-hard"]
        (rep,) = evaluate(250, 3, task, model, [GREEDY])
        p = rep.success_rate
        assert rep.stderr == pytest.approx(np.sqrt(p * (1 - p) / 250))

    def test_bad_episode_count(self):
        task, model = PRESETS["clean"]
        with pytest.raises(ParameterError):
            evaluate(0, 1, task, model, [GREEDY])

    def test_empty_config_list(self):
        task, model = PRESETS["clean"]
        with pytest.raises(ParameterError):
            evaluate(5, 1, task, model, [])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_paired_modes_match_separate_runs(self, preset):
        task, model = PRESETS[preset]
        paired = evaluate(60, 23, task, model, ALL_MODES)
        assert paired == [evaluate(60, 23, task, model, [c])[0] for c in ALL_MODES]

    def test_single_config_and_iterable(self):
        task, model = PRESETS["distractor-easy"]
        assert evaluate(20, 4, task, model, UA) == evaluate(20, 4, task, model, [UA])
        assert evaluate(20, 4, task, model, iter(ALL_MODES)) == \
            evaluate(20, 4, task, model, ALL_MODES)

    def test_run_episode_matches_evaluate(self):
        task, model = PRESETS["distractor-hard"]
        for cfg in ALL_MODES:
            outs = [run_episode(make_world(splitmix64(8, i), task), model, cfg)
                    for i in range(30)]
            (rep,) = evaluate(30, 8, task, model, [cfg])
            assert rep.successes == sum(o.success for o in outs)
            assert rep.distractor_hits == sum(o.hit_distractor for o in outs)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [("gain", 0.0), ("gain", -1.0),
                                              ("blob_sigma", 0.0), ("spike_count", -1)])
    def test_bad_model_config_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SynthModelConfig(**{field: value})

    def test_empty_calibration_set_rejected(self):
        with pytest.raises(ParameterError, match="n_samples"):
            make_calibration_set(0, 2.0, ActionGrid((4,)), seed=0)


class TestCalibrationOrdering:
    @pytest.mark.parametrize("gain", [0.5, 2.0, 5.0])
    def test_gain_recovery(self, gain):
        data = make_calibration_set(2000, gain, ActionGrid((64,)), seed=29)
        fitted = fit_temperature(data).temperature
        assert abs(fitted - gain) / gain <= 0.05

    @pytest.mark.parametrize("gain", [0.5, 2.0, 4.0])
    def test_ece_never_worse_after_fit(self, gain):
        data = make_calibration_set(3000, gain, ActionGrid((64,)), seed=31)
        fitted = fit_temperature(data).temperature
        assert ece(data, fitted, 15) <= ece(data, 1.0, 15)


class TestExports:
    def test_report_csv(self, tmp_path):
        task, model = PRESETS["distractor-easy"]
        reports = evaluate(50, 2, task, model, [GREEDY, UA])
        out = tmp_path / "report.csv"
        write_report_csv(out, reports)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mode,episodes,successes,success_rate,stderr,distractor_hits"
        assert len(lines) == 3
        assert lines[1].startswith("greedy,50,")

    def test_pgm_round_structure(self, tmp_path):
        world = make_world(4, TaskConfig(dims=(32, 48)))
        model = SynthModelConfig(gain=1.0, spike_count=0)
        logits, _ = synthesize_logits(world, model)
        path = tmp_path / "heat.pgm"
        write_pgm(path, world.grid, logits.values)
        data = path.read_bytes()
        header = b"P5\n48 32\n255\n"
        assert data.startswith(header)
        assert len(data) == len(header) + 32 * 48
        assert max(data[len(header):]) == 255  # max-normalized

    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ParameterError):
            write_pgm(tmp_path / "x.pgm", ActionGrid((8,)), np.ones(8))
