import re
import struct
import threading

import numpy as np
import pytest

from uacal import calibration, dataset_io

from uacal.action_space import ActionGrid, Metric, coords_of
from uacal.calibration import (
    CalibrationSample,
    LogitField,
    apply_temperature,
    ece,
    entropy,
    fit_temperature,
    reliability_bins,
)
from uacal.cli import main
from uacal.dataset_io import read_temperature_file, write_dataset
from uacal.selection import SelectionConfig, greedy_select, select
from uacal.simbench import make_calibration_set


@pytest.fixture
def dataset(tmp_path, rng):
    grid = ActionGrid((4, 4))
    samples = []
    for i in range(40):
        logits = rng.normal(0, 2, size=16).astype(np.float32).astype(np.float64)
        samples.append(CalibrationSample(LogitField(grid, logits),
                                         int(rng.integers(0, 16)), i % 3))
    path = tmp_path / "data.uacl"
    write_dataset(path, samples)
    return path, samples


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestCalibrate:
    def test_fits_synthetic_gain(self, tmp_path, capsys):
        data = make_calibration_set(1500, 2.0, ActionGrid((64,)), seed=1)
        ds = tmp_path / "g2.uacl"
        write_dataset(ds, data)
        out_file = tmp_path / "temp.txt"
        code, out = run(capsys, "calibrate", "--dataset", ds, "--out", out_file)
        assert code == 0
        model, _ = read_temperature_file(out_file)
        assert abs(model.temperature - 2.0) / 2.0 <= 0.05
        # matches the library on the f32-stored samples
        from uacal.dataset_io import read_dataset
        lib = fit_temperature(read_dataset(ds))
        assert model.temperature == pytest.approx(lib.temperature, rel=1e-12)

    def test_task_filter(self, dataset, tmp_path, capsys):
        path, samples = dataset
        out_file = tmp_path / "t.txt"
        code, _ = run(capsys, "calibrate", "--dataset", path, "--task", "1",
                      "--out", out_file)
        assert code == 0
        model, _ = read_temperature_file(out_file)
        lib = fit_temperature([s for s in samples if s.task_id == 1])
        assert model.temperature == pytest.approx(lib.temperature, rel=1e-9)

    def test_degenerate_strict_exit_4(self, tmp_path, capsys):
        grid = ActionGrid((4,))
        flat = [CalibrationSample(LogitField(grid, np.zeros(4)), 0, 0)
                for _ in range(3)]
        ds = tmp_path / "flat.uacl"
        write_dataset(ds, flat)
        out_file = tmp_path / "t.txt"
        code, _ = run(capsys, "calibrate", "--dataset", ds, "--out", out_file,
                      "--strict")
        assert code == 4
        code, _ = run(capsys, "calibrate", "--dataset", ds, "--out", out_file)
        assert code == 0

    def test_pinned_fit_warns_on_stderr_only(self, tmp_path, capsys, rng):
        grid = ActionGrid((6,))
        data = [CalibrationSample(LogitField(grid, z), int(np.argmax(z)), 0)
                for z in rng.normal(0, 1, (30, 6))]
        ds = tmp_path / "pinned.uacl"
        write_dataset(ds, data)
        out_file = tmp_path / "t.txt"
        code = main(["calibrate", "--dataset", str(ds), "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert re.fullmatch(r"temperature 0\.01 nll \S+ iterations \d+\n", captured.out)
        assert "pinned" in captured.err
        model, _ = read_temperature_file(out_file)
        assert model.at_bound and model.temperature == 0.01
        assert "at_bound = true\n" in out_file.read_text()

    def test_unpinned_fit_is_quiet(self, tmp_path, capsys):
        path = tmp_path / "g3.uacl"
        write_dataset(path, make_calibration_set(300, 3.0, ActionGrid((16,)), seed=4))
        out_file = tmp_path / "t.txt"
        assert main(["calibrate", "--dataset", str(path), "--out", str(out_file)]) == 0
        assert capsys.readouterr().err == ""
        assert "at_bound = false\n" in out_file.read_text()

    def test_reads_one_batch_and_makes_no_extra_nll_pass(self, dataset, tmp_path,
                                                         capsys, monkeypatch):
        path, _ = dataset
        def refuse(*args):
            raise AssertionError("not on the CLI path")
        monkeypatch.setattr(calibration, "CalibrationSample", refuse)  # no per-record views
        monkeypatch.setattr(calibration, "nll", refuse)
        code, out = run(capsys, "calibrate", "--dataset", path, "--out", tmp_path / "t.txt")
        assert code == 0
        code, _ = run(capsys, "report", "--dataset", path, "--out", tmp_path / "r.csv")
        assert code == 0
        code, _ = run(capsys, "select", "--dataset", path, "--index", "1", "--mode", "ua")
        assert code == 0

    def test_checksum_comes_from_the_batch_read(self, dataset, tmp_path, capsys,
                                                 monkeypatch):
        path, _ = dataset
        expected = dataset_io.dataset_checksum(path)
        def refuse(*args):
            raise AssertionError("calibrate must not read the file a second time")
        monkeypatch.setattr(dataset_io, "dataset_checksum", refuse)
        out_file = tmp_path / "t.txt"
        for task in ("all", "1"):
            code, _ = run(capsys, "calibrate", "--dataset", path, "--task", task,
                          "--out", out_file)
            assert code == 0
            assert read_temperature_file(out_file)[1] == expected

    @pytest.mark.parametrize("case, expected", [("fit", 0), ("bad magic", 2),
                                                ("unknown task", 3), ("strict degenerate", 4)])
    def test_hash_worker_joined_on_every_exit(self, dataset, tmp_path, capsys, slow_digest,
                                              case, expected):
        path, _ = dataset
        argv = ["calibrate", "--dataset", path, "--out", tmp_path / "t.txt"]
        if case == "bad magic":
            path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        elif case == "unknown task":
            argv += ["--task", "9"]
        elif case == "strict degenerate":
            grid = ActionGrid((4,))
            write_dataset(path, [CalibrationSample(LogitField(grid, np.zeros(4)), 0, 0)] * 3)
            argv.append("--strict")
        hashed, before = len(slow_digest), threading.enumerate()
        code, _ = run(capsys, *argv)
        assert code == expected
        assert threading.enumerate() == before
        # a format error stops before the hash starts; every other exit waits for it
        assert len(slow_digest) - hashed == (case != "bad magic")

    def test_hash_failure_reaches_the_caller(self, dataset, tmp_path, monkeypatch):
        path, _ = dataset
        def broken(*buffers):
            raise RuntimeError("hash failed")
        monkeypatch.setattr(dataset_io, "_digest", broken)
        out_file = tmp_path / "t.txt"
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="hash failed"):
            main(["calibrate", "--dataset", str(path), "--out", str(out_file)])
        assert threading.enumerate() == before
        assert not out_file.exists()

    @pytest.mark.parametrize("dims", [(233, 1103, 2089), (100000, 100000)])
    @pytest.mark.parametrize("command", ["calibrate", "report", "select"])
    def test_oversized_record_exit_2(self, tmp_path, capsys, dims, command):
        path = tmp_path / "big.uacl"
        path.write_bytes(b"UACL" + struct.pack(f"<IB{len(dims)}IQ", 1, len(dims), *dims, 0))
        argv = [command, "--dataset", path]
        argv += ["--index", "0", "--mode", "ua"] if command == "select" else \
            ["--out", tmp_path / "out"]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error:") and f"dims {dims}" in err

    def test_format_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.uacl"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        code, _ = run(capsys, "calibrate", "--dataset", bad,
                      "--out", tmp_path / "t.txt")
        assert code == 2


class TestReport:
    def test_matches_library(self, dataset, tmp_path, capsys):
        path, samples = dataset
        out_csv = tmp_path / "rel.csv"
        code, out = run(capsys, "report", "--dataset", path,
                        "--temperature", "1.5", "--bins", "10",
                        "--out", out_csv)
        assert code == 0
        reported_ece = float(out.split("\n")[0].split()[1])
        assert reported_ece == pytest.approx(ece(samples, 1.5, 10), abs=1e-15)
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count,mean_confidence,accuracy"
        assert len(lines) == 11
        table = reliability_bins(samples, 1.5, 10)
        counts = [int(l.split(",")[2]) for l in lines[1:]]
        assert counts == table.counts.tolist()

    def test_single_bin_identity(self, dataset, tmp_path, capsys):
        # ECE with one bin = |overall accuracy - mean confidence|
        path, samples = dataset
        code, out = run(capsys, "report", "--dataset", path, "--bins", "1",
                        "--out", tmp_path / "r.csv")
        assert code == 0
        reported = float(out.split("\n")[0].split()[1])
        confs, hits = [], []
        for s in samples:
            p = apply_temperature(s.logits, 1.0).values
            pred = int(np.argmax(p))
            confs.append(p[pred])
            hits.append(1.0 if pred == s.expert else 0.0)
        assert reported == pytest.approx(abs(np.mean(hits) - np.mean(confs)),
                                         abs=1e-12)

    def test_per_task_max_entropy(self, dataset, tmp_path, capsys):
        path, samples = dataset
        code, out = run(capsys, "report", "--dataset", path,
                        "--out", tmp_path / "r.csv")
        assert code == 0
        got = {}
        for line in out.strip().split("\n")[1:]:
            parts = line.split()
            got[int(parts[1])] = float(parts[3])
        for tid in (0, 1, 2):
            want = max(entropy(apply_temperature(s.logits, 1.0))
                       for s in samples if s.task_id == tid)
            assert got[tid] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("line", ["temperature = abc", "iterations = x"])
    def test_malformed_temperature_file_exit_2(self, dataset, tmp_path, capsys, line):
        path, _ = dataset
        temp = tmp_path / "t.txt"
        run(capsys, "calibrate", "--dataset", path, "--out", temp)
        key = line.split()[0]
        temp.write_text("".join(line + "\n" if l.startswith(key + " ") else l
                                for l in temp.read_text().splitlines(keepends=True)))
        code = main(["report", "--dataset", str(path), "--temperature", str(temp),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert f"field {key}" in capsys.readouterr().err

    def test_bad_bins_exit_3(self, dataset, tmp_path, capsys):
        path, _ = dataset
        code, _ = run(capsys, "report", "--dataset", path, "--bins", "0",
                      "--out", tmp_path / "r.csv")
        assert code == 3


class TestSelect:
    @pytest.mark.parametrize("mode,lib_mode,metric", [
        ("greedy", "greedy", "euclidean"),
        ("ua", "ua_exact", "euclidean"),
        ("ua-fast", "ua_fast", "chebyshev"),
        ("ua-restricted", "ua_restricted", "euclidean"),
        ("gaussian", "gaussian", "euclidean"),
    ])
    def test_parity_with_library(self, dataset, capsys, mode, lib_mode, metric):
        path, samples = dataset
        code, out = run(capsys, "select", "--dataset", path, "--index", "3",
                        "--mode", mode, "--metric", metric, "--tau", "1.5",
                        "--sigma", "0.8", "--temperature", "2.0")
        assert code == 0
        lines = dict(l.split(maxsplit=1) for l in out.strip().split("\n"))
        p = apply_temperature(samples[3].logits, 2.0)
        cfg = SelectionConfig(metric=Metric(metric), tau=1.5, sigma=0.8,
                              mode=lib_mode)
        res = select(p, cfg)
        assert int(lines["action"]) == res.action
        assert tuple(int(c) for c in lines["coords"].split()) == \
            coords_of(p.grid, res.action)
        assert float(lines["score"]) == pytest.approx(res.aggregated_score,
                                                      rel=1e-15)
        assert float(lines["margin"]) == pytest.approx(res.runner_up_gap,
                                                       rel=1e-12, abs=1e-15)

    def test_greedy_dominant_record(self, tmp_path, capsys):
        grid = ActionGrid((5,))
        logits = np.array([0.0, 0.0, 6.0, 0.0, 0.0])
        ds = tmp_path / "one.uacl"
        write_dataset(ds, [CalibrationSample(LogitField(grid, logits), 2, 0)])
        code, out = run(capsys, "select", "--dataset", ds, "--index", "0",
                        "--mode", "greedy")
        assert code == 0
        assert out.splitlines()[0] == "action 2"

    def test_fast_euclidean_exit_3(self, dataset, capsys):
        path, _ = dataset
        code, _ = run(capsys, "select", "--dataset", path, "--index", "0",
                      "--mode", "ua-fast", "--metric", "euclidean")
        assert code == 3

    def test_index_out_of_range_exit_3(self, dataset, capsys):
        path, _ = dataset
        code, _ = run(capsys, "select", "--dataset", path, "--index", "999",
                      "--mode", "greedy")
        assert code == 3

    @pytest.mark.parametrize("index", ["40", "-1"])
    def test_index_out_of_range_message(self, dataset, capsys, index):
        path, _ = dataset
        code = main(["select", "--dataset", str(path), "--index", index, "--mode", "greedy"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: record index {index} out of range [0, 40)\n"

    def test_infinite_temperature_exit_3(self, dataset, tmp_path, capsys):
        path, _ = dataset
        code, _ = run(capsys, "report", "--dataset", path, "--temperature", "inf",
                      "--out", tmp_path / "r.csv")
        assert code == 3
        code, _ = run(capsys, "select", "--dataset", path, "--index", "0",
                      "--mode", "greedy", "--temperature", "inf")
        assert code == 3

    @pytest.mark.parametrize("flags", [("--mode", "ua", "--tau", "inf"),
                                       ("--mode", "ua", "--tau", "nan"),
                                       ("--mode", "gaussian", "--sigma", "inf")])
    def test_non_finite_tau_or_sigma_exit_3(self, dataset, capsys, flags):
        path, _ = dataset
        code = main(["select", "--dataset", str(path), "--index", "0", *flags])
        assert code == 3
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, want", [
        (("--mode", "ua", "--tau", "0"), ["flags degenerate_neighborhood"]),
        (("--mode", "ua-restricted", "--alpha", "1"), ["flags empty_retained_fallback"]),
        (("--mode", "ua"), []),
    ])
    def test_flags_line(self, dataset, capsys, argv, want):
        path, _ = dataset
        code, out = run(capsys, "select", "--dataset", path, "--index", "0", *argv)
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("flags")] == want

    def test_temperature_from_file(self, dataset, tmp_path, capsys):
        path, samples = dataset
        temp_file = tmp_path / "t.txt"
        run(capsys, "calibrate", "--dataset", path, "--out", temp_file)
        model, _ = read_temperature_file(temp_file)
        code, out = run(capsys, "select", "--dataset", path, "--index", "0",
                        "--mode", "greedy", "--temperature", temp_file)
        assert code == 0
        p = apply_temperature(samples[0].logits, model.temperature)
        assert int(out.splitlines()[0].split()[1]) == greedy_select(p).action


class TestBench:
    def test_deterministic_output_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code, _ = run(capsys, "bench", "--episodes", "60", "--seed", "5",
                          "--preset", "distractor-hard",
                          "--modes", "greedy,ua", "--out", out)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_restricted_finds_distractor_hard_targets(self, tmp_path, capsys):
        code, stdout = run(capsys, "bench", "--preset", "distractor-hard",
                           "--episodes", "300", "--seed", "42",
                           "--modes", "ua-restricted", "--out", tmp_path / "r.csv")
        assert code == 0
        rate = float(re.search(r"ua_restricted success_rate (\S+)", stdout).group(1))
        assert rate >= 0.95

    def test_mode_rows(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, stdout = run(capsys, "bench", "--episodes", "30", "--seed", "1",
                           "--preset", "clean",
                           "--modes", "greedy,ua,ua-fast,gaussian",
                           "--out", out)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert [l.split(",")[0] for l in lines[1:]] == \
            ["greedy", "ua_exact", "ua_fast", "gaussian"]

    def test_infinite_tau_exit_3(self, tmp_path, capsys):
        code, _ = run(capsys, "bench", "--episodes", "5", "--tau", "inf",
                      "--out", tmp_path / "r.csv")
        assert code == 3

    def test_unknown_mode_exit_3(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["bench", "--episodes", "5", "--modes", "greedy,foo", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "'foo'" in err and "gaussian, greedy, ua, ua-fast, ua-restricted" in err
        assert not out.exists()
