import hashlib
import mmap
import re
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from uacal import calibration, dataset_io
from uacal.action_space import ActionGrid
from uacal.calibration import CalibrationSample, LogitBatch, LogitField, TemperatureModel
from uacal.dataset_io import (
    count_samples,
    dataset_checksum,
    expected_length,
    read_dataset,
    read_temperature_file,
    write_dataset,
    write_temperature_file,
)
from uacal.errors import FormatError, ValidationError
from uacal.simbench import make_calibration_set

from conftest import batch_of


def random_samples(rng, grid, n, tasks=1):
    return [CalibrationSample(LogitField(grid, rng.normal(0, 2, size=grid.size)),
                              int(rng.integers(0, grid.size)),
                              int(rng.integers(0, tasks)))
            for _ in range(n)]


F32_LOGITS = st.floats(width=32, allow_nan=False, allow_infinity=False)
# float64 logits inside float32's range, most of which float32 must round
F64_LOGITS = st.floats(-3e38, 3e38)


@st.composite
def f32_datasets(draw, min_samples=0, elements=F32_LOGITS):
    """(grid, samples) on a 1-4 axis grid; logits from ``elements``, by default
    f32-representable."""
    naxes = draw(st.integers(1, 4))
    grid = ActionGrid(tuple(draw(st.lists(st.integers(1, 3), min_size=naxes,
                                          max_size=naxes))))
    logits = arrays(np.float64, grid.size, elements=elements)
    samples = [CalibrationSample(LogitField(grid, draw(logits)),
                                 draw(st.integers(0, grid.size - 1)),
                                 draw(st.integers(0, 2**32 - 1)))
               for _ in range(draw(st.integers(min_samples, 6)))]
    return grid, samples


def reference_records(path) -> list:
    """(task id, expert, f32 logits) per record, parsed one record at a time
    with struct, independently of the library's reader."""
    raw = Path(path).read_bytes()
    ndims = raw[8]
    size = int(np.prod(struct.unpack_from(f"<{ndims}I", raw, 9)))
    (n,) = struct.unpack_from("<Q", raw, 9 + 4 * ndims)
    at, records = 17 + 4 * ndims, []
    for _ in range(n):
        task, expert = struct.unpack_from("<IQ", raw, at)
        records.append((task, expert, struct.unpack_from(f"<{size}f", raw, at + 12)))
        at += 12 + 4 * size
    return records


def struct_file(grid, samples) -> bytes:
    """A whole UACL file packed one record at a time with struct, independently
    of the library's writer."""
    parts = [b"UACL", struct.pack(f"<IB{grid.ndim}IQ", 1, grid.ndim, *grid.dims, len(samples))]
    for s in samples:
        parts.append(struct.pack(f"<IQ{grid.size}f", s.task_id, s.expert, *s.logits.values))
    return b"".join(parts)


def written(grid, samples, tmp: str) -> Path:
    path = Path(tmp) / "d.uacl"
    write_dataset(path, samples, grid=grid)
    return path


class TestChecksum:
    def test_empty_dataset_frozen_checksum(self, tmp_path):
        # 21-byte empty file with dims [2]; value pinned at build time
        path = tmp_path / "empty.uacl"
        checksum = write_dataset(path, [], grid=ActionGrid((2,)))
        assert path.stat().st_size == 21
        assert checksum == "0bead40a8ae1f553"
        assert dataset_checksum(path) == checksum
        header = b"UACL" + struct.pack("<IBIQ", 1, 1, 2, 0)
        assert len(header) == 21
        assert checksum == hashlib.blake2b(header, digest_size=8).hexdigest()

    def test_checksum_streams_blocks(self, tmp_path, rng, monkeypatch):
        block = 1 << 16
        monkeypatch.setattr(dataset_io, "_BLOCK_BYTES", block)
        path = tmp_path / "blocks.bin"
        path.write_bytes(rng.bytes(5 * block + 1234))  # a partial last block
        tracemalloc.start()
        try:
            checksum = dataset_checksum(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checksum == hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
        assert peak < 3 * block  # a block and the next, never the whole file


class TestHashWorker:
    """write_dataset hashes on a worker thread that it joins on every exit."""

    def test_joined_after_a_write(self, tmp_path, rng, slow_digest):
        path = tmp_path / "d.uacl"
        before = threading.enumerate()
        checksum = write_dataset(path, random_samples(rng, ActionGrid((3, 2)), 20))
        assert threading.enumerate() == before
        assert slow_digest == [2]  # header and records, hashed in place
        assert checksum == hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()

    def test_hash_failure_reaches_the_caller(self, tmp_path, rng, monkeypatch):
        def broken(*buffers):
            raise RuntimeError("hash failed")
        monkeypatch.setattr(dataset_io, "_digest", broken)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="hash failed"):
            write_dataset(tmp_path / "d.uacl", random_samples(rng, ActionGrid((4,)), 5))
        assert threading.enumerate() == before


class TestFileBuffers:
    """The writer's records and the reader's file bytes each take a private mapping of
    their own, outside the malloc heap, unmapped when their last view is freed."""

    def test_writer_and_reader_map_their_buffers(self, tmp_path, rng, monkeypatch):
        sizes = []

        def spy(nbytes, real=dataset_io._file_buffer):
            sizes.append(nbytes)
            return real(nbytes)
        monkeypatch.setattr(dataset_io, "_file_buffer", spy)
        grid = ActionGrid((4, 3))
        path = tmp_path / "d.uacl"
        write_dataset(path, random_samples(rng, grid, 7))
        batch, data = dataset_io._read_batch(path)
        assert sizes == [7 * (12 + 4 * grid.size), path.stat().st_size]
        assert isinstance(data.obj, mmap.mmap) and data == path.read_bytes()
        assert batch.logits.base is not None  # a view of the mapped bytes, not a copy

    def test_empty_buffer(self):
        assert dataset_io._file_buffer(0).nbytes == 0


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "d.uacl"
        write_dataset(path, [], grid=ActionGrid((3, 4)))
        batch = read_dataset(path)
        assert len(batch) == 0 and batch.logits.shape == (0, 12)
        assert count_samples(path) == 0

    def test_single_sample_bit_exact(self, tmp_path, rng):
        grid = ActionGrid((2, 3))
        # f32-representable logits survive the round trip bit for bit
        logits = rng.normal(0, 2, size=6).astype(np.float32).astype(np.float64)
        samples = [CalibrationSample(LogitField(grid, logits), 5, 9)]
        path = tmp_path / "d.uacl"
        write_dataset(path, samples)
        (got,) = read_dataset(path)
        assert got.expert == 5
        assert got.task_id == 9
        assert np.array_equal(got.logits.values, logits)

    def test_100_random_round_trips_byte_identical(self, tmp_path, rng):
        for trial in range(100):
            naxes = int(rng.integers(1, 5))
            dims = tuple(int(d) for d in rng.integers(1, 6, size=naxes))
            grid = ActionGrid(dims)
            samples = [
                CalibrationSample(
                    LogitField(grid, rng.normal(0, 3, size=grid.size)
                               .astype(np.float32).astype(np.float64)),
                    int(rng.integers(0, grid.size)), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(0, 12)))
            ]
            p1 = tmp_path / f"a{trial}.uacl"
            p2 = tmp_path / f"b{trial}.uacl"
            write_dataset(p1, samples, grid=grid)
            write_dataset(p2, read_dataset(p1), grid=grid)
            assert p1.read_bytes() == p2.read_bytes()

    def test_length_formula(self, tmp_path, rng):
        grid = ActionGrid((3, 2))
        samples = random_samples(rng, grid, 7)
        path = tmp_path / "d.uacl"
        write_dataset(path, samples)
        assert path.stat().st_size == expected_length(grid, 7)
        assert path.stat().st_size == 9 + 4 * 2 + 8 + 7 * (12 + 4 * 6)

    # an explicit grid counts as one more grid the samples must share
    @pytest.mark.parametrize("dims, grid", [([(4,), (5,)], None),
                                            ([(2, 3), (2, 3)], ActionGrid((3, 2)))])
    def test_mixed_grids_rejected(self, tmp_path, rng, dims, grid):
        samples = [s for d in dims for s in random_samples(rng, ActionGrid(d), 1)]
        with pytest.raises(ValidationError, match="all samples must share a single grid"):
            write_dataset(tmp_path / "d.uacl", samples, grid=grid)

    @pytest.mark.parametrize("task_id", [-1, 2**32])
    def test_task_id_outside_u32_rejected(self, tmp_path, task_id):
        grid = ActionGrid((2,))
        sample = CalibrationSample(LogitField(grid, [0.0, 1.0]), 1, task_id)
        with pytest.raises(ValidationError, match=rf"task id {task_id}\b"):
            write_dataset(tmp_path / "d.uacl", [sample])

    @pytest.mark.parametrize("k, big", [(0, 1e39), (2, -1e39)])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, rng, slow_digest, k, big):
        grid = ActionGrid((2,))
        samples = random_samples(rng, grid, 3)
        samples[k] = CalibrationSample(LogitField(grid, [0.0, big]), 1)
        path = tmp_path / "d.uacl"
        path.write_bytes(b"earlier contents")
        before = threading.enumerate()
        with pytest.raises(ValidationError, match=rf"record {k}: .*finite"):
            write_dataset(path, samples)
        assert threading.enumerate() == before  # the hash worker was joined
        assert slow_digest == [2]
        assert path.read_bytes() == b"earlier contents"

    @pytest.mark.parametrize("source", ["f32 read_dataset", "f64 make_calibration_set"])
    def test_batch_writes_the_bytes_of_its_samples(self, tmp_path, source):
        grid = ActionGrid((3, 4))
        batch = make_calibration_set(40, 2.0, grid, seed=5, task_id=7)
        if source.startswith("f32"):
            batch = read_dataset(written(grid, list(batch), tmp_path))
        assert batch.logits.dtype == (np.float32 if source.startswith("f32") else np.float64)
        from_batch, from_list = tmp_path / "batch.uacl", tmp_path / "list.uacl"
        checksum = write_dataset(from_batch, batch)
        assert checksum == write_dataset(from_list, list(batch))
        assert from_batch.read_bytes() == from_list.read_bytes()
        assert checksum == dataset_checksum(from_batch)

    @pytest.mark.parametrize("k, big", [(0, 1e39), (2, -1e39)])
    def test_float32_overflow_in_a_batch_rejected_before_writing(self, tmp_path, slow_digest,
                                                                 k, big):
        grid = ActionGrid((2,))
        logits = np.zeros((3, 2))
        logits[k, 1] = big
        batch = LogitBatch(grid, logits, [1, 0, 1], [0, 0, 0])
        path = tmp_path / "d.uacl"
        path.write_bytes(b"earlier contents")
        before = threading.enumerate()
        with pytest.raises(ValidationError, match=rf"record {k}: .*finite"):
            write_dataset(path, batch)
        assert threading.enumerate() == before
        assert slow_digest == [2]
        assert path.read_bytes() == b"earlier contents"

    @pytest.mark.parametrize("task_id", [-1, 2**32])
    def test_batch_task_id_outside_u32_rejected(self, tmp_path, task_id):
        batch = LogitBatch(ActionGrid((2,)), np.zeros((2, 2)), [0, 1], [0, task_id])
        with pytest.raises(ValidationError, match=rf"task id {task_id}\b"):
            write_dataset(tmp_path / "d.uacl", batch)

    def test_batch_on_another_grid_rejected(self, tmp_path):
        batch = LogitBatch(ActionGrid((2, 3)), np.zeros((1, 6)), [0], [0])
        with pytest.raises(ValidationError, match="all samples must share a single grid"):
            write_dataset(tmp_path / "d.uacl", batch, grid=ActionGrid((3, 2)))

    def test_batch_grid_needs_no_record_view(self, tmp_path, monkeypatch):
        # without ``grid``, the grid is the batch's own, not that of a record 0
        batch = make_calibration_set(5, 2.0, ActionGrid((3, 4)), seed=1)
        def refuse(*args):
            raise AssertionError("write_dataset made a per-record view")
        monkeypatch.setattr(calibration, "CalibrationSample", refuse)
        path = tmp_path / "d.uacl"
        assert write_dataset(path, batch) == dataset_checksum(path)
        assert read_dataset(path).grid == batch.grid


class TestCorruption:
    def _write(self, tmp_path, rng, n=3):
        grid = ActionGrid((2, 2))
        path = tmp_path / "d.uacl"
        write_dataset(path, random_samples(rng, grid, n))
        return path

    def test_bad_magic(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        data = bytearray(path.read_bytes())
        data[0:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_dataset(path)

    def test_bad_version(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            read_dataset(path)

    def test_truncated_mid_record(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="length"):
            read_dataset(path)

    def test_out_of_range_expert_names_record(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        data = bytearray(path.read_bytes())
        # record 1 header starts after 25 header bytes + one 28-byte record
        off = 25 + 28 + 4
        data[off:off + 8] = struct.pack("<Q", 4)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="record 1: .*out of range"):
            read_dataset(path)

    def test_non_finite_logit_names_record(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        data = bytearray(path.read_bytes())
        off = 25 + 2 * 28 + 12  # record 2 logits
        data[off:off + 4] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="record 2: .*finite"):
            read_dataset(path)

    @pytest.mark.parametrize("k", [0, 2, 3, 7, 10])
    @pytest.mark.parametrize("bad", ["expert", "logit"])
    def test_corrupt_record_names_its_ordinal(self, tmp_path, rng, k, bad):
        grid = ActionGrid((2, 3))
        path = tmp_path / "d.uacl"
        write_dataset(path, random_samples(rng, grid, 11))
        raw = bytearray(path.read_bytes())
        start = expected_length(grid, k)
        if bad == "expert":
            raw[start + 4:start + 12] = struct.pack("<Q", grid.size)
        else:
            raw[start + 12 + 8:start + 16 + 8] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"^record {k}:"):
            read_dataset(path)

    @pytest.mark.parametrize("cut", [1, 5, 13, 40])
    def test_truncation_inside_a_later_record_rejected(self, tmp_path, rng, cut):
        grid = ActionGrid((5,))
        path = tmp_path / "d.uacl"
        write_dataset(path, random_samples(rng, grid, 9))
        # cut bytes into record 7
        path.write_bytes(path.read_bytes()[:expected_length(grid, 7) + cut])
        with pytest.raises(FormatError):
            read_dataset(path)


# a record of 2**31 + 8 bytes, past numpy's int32 item size, and one of ~40 GB
OVERSIZED_DIMS = [(233, 1103, 2089), (100000, 100000)]


def header_only(path, dims, n):
    path.write_bytes(b"UACL" + struct.pack(f"<IB{len(dims)}IQ", 1, len(dims), *dims, n))
    return path


class TestOversizedRecords:
    """A grid whose record numpy cannot describe is refused by name, before
    anything the size of a record is allocated."""

    def test_expected_length_is_exact(self):
        grid = ActionGrid(OVERSIZED_DIMS[0])
        assert grid.size == 2**29 - 1
        assert expected_length(grid, 0) == 9 + 4 * 3 + 8
        assert expected_length(grid, 1) == 29 + 12 + 4 * (2**29 - 1)

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS)
    @pytest.mark.parametrize("n", [0, 1])
    def test_reader_raises_format_error(self, tmp_path, dims, n):
        path = header_only(tmp_path / "d.uacl", dims, n)
        assert count_samples(path) == n  # the header itself is well formed
        with pytest.raises(FormatError, match=re.escape(f"dims {dims}")):
            read_dataset(path)

    @pytest.mark.parametrize("dims", OVERSIZED_DIMS)
    def test_writer_raises_validation_error(self, tmp_path, dims):
        path = tmp_path / "d.uacl"
        with pytest.raises(ValidationError, match=re.escape(f"dims {dims}")):
            write_dataset(path, [], grid=ActionGrid(dims))
        assert not path.exists()

    def test_largest_record_numpy_describes_is_accepted(self, tmp_path):
        dims = (2**29 - 4,)  # a record of 2**31 - 4 bytes
        path = header_only(tmp_path / "d.uacl", dims, 0)
        assert len(read_dataset(path)) == 0
        write_dataset(path, [], grid=ActionGrid(dims))
        assert path.stat().st_size == expected_length(ActionGrid(dims), 0)


class TestFormatProperties:
    @given(f32_datasets())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_byte_identical(self, dataset):
        grid, samples = dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = written(grid, samples, tmp)
            raw = path.read_bytes()
            back = read_dataset(path)
            write_dataset(path, back, grid=grid)
            assert path.read_bytes() == raw
        assert [(b.expert, b.task_id) for b in back] == \
            [(s.expert, s.task_id) for s in samples]
        for b, s in zip(back, samples):
            assert np.array_equal(b.logits.values, s.logits.values)

    @given(f32_datasets(elements=F64_LOGITS))
    @example((ActionGrid((3,)), [CalibrationSample(LogitField(ActionGrid((3,)),
                                                              [0.1, -1 / 3, 3e38]), 2, 2**32 - 1)]))
    @settings(max_examples=60, deadline=None)
    def test_write_matches_struct_packing(self, dataset):
        grid, samples = dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.uacl"
            checksum = write_dataset(path, samples, grid=grid)
            assert path.read_bytes() == struct_file(grid, samples)
            assert checksum == dataset_checksum(path)

    @given(f32_datasets())
    @settings(max_examples=60, deadline=None)
    def test_batch_read_checksum_matches_whole_file_checksum(self, dataset):
        grid, samples = dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = written(grid, samples, tmp)
            batch, data = dataset_io._read_batch(path)
            assert data == path.read_bytes()
            assert dataset_io._digest(data) == dataset_checksum(path) == \
                hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
            plain = read_dataset(path)
        assert np.array_equal(batch.logits, plain.logits)
        assert np.array_equal(batch.experts, plain.experts)
        assert np.array_equal(batch.task_ids, plain.task_ids)

    @given(f32_datasets(min_samples=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_corrupt_record_names_its_ordinal(self, dataset, data):
        grid, samples = dataset
        k = data.draw(st.integers(0, len(samples) - 1))
        start = expected_length(grid, k)  # record k starts where k records end
        with tempfile.TemporaryDirectory() as tmp:
            path = written(grid, samples, tmp)
            raw = bytearray(path.read_bytes())
            if data.draw(st.booleans()):
                expert = data.draw(st.integers(grid.size, 2**64 - 1))
                raw[start + 4:start + 12] = struct.pack("<Q", expert)
            else:
                at = start + 12 + 4 * data.draw(st.integers(0, grid.size - 1))
                bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
                raw[at:at + 4] = struct.pack("<f", bad)
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match=rf"record {k}:"):
                read_dataset(path)

    @given(f32_datasets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_proper_truncation_rejected(self, dataset, data):
        grid, samples = dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = written(grid, samples, tmp)
            raw = path.read_bytes()
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
            with pytest.raises(FormatError):
                read_dataset(path)


class TestReadBatch:
    def test_float32_read_only_view(self, tmp_path, rng):
        grid = ActionGrid((2, 3))
        samples = random_samples(rng, grid, 5, tasks=3)
        path = tmp_path / "d.uacl"
        write_dataset(path, samples)
        batch = read_dataset(path)
        assert batch.grid == grid and len(batch) == 5
        assert batch.logits.dtype == np.float32 and batch.logits.shape == (5, 6)
        assert not batch.logits.flags.writeable
        assert batch.experts.tolist() == [s.expert for s in samples]
        assert batch.task_ids.tolist() == [s.task_id for s in samples]
        want = np.stack([s.logits.values for s in samples]).astype(np.float32)
        assert np.array_equal(batch.logits, want)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "d.uacl"
        write_dataset(path, [], grid=ActionGrid((3, 4)))
        batch = read_dataset(path)
        assert len(batch) == 0 and batch.logits.shape == (0, 12)

    @given(f32_datasets(min_samples=1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_records_match_the_file_and_give_the_batch_results(self, dataset, rows_per_block):
        # calibration blocks of rows_per_block rows, so up to six records span several
        grid, samples = dataset
        with tempfile.TemporaryDirectory() as tmp:
            path = written(grid, samples, tmp)
            batch, want = read_dataset(path), reference_records(path)
        listed = list(batch)
        restacked = batch_of(listed)  # float64 rows of the float32 file
        assert len(listed) == len(want) == len(samples)
        assert [(s.task_id, s.expert, tuple(s.logits.values)) for s in listed] == want
        assert all(not s.logits.values.flags.writeable for s in listed)
        with mock.patch.object(calibration, "_BLOCK_BYTES", 8 * grid.size * rows_per_block):
            for T in (1.5, 40.0):
                assert calibration.nll(batch, T) == calibration.nll(restacked, T)
                a = calibration.reliability_bins(batch, T)
                b = calibration.reliability_bins(restacked, T)
                for name in ("counts", "mean_confidence", "accuracy"):
                    assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
                assert calibration.max_entropy_by_task(batch, T) == \
                    calibration.max_entropy_by_task(restacked, T)

    def test_peak_memory_is_below_the_float64_logits(self, tmp_path, rng):
        grid = ActionGrid((8, 8))
        path = tmp_path / "d.uacl"
        write_dataset(path, random_samples(rng, grid, 400))
        tracemalloc.start()
        try:
            batch = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == 400
        assert peak < 400 * grid.size * 8  # what float64 copies of the logits alone take


class TestTemperatureFile:
    def test_round_trip(self, tmp_path):
        model = TemperatureModel(2.125, 0.4375, 31)
        path = tmp_path / "temp.txt"
        write_temperature_file(path, model, "00ff00ff00ff00ff")
        got, checksum = read_temperature_file(path)
        assert got == model
        assert checksum == "00ff00ff00ff00ff"

    def test_degenerate_flag_round_trip(self, tmp_path):
        model = TemperatureModel(1.0, 1.386, 0, degenerate=True)
        path = tmp_path / "temp.txt"
        write_temperature_file(path, model, "0" * 16)
        got, _ = read_temperature_file(path)
        assert got.degenerate

    def test_at_bound_round_trip(self, tmp_path):
        model = TemperatureModel(0.01, 0.0184, 3, at_bound=True)
        path = tmp_path / "temp.txt"
        write_temperature_file(path, model, "0" * 16)
        assert "at_bound = true\n" in path.read_text()
        got, _ = read_temperature_file(path)
        assert got == model and got.at_bound

    def test_file_without_at_bound_line_loads(self, tmp_path):
        # the layout written before the at_bound flag existed
        path = tmp_path / "temp.txt"
        path.write_text("temperature = 2.5\nfinal_nll = 1.25\niterations = 29\n"
                        "degenerate = false\ndataset_checksum = 79c74e10a4ccb79e\n")
        model, checksum = read_temperature_file(path)
        assert model == TemperatureModel(2.5, 1.25, 29)
        assert not model.at_bound and checksum == "79c74e10a4ccb79e"

    def test_missing_field(self, tmp_path):
        path = tmp_path / "temp.txt"
        path.write_text("temperature = 2.0\n")
        with pytest.raises(FormatError):
            read_temperature_file(path)

    @pytest.mark.parametrize("key,value", [
        ("temperature", "abc"), ("final_nll", "1.0.0"), ("iterations", "x"),
        ("iterations", "3.5"), ("degenerate", "True"), ("at_bound", "yes"),
    ])
    def test_malformed_value_names_its_field(self, tmp_path, key, value):
        fields = {"temperature": "2.5", "final_nll": "1.25", "iterations": "4",
                  "dataset_checksum": "79c74e10a4ccb79e", key: value}
        path = tmp_path / "temp.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        with pytest.raises(FormatError, match=rf"field {key} = '{value}'"):
            read_temperature_file(path)

    def test_checksum_matches_source_dataset(self, tmp_path, rng):
        grid = ActionGrid((4,))
        data_path = tmp_path / "d.uacl"
        checksum = write_dataset(data_path, random_samples(rng, grid, 5))
        model = TemperatureModel(1.5, 0.9, 20)
        temp_path = tmp_path / "t.txt"
        write_temperature_file(temp_path, model, checksum)
        _, stored = read_temperature_file(temp_path)
        assert stored == dataset_checksum(data_path)
        assert stored == hashlib.blake2b(data_path.read_bytes(),
                                         digest_size=8).hexdigest()
