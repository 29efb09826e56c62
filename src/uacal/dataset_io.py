"""Binary dataset container (UACL) and the fitted-temperature text file.

UACL layout, all little-endian:

    magic   4 bytes  "UACL"
    version u32      1
    ndims   u8       1-4
    dims    ndims x u32
    n       u64      sample count
    then n records of { task_id: u32, expert_flat: u64, logits: |A| x f32 }

File length is exactly 9 + 4*ndims + 8 + n*(12 + 4*|A|) bytes. Logits are
stored f32 and computed on as f64 downstream.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .action_space import ActionGrid
from .calibration import CalibrationSample, LogitBatch, LogitField, TemperatureModel
from .errors import FormatError, ValidationError

MAGIC = b"UACL"
VERSION = 1


def _digest(*buffers) -> str:
    """16-hex-digit BLAKE2b-64 of a whole UACL file, given as its buffers in order."""
    h = hashlib.blake2b(digest_size=8)
    for b in buffers:
        h.update(b)
    return h.hexdigest()


def _record_dtype(grid: ActionGrid) -> np.dtype:
    """The one packed UACL record layout, shared by the writer and the reader."""
    return np.dtype([("task", "<u4"), ("expert", "<u8"), ("logits", "<f4", (grid.size,))])


def write_dataset(path, samples, grid: ActionGrid | None = None) -> str:
    """Serialize samples (all on one grid) to UACL; returns ``dataset_checksum``.

    Records pass ``read_batch``'s checks before the file is opened, so a logit
    that overflows float32 is rejected, not written. The checksum is provenance
    only and is never verified: a temperature is normally applied to a held-out
    dataset, not the one it was fitted on. ``grid`` is required only for an
    empty sample list.
    """
    samples = list(samples)
    if samples:
        grids = {s.logits.grid for s in samples}
        if len(grids) != 1:
            raise ValidationError("all samples must share a single grid")
        grid = samples[0].logits.grid
    elif grid is None:
        raise ValidationError("an empty dataset needs an explicit grid")
    for s in samples:
        if not 0 <= s.task_id < 2**32:
            raise ValidationError(f"task id {s.task_id} out of range [0, 2**32)")
    rec = np.empty(len(samples), _record_dtype(grid))
    rec["task"] = [s.task_id for s in samples]
    rec["expert"] = [s.expert for s in samples]
    with np.errstate(over="ignore"):  # an overflow to inf fails the finiteness check
        for row, s in zip(rec["logits"], samples):
            row[:] = s.logits.values
    LogitBatch(grid, rec["logits"], rec["expert"], rec["task"])
    header = MAGIC + struct.pack(f"<IB{grid.ndim}IQ", VERSION, grid.ndim, *grid.dims,
                                 len(samples))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rec)
    return _digest(header, rec)


def dataset_checksum(path) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _read_exact(fh, n: int, what: str):
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: wanted {n} bytes for {what}, got {len(data)}",
                          offset=fh.tell() - len(data))
    return data


def read_header(fh):
    """Validate and return (grid, n_samples); leaves fh at the first record."""
    magic = _read_exact(fh, 4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    version, ndims = struct.unpack("<IB", _read_exact(fh, 5, "version/ndims"))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if not 1 <= ndims <= 4:
        raise FormatError(f"ndims must be 1-4, got {ndims}", offset=8)
    dims = struct.unpack(f"<{ndims}I", _read_exact(fh, 4 * ndims, "dims"))
    if any(d < 1 for d in dims):
        raise FormatError(f"dims must be positive, got {dims}", offset=9)
    (n_samples,) = struct.unpack("<Q", _read_exact(fh, 8, "n_samples"))
    return ActionGrid(tuple(int(d) for d in dims)), n_samples


def expected_length(grid: ActionGrid, n_samples: int) -> int:
    return 9 + 4 * grid.ndim + 8 + n_samples * _record_dtype(grid).itemsize


def _read_batch(path, checksum: bool = False) -> tuple[LogitBatch, str | None]:
    """read_batch, plus the file's ``dataset_checksum`` when asked for, taken
    from the same bytes so the file is read once."""
    with open(path, "rb") as fh:
        grid, n_samples = read_header(fh)
        head = fh.tell()
        size, want = os.fstat(fh.fileno()).st_size, expected_length(grid, n_samples)
        if size != want:
            raise FormatError(f"file length {size} does not match expected {want} "
                              f"for {n_samples} samples on dims {grid.dims}")
        data = bytearray(size)
        fh.seek(0)
        if fh.readinto(data) != size:
            raise FormatError(f"file shrank below {size} bytes while being read")
    rec = np.frombuffer(data, offset=head, count=n_samples, dtype=_record_dtype(grid))
    try:
        batch = LogitBatch(grid, rec["logits"], rec["expert"], rec["task"])
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc
    return batch, _digest(data) if checksum else None


def read_batch(path) -> LogitBatch:
    """Parse and validate a UACL file into one LogitBatch whose logits are a
    read-only float32 view of the record bytes; no per-record work in Python."""
    return _read_batch(path)[0]


def read_dataset(path) -> list[CalibrationSample]:
    """Parse and validate a UACL file into calibration samples."""
    batch = read_batch(path)
    return [CalibrationSample(LogitField(batch.grid, row), expert, task) for row, expert, task
            in zip(batch.logits, batch.experts.tolist(), batch.task_ids.tolist())]


def count_samples(path) -> int:
    """Header-only sample count; does not read record payloads."""
    with open(path, "rb") as fh:
        _, n = read_header(fh)
    return n


def write_temperature_file(path, model: TemperatureModel, checksum: str) -> None:
    lines = [
        f"temperature = {model.temperature:.17g}",
        f"final_nll = {model.final_nll:.17g}",
        f"iterations = {model.iterations}",
        f"degenerate = {'true' if model.degenerate else 'false'}",
        f"at_bound = {'true' if model.at_bound else 'false'}",
        f"dataset_checksum = {checksum}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_temperature_file(path):
    """Returns (TemperatureModel, checksum); a missing flag line reads as false."""
    fields = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"bad temperature-file line: {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    try:
        model = TemperatureModel(
            temperature=float(fields["temperature"]),
            final_nll=float(fields["final_nll"]),
            iterations=int(fields["iterations"]),
            degenerate=fields.get("degenerate", "false") == "true",
            at_bound=fields.get("at_bound", "false") == "true",
        )
        checksum = fields["dataset_checksum"]
    except KeyError as exc:
        raise FormatError(f"temperature file missing field {exc}") from exc
    return model, checksum


def write_reliability_csv(path, table) -> None:
    """CSV: bin_lo,bin_hi,count,mean_confidence,accuracy (17 sig digits); an
    empty bin leaves its mean confidence and accuracy blank."""
    def cell(x):
        return "" if np.isnan(x) else f"{x:.17g}"
    lines = ["bin_lo,bin_hi,count,mean_confidence,accuracy"]
    for lo, hi, c, conf, acc in zip(table.bin_edges[:-1], table.bin_edges[1:], table.counts,
                                    table.mean_confidence, table.accuracy):
        lines.append(f"{lo:.17g},{hi:.17g},{int(c)},{cell(conf)},{cell(acc)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
