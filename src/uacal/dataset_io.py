"""Binary dataset container (UACL) and the fitted-temperature text file.

UACL layout, all little-endian:

    magic   4 bytes  "UACL"
    version u32      1
    ndims   u8       1-4
    dims    ndims x u32
    n       u64      sample count
    then n records of { task_id: u32, expert_flat: u64, logits: |A| x f32 }

File length is exactly 9 + 4*ndims + 8 + n*(12 + 4*|A|) bytes. Logits are
stored f32 and computed on as f64 downstream. ``read_dataset`` returns one
``LogitBatch`` over the bytes it read, with no per-record work in Python.

The provenance checksum is the 16-hex-digit BLAKE2b-64 of the whole file.
``write_dataset`` hashes its buffers on a ``calibration._beside`` worker
while it checks and writes them, and ``uacal calibrate`` hashes the bytes it
read while it fits; hashlib releases the GIL on large buffers. The digest
is the same as a plain read of the file gives.
"""

from __future__ import annotations

import hashlib
import os
import struct

import numpy as np

from .action_space import ActionGrid
from .calibration import LogitBatch, TemperatureModel, _beside, _records
from .errors import FormatError, RecordError, ValidationError

MAGIC = b"UACL"
VERSION = 1
_BLOCK_BYTES = 1 << 20  # bytes per block that dataset_checksum reads


def _digest(*buffers) -> str:
    """16-hex-digit BLAKE2b-64 of a whole UACL file, given as its buffers in order."""
    h = hashlib.blake2b(digest_size=8)
    for b in buffers:
        h.update(b)
    return h.hexdigest()


def _record_bytes(grid: ActionGrid) -> int:
    return 12 + 4 * grid.size


def _record_dtype(grid: ActionGrid, error) -> np.dtype:
    """The one packed UACL record layout, shared by the writer and the reader;
    a grid whose record numpy cannot describe raises ``error``."""
    if (size := _record_bytes(grid)) >= 2**31:  # numpy item sizes are C ints
        raise error(f"a record on dims {grid.dims} takes {size} bytes; "
                    f"the limit is 2**31 - 1")
    return np.dtype([("task", "<u4"), ("expert", "<u8"), ("logits", "<f4", (grid.size,))])


def write_dataset(path, samples, grid: ActionGrid | None = None) -> str:
    """Serialize samples (a LogitBatch, or samples all on one grid) to UACL;
    returns ``dataset_checksum``.

    Records pass ``read_dataset``'s checks before the file is opened, so a logit
    that overflows float32 is rejected, not written. The checksum is hashed
    from the in-memory buffers on a worker thread while they are checked and
    written, and joined before the call returns or raises. It is provenance
    only and is never verified: a temperature is normally applied to a held-out
    dataset, not the one it was fitted on. ``grid`` is required only for an
    empty sample list; when given, every sample must be on it.
    """
    if not isinstance(samples, LogitBatch):
        samples = list(samples)
    if grid is None:
        if not len(samples):
            raise ValidationError("an empty dataset needs an explicit grid")
        grid = samples[0].logits.grid
    tasks = np.asarray(samples.task_ids if isinstance(samples, LogitBatch)
                       else [s.task_id for s in samples])
    if (bad := (tasks < 0) | (tasks >= 2**32)).any():
        raise ValidationError(f"task id {tasks[bad.argmax()]} out of range [0, 2**32)")
    rec = np.empty(len(samples), _record_dtype(grid, ValidationError))
    with np.errstate(over="ignore"):  # an overflow to inf fails the finiteness check
        fields = _records(samples, grid, rec)
    header = MAGIC + struct.pack(f"<IB{grid.ndim}IQ", VERSION, grid.ndim, *grid.dims,
                                 len(samples))
    with _beside(_digest, header, rec) as checksum:
        LogitBatch(*fields)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(rec)
        return checksum()


def dataset_checksum(path) -> str:
    """``_digest`` of the file at ``path``, read _BLOCK_BYTES at a time."""
    h = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_BYTES):
            h.update(block)
    return h.hexdigest()


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
    return 9 + 4 * grid.ndim + 8 + n_samples * _record_bytes(grid)


def _read_batch(path) -> tuple[LogitBatch, bytearray]:
    """read_dataset, plus the file's bytes that the batch views, from which
    ``_digest`` gives the file's ``dataset_checksum`` without a second read."""
    with open(path, "rb") as fh:
        grid, n_samples = read_header(fh)
        dtype = _record_dtype(grid, FormatError)
        head, size = fh.tell(), expected_length(grid, n_samples)
        if (have := os.fstat(fh.fileno()).st_size) != size:
            raise FormatError(f"file length {have} does not match expected {size} "
                              f"for {n_samples} samples on dims {grid.dims}")
        data = bytearray(size)
        fh.seek(0)
        if fh.readinto(data) != size:
            raise FormatError(f"file shrank below {size} bytes while being read")
    rec = np.frombuffer(data, offset=head, count=n_samples, dtype=dtype)
    try:
        return LogitBatch(grid, rec["logits"], rec["expert"], rec["task"]), data
    except RecordError as exc:  # named by its ordinal in the file
        raise FormatError(str(exc)) from exc


def read_dataset(path) -> LogitBatch:
    """Parse and validate a UACL file into one LogitBatch whose logits are a
    read-only float32 view of the record bytes; a bad record raises
    FormatError naming its ordinal."""
    return _read_batch(path)[0]


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
    """Returns (TemperatureModel, checksum); a missing flag line reads as false.
    A missing field or a value that does not parse (a flag is true or false)
    raises FormatError naming the field."""
    fields = {"degenerate": "false", "at_bound": "false"}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"bad temperature-file line: {line!r}")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()

    def field(key, parse=str):
        try:
            return parse(fields[key])
        except KeyError:
            raise FormatError(f"temperature file missing field {key!r}") from None
        except ValueError as exc:
            raise FormatError(f"temperature file field {key} = {fields[key]!r} "
                              f"is not a valid {parse.__name__}") from exc

    def flag(value: str) -> bool:
        if value not in ("true", "false"):
            raise ValueError(value)
        return value == "true"

    model = TemperatureModel(
        temperature=field("temperature", float),
        final_nll=field("final_nll", float),
        iterations=field("iterations", int),
        degenerate=field("degenerate", flag),
        at_bound=field("at_bound", flag),
    )
    return model, field("dataset_checksum")


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
