"""The one text writer: deterministic CSV rows and JSON files.

Floats are printed with 17 significant digits (``FLOAT_FORMAT``) so equal
values produce equal bytes and round-trip exactly through text. CSV rows are
written to the open file as they are formatted, so no copy of the whole file's
text is held.

A 2-D float array takes a vectorized path that writes the bytes of
``FLOAT_FORMAT % value`` for every float64, FORMAT_VALUES values at a time.
A value whose text is in fixed notation, 1e-4 <= |v| < 1e17, gets its 17
significant digits from Dekker's exact product of |v| and a power of ten,
n = round(|v| * 10**(16 - d)) with ties to even, and is laid out by a table
indexed by its exponent d, its sign and the digits left once trailing zeros
are cut. Every other value (0, -0, subnormals, exponent form, inf and nan)
goes through ``format_value``, the per-value path. On a 513 x 1873 matrix
of log-powers, where nearly every value is in fixed notation, ``write_csv``
on one CPU took 0.19-0.30 s with this path (3.2-5.0 million values a second)
against 0.43-0.80 s value by value, on a shared 2-core x86-64 VM.

A float array of at least ``SPLIT_MIN_VALUES`` values (2**17) is formatted
by two processes: a helper forked with ``os.fork`` writes the lower half of
the rows to a temporary file beside the output while this process writes the
header and the upper half, then appends the helper's file. Both halves go
through the same array path, so the bytes equal the serial path's. The
serial path runs below the threshold, on one CPU, and where ``os.fork`` does
not exist.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = ["FLOAT_FORMAT", "SPLIT_MIN_VALUES", "format_value", "write_csv", "write_json",
           "read_json"]

FLOAT_FORMAT = "%.17g"

# Values in a float array from which ``write_csv`` splits the rows between two
# processes. The array path writes about 4 million log-powers a second on a
# 2-core x86-64 VM, so 2**17 values take about 30 ms on one core; on two free
# cores each half takes about 15 ms beside the 2 ms fork of a 150 MB process.
# Where the second core is busy the split gains less, or loses: on a shared VM
# that ran two processes at 1.8 times the time of one, 2**17 values took 34 ms
# serially and 43 ms split, and 513 x 1873 values 242 and 156 ms. A 1 s, 16 kHz
# clip's spectrogram (129 x 124 = 16k values) stays serial; a 30 s clip's
# (257 x 1873 = 481k values and up) splits.
SPLIT_MIN_VALUES = 2 ** 17
FORMAT_VALUES = 2 ** 11  # values the array path lays out at a time (about 250 KiB)
_GATHER_VALUES = 2 ** 8  # values gathered at a time: 200 bytes a value of intp indices

_FIELD = 25  # bytes of a laid-out value: 24 hold any FLOAT_FORMAT text, one its separator
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's constant: splits a float64 into two 26-bit halves
_POW10 = 10.0 ** np.arange(22)  # exact: 10**k is a float64 up to k = 22
_POW10_HIGH = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LOW = _POW10 - _POW10_HIGH


def format_value(value) -> str:
    """A float (numpy's float64 included) as ``FLOAT_FORMAT``, anything else ``str()``."""
    return FLOAT_FORMAT % value if isinstance(value, float) else str(value)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The array path's tables, built on its first use and shared read-only.

    A value's source is one uint32 word in each row of a (6, FORMAT_VALUES)
    array: its 16 digits after the first as four 4-digit groups, then its
    first digit and ``-.0``, then its separator and NULs. Returns the ASCII
    words of the 4-digit groups; the digits a value shows, trailing zeros cut,
    when group j (row j) holds its last nonzero digit; one layout per
    (d + 4, negative, digits shown), the source byte of each field byte,
    NUL-padded; and the source offset of each of _GATHER_VALUES values."""
    groups = np.arange(10_000, dtype=np.int32)
    ascii_groups = np.empty((10_000, 4), np.uint8)
    for j, power in enumerate((1000, 100, 10, 1)):
        ascii_groups[:, j] = groups // power % 10 + ord("0")
    trailing = sum((groups % 10 ** k == 0).view(np.uint8) for k in (1, 2, 3))
    shown = np.where(groups > 0, np.arange(5, 18, 4, dtype=np.uint8)[:, None] - trailing, 1)

    def source(row, byte):
        return 4 * FORMAT_VALUES * row + byte

    digit = [source(4, 0)] + [source(t // 4, t % 4) for t in range(16)]
    minus, point, zero = source(4, 1), source(4, 2), source(4, 3)
    sep, nul = source(5, 0), source(5, 1)
    dtype = np.min_scalar_type(nul + 4 * _GATHER_VALUES)  # of the largest index
    layouts = np.full((21, 2, 18, _FIELD), nul, dtype)
    for d in range(-4, 17):
        for negative in (0, 1):
            for count in range(1, 18):
                if d >= 0:
                    text = digit[:d + 1] + [point] * (count > d + 1) + digit[d + 1:count]
                else:
                    text = [zero, point] + [zero] * (-d - 1) + digit[:count]
                text = [minus] * negative + text + [sep]
                layouts[d + 4, negative, count, :len(text)] = text
    offsets = np.repeat(np.arange(0, 4 * _GATHER_VALUES, 4, dtype=dtype), _FIELD)
    tables = (ascii_groups.view(np.uint32).ravel(), shown.astype(np.uint8).ravel(),
              layouts.reshape(-1, _FIELD), offsets.reshape(-1, _FIELD))
    for table in tables:
        table.flags.writeable = False
    return tables


def _times_pow10(size: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct of ``size`` and 10**k: ``scaled + error`` equals the
    product exactly, ``scaled`` the product rounded to float64."""
    scaled = _POW10.take(k)
    scaled *= size
    size_high = size * _SPLITTER
    size_high -= size_high - size
    size_low = size - size_high
    power = _POW10_HIGH.take(k)
    error = size_high * power
    np.subtract(scaled, error, out=error)
    error -= size_low * power
    np.take(_POW10_LOW, k, out=power)
    error -= size_high * power
    power *= size_low
    return scaled, np.subtract(power, error, out=error)


def _digits(values: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the 17 significant digits of each value in fixed notation to rows
    0-4 of ``source``; return each value's row of the layouts and the positions
    of the values outside fixed notation."""
    ascii_groups, shown = _tables()[:2]
    size = np.abs(values)
    fixed = (size >= 1e-4) & (size < 1e17)
    size[~fixed] = 1.0
    # 10**k scales size into [1e16, 1e17); log10 may be one off next to a power
    # of ten (and rounds up to 17 just below 1e17), so the exact product decides
    k = 16 - np.floor(np.log10(size)).astype(np.intp)
    np.maximum(k, 0, out=k)
    scaled, error = _times_pow10(size, k)
    low = (scaled < 1e16) | ((scaled == 1e16) & (error < 0))
    high = (scaled > 1e17) | ((scaled == 1e17) & (error >= 0))
    if low.any() or high.any():
        k += low
        k -= high
        scaled, error = _times_pow10(size, k)
    del size, low, high  # each temporary goes once used: the peak sizes FORMAT_VALUES
    # scaled is an even integer above 2**53, so adding the error rounded half
    # to even rounds the exact product half to even, as FLOAT_FORMAT does; the
    # largest float64 below each power of ten keeps 17 digits, so n < 10**17
    n = scaled.astype(np.int64)
    del scaled
    n += np.rint(error, out=error).astype(np.int64)
    del error
    first, rest = np.divmod(n, 10 ** 16)
    del n
    halves = np.empty((2, len(values)), np.int64)
    np.divmod(rest, 10 ** 8, out=(halves[0], halves[1]))
    del rest
    groups = np.empty((4, len(values)), np.intp)
    np.divmod(halves, 10 ** 4, out=(groups[0::2], groups[1::2]))
    del halves
    np.take(ascii_groups, groups, out=source[:4, :len(values)], mode="clip")
    source[4, :len(values)].view(np.uint8)[0::4] = first + ord("0")
    for j in range(1, 4):  # index row j of shown; a broadcast add would copy groups
        groups[j] += 10_000 * j
    layout = shown.take(groups).max(axis=0).astype(np.intp)
    del groups
    k *= -2
    k += values < 0
    k += 40  # (d + 4) * 2 + negative, with d = 16 - k
    k *= 18
    layout += k
    return layout, np.flatnonzero(~fixed)


def _fields(values: np.ndarray, seps: np.ndarray, source: np.ndarray) -> bytes:
    """The ``FLOAT_FORMAT`` texts of float64 ``values``, each followed by its
    separator byte, laid out through ``source``, a (6, FORMAT_VALUES) uint32
    array whose constant bytes are set."""
    layouts, offsets = _tables()[2:]
    layout, slow = _digits(values, source)
    source[5, :len(values)].view(np.uint8)[0::4] = seps
    out = np.empty((len(values), _FIELD), np.uint8)
    source_bytes = source.view(np.uint8).ravel()
    for at in range(0, len(values), _GATHER_VALUES):
        index = layouts.take(layout[at:at + _GATHER_VALUES], axis=0)
        index += offsets[:len(index)]
        np.take(source_bytes[4 * at:], index, out=out[at:at + _GATHER_VALUES], mode="clip")
    del layout
    if slow.size:
        texts = [format_value(value).encode() for value in values[slow].tolist()]
        fields = np.zeros((slow.size, _FIELD), np.uint8)
        fields[:, :-1] = np.array(texts, f"S{_FIELD - 1}").view(np.uint8).reshape(slow.size, -1)
        fields[np.arange(slow.size), [len(text) for text in texts]] = seps[slow]
        out[slow] = fields
    return out.tobytes().translate(None, b"\0")


def _row_lines(rows: np.ndarray) -> Iterable[bytes]:
    """The CSV lines of a 2-D float array, one ``FLOAT_FORMAT`` field per
    column, as bytes of at most FORMAT_VALUES fields: whole rows, or pieces of
    a longer row."""
    n_rows, n_cols = rows.shape
    if n_cols == 0:
        yield b"\n" * n_rows
        return
    source = np.zeros((6, FORMAT_VALUES), np.uint32)
    source[4].view(np.uint8).reshape(-1, 4)[:, 1:] = np.frombuffer(b"-.0", np.uint8)
    step = max(1, FORMAT_VALUES // n_cols)
    for start in range(0, n_rows, step):
        block = np.ravel(rows[start:start + step]).astype(np.float64, copy=False)
        seps = np.full(block.size, ord(","), np.uint8)
        seps[n_cols - 1::n_cols] = ord("\n")
        for at in range(0, block.size, FORMAT_VALUES):
            yield _fields(block[at:at + FORMAT_VALUES], seps[at:at + FORMAT_VALUES], source)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_lower_rows(part: str, rows: np.ndarray, half: int) -> None:
    """The forked helper: write the lines of ``rows[half:]`` to ``part`` and
    leave through ``os._exit``, so no finally block, atexit handler or buffered
    stream of the parent runs here. Exit status 0 means the file is complete.
    It only formats and writes text, so it needs no lock that a thread of the
    parent (a BLAS worker, say) could have held at the fork."""
    status = 1
    try:
        with open(part, "wb") as fh:
            fh.writelines(_row_lines(rows[half:]))
        status = 0
    finally:
        os._exit(status)


def _write_rows_split(fh, path: str, rows: np.ndarray) -> None:
    """Write ``rows``' lines to ``fh`` (the open ``path``), the lower half
    formatted in a forked helper at the same time as the upper half here."""
    half = len(rows) // 2
    fd, part = tempfile.mkstemp(suffix=".part", prefix=os.path.basename(path) + ".",
                                dir=os.path.dirname(os.path.abspath(path)))
    os.close(fd)
    try:
        pid = os.fork()
        if pid == 0:
            _write_lower_rows(part, rows, half)
        try:
            fh.writelines(_row_lines(rows[:half]))
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise OSError(f"could not write {path}: the helper process formatting "
                          f"its lower rows exited with status {status}")
        with open(part, "rb") as lower:
            shutil.copyfileobj(lower, fh)
    finally:
        os.remove(part)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write a header line and one line per row; ``rows`` is an iterable of
    rows formatted value by value, or a 2-D float array."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not isinstance(rows, np.ndarray):
            fh.writelines((",".join(map(format_value, row)) + "\n").encode() for row in rows)
        elif rows.size >= SPLIT_MIN_VALUES and hasattr(os, "fork") and _cpu_count() >= 2:
            _write_rows_split(fh, path, rows)
        else:
            fh.writelines(_row_lines(rows))


def _jsonable(obj):
    """Make an object JSON-clean; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
