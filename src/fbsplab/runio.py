"""The one text writer: deterministic CSV rows and JSON files.

Floats are printed with 17 significant digits (``FLOAT_FORMAT``) so equal
values produce equal bytes and round-trip exactly through text. CSV rows are
written to the open file as they are formatted, so no copy of the whole file's
text is held. A 2-D float array is written one row at a time through a
single row format, one ``FLOAT_FORMAT`` field per column, with the bytes the
per-value path writes for the same floats.

A float array of at least ``SPLIT_MIN_VALUES`` values (2**17, about 0.1 s of
serial formatting) is formatted by two processes: a helper forked with
``os.fork`` writes the lower half of the rows to a temporary file beside the
output while this process writes the header and the upper half, then appends
the helper's file. Both halves go through the same row format, so the bytes
equal the serial path's. The serial path runs below the threshold, on one
CPU, and where ``os.fork`` does not exist.
"""

from __future__ import annotations

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
# processes. The row format writes 1.2-2.0 million values a second on a
# 2-core x86-64 VM (513 x 1872 log-powers in 0.49-0.70 s), so 2**17 values
# take about 0.1 s serially against 2-4 ms for the fork of a 150 MB process.
# A 1 s, 16 kHz clip's spectrogram (129 x 124 = 16k values) stays serial; a
# 30 s clip's (257 x 1873 = 481k values and up) splits.
SPLIT_MIN_VALUES = 2 ** 17


def format_value(value) -> str:
    """A float (numpy's float64 included) as ``FLOAT_FORMAT``, anything else ``str()``."""
    return FLOAT_FORMAT % value if isinstance(value, float) else str(value)


def _row_lines(rows: np.ndarray) -> Iterable[str]:
    """The CSV lines of a 2-D float array, one ``FLOAT_FORMAT`` field per column."""
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    return (line % tuple(row.tolist()) for row in rows)


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
        with open(part, "w", encoding="utf-8") as fh:
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
        fh.flush()
        with open(part, "rb") as lower:
            shutil.copyfileobj(lower, fh.buffer)
    finally:
        os.remove(part)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write a header line and one line per row; ``rows`` is an iterable of
    rows formatted value by value, or a 2-D float array."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if not isinstance(rows, np.ndarray):
            fh.writelines(",".join(map(format_value, row)) + "\n" for row in rows)
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
