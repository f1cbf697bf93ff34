"""The one text writer: deterministic CSV rows and JSON files.

Floats are printed with 17 significant digits (``FLOAT_FORMAT``) so equal
values produce equal bytes and round-trip exactly through text. CSV rows are
written to the open file as they are formatted, so no copy of the whole file's
text is held. A 2-D float array is written one row at a time through a
single row format, one ``FLOAT_FORMAT`` field per column, with the bytes the
per-value path writes for the same floats.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["FLOAT_FORMAT", "format_value", "write_csv", "write_json", "read_json"]

FLOAT_FORMAT = "%.17g"


def format_value(value) -> str:
    """A float (numpy's float64 included) as ``FLOAT_FORMAT``, anything else ``str()``."""
    return FLOAT_FORMAT % value if isinstance(value, float) else str(value)


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write a header line and one line per row; ``rows`` is an iterable of
    rows formatted value by value, or a 2-D float array."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
            lines = (line % tuple(row.tolist()) for row in rows)
        else:
            lines = (",".join(map(format_value, row)) + "\n" for row in rows)
        fh.writelines(lines)


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
