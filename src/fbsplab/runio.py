"""The one text writer: deterministic CSV rows and JSON files.

Floats are printed with 17 significant digits so equal values produce equal
bytes and round-trip exactly through text. CSV rows are written to the open
file as they are formatted, so no copy of the whole file's text is held.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

__all__ = ["format_value", "write_csv", "write_json", "read_json"]


def format_value(value) -> str:
    """A float (numpy's float64 included) as ``%.17g``, anything else ``str()``."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def _jsonable(obj):
    """Make an object JSON-clean; non-finite floats become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _jsonable(obj.item())
        except (AttributeError, ValueError):
            return obj
    return obj


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
