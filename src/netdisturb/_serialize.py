"""Shared CSV/JSON reading and writing helpers.

Floats are written with 17 significant digits in CSV artifacts, which is
enough to round-trip any IEEE double exactly.  JSON artifacts go through
:func:`json_ready` so numpy scalars/arrays become plain Python values and
NaN becomes ``null`` (strict JSON has no NaN literal).
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def fmt(value) -> str:
    """Render one CSV cell; floats get 17 significant digits."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@contextmanager
def open_text(path):
    """A new UTF-8 text file at `path` (parents created), newlines untranslated."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        yield fh


@contextmanager
def csv_writer(path, header):
    """A csv.writer on a new file at `path` (parents created), header written."""
    with open_text(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield writer


def write_csv(path, header, rows) -> None:
    with csv_writer(path, header) as writer:
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def read_csv(path, expected_header, error):
    """Read a CSV with a fixed header into ``(path, linenos, columns)``.

    ``columns`` holds one list of cells per header field and ``linenos``
    the file line of each row.  Blank lines are skipped and cells stripped.
    ``error`` is the exception class raised for an unreadable or empty
    file, a wrong header or a row with the wrong number of fields.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot open {path}: {exc}") from None
    width = len(expected_header)
    columns = tuple([] for _ in expected_header)
    linenos = array("q")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise error(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != expected_header:
            raise error(
                f"{path}: expected header {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != width:
                raise error(f"{path}:{lineno}: expected {width} fields, got {len(cells)}")
            for column, cell in zip(columns, cells):
                column.append(cell)
            linenos.append(lineno)
    return path, linenos, columns


def parse_column(cells, parse, dtype) -> tuple[np.ndarray, int]:
    """``cells`` parsed into an array, and the position of the first bad cell.

    That position is ``len(cells)`` when every cell parses; otherwise the
    array holds the cells before it.
    """
    try:
        return np.fromiter(map(parse, cells), dtype, len(cells)), len(cells)
    except (ValueError, OverflowError):
        parsed = []
        for cell in cells:
            try:
                parsed.append(np.array(parse(cell), dtype))
            except (ValueError, OverflowError):
                break
        return np.array(parsed, dtype), len(parsed)


def json_ready(obj):
    """Recursively convert numpy containers/scalars for json.dump."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_ready(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")
