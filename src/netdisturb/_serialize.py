"""Shared CSV/JSON reading and writing helpers.

Every CSV artifact is written from columns by :func:`write_csv` (or
:func:`write_blocks`, block by block), and every CSV input is read by
:func:`read_csv` into columns.  Floats are written with 17 significant
digits, which is enough to round-trip any IEEE double exactly, and every
other cell is quoted as ``csv.writer`` quotes it.  JSON artifacts go through
:func:`json_ready` so numpy scalars/arrays become plain Python values and
NaN becomes ``null`` (strict JSON has no NaN literal).
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from collections.abc import Sequence
from itertools import count, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

CHUNK = 4096  # array cells turned into Python values, or CSV rows read, at a time


def fmt(value) -> str:
    """Render one CSV cell; floats get 17 significant digits."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _chunked(values: np.ndarray):
    """The cells of `values` as Python values, converted a chunk at a time."""
    for start in range(0, values.size, CHUNK):
        yield from values[start : start + CHUNK].tolist()


class _Quoted(dict):
    """Cell text -> the cell as ``csv.writer`` writes it in a row of `width` cells.

    Each distinct text is quoted once.  ``csv.writer`` writes a row that is
    one empty cell as ``""``, so the cell of a one-cell row is quoted alone.
    """

    def __init__(self, width: int):
        self.pad = ("",) * (width > 1)

    def __missing__(self, text):
        buffer = io.StringIO()  # with the row's line terminator, which takes part in quoting
        csv.writer(buffer, lineterminator="\n").writerow((text, *self.pad))
        self[text] = cell = buffer.getvalue()[: -1 - len(self.pad)]
        return cell


class Coded(NamedTuple):
    """A text column as its ``labels`` and each row's code into them; each label is quoted once."""

    labels: Sequence
    codes: np.ndarray


def _cells(column, quoted: _Quoted):
    """A column's cells for a ``%`` row template, and the template field that takes them."""
    if isinstance(column, Coded):
        cells = [quoted[fmt(label)] for label in column.labels]
        return map(cells.__getitem__, _chunked(column.codes)), "%s"
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _chunked(column), "%.17g"
    if kind in ("i", "u"):
        return _chunked(column), "%d"
    return map(quoted.__getitem__, map(fmt, column)), "%s"


def write_csv(path, header, columns) -> None:
    """Write `header`, then one row per position of the equal-length `columns`.

    A column is any iterable, an iterator included, or a :class:`Coded`
    column.  Float and integer ndarrays, and a Coded column's codes, are
    read a chunk at a time; the numbers are written with ``%.17g`` (the
    digits of :func:`fmt`) and ``%d``.  Any other cell is rendered by
    :func:`fmt` and quoted as ``csv.writer`` quotes it.  The bytes are those
    ``csv.writer`` writes for rows of :func:`fmt` cells, but each row costs
    one ``%`` of a template instead of a pass through ``csv.writer``.
    """
    write_blocks(path, header, [columns])


def write_blocks(path, header, blocks) -> None:
    """Write `header`, then the rows of each block of columns in turn, as :func:`write_csv`.

    `blocks` may be a generator, so that only one block's columns exist at a time.
    """
    quoted = _Quoted(len(header))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in blocks:
            cells = [_cells(column, quoted) for column in columns]
            row = ",".join(field for _, field in cells) + "\n"
            fh.writelines(map(row.__mod__, zip(*(values for values, _ in cells))))


def read_csv(path, expected_header, error):
    """Read a CSV with a fixed header into ``(path, linenos, columns)``.

    ``columns`` holds one list of cells per header field and ``linenos``
    the file line of each row.  Blank lines are skipped and cells stripped.
    ``error`` is the exception class raised for an unreadable or empty
    file, a wrong header or a row with the wrong number of fields.

    Rows are read ``CHUNK`` at a time and each chunk is transposed whole,
    unless it holds a row with the wrong number of fields or a first cell
    that strips to nothing (as every blank row's does): such a chunk goes
    row by row, so that errors name the same line either way.
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
        for start in count(2, CHUNK):
            chunk = list(islice(reader, CHUNK))
            if not chunk:
                break
            if set(map(len, chunk)) == {width}:
                stripped = [list(map(str.strip, cells)) for cells in zip(*chunk)]
                if "" not in stripped[0]:
                    for column, cells in zip(columns, stripped):
                        column += cells
                    linenos.extend(range(start, start + len(chunk)))
                    continue
            for lineno, row in enumerate(chunk, start=start):
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
        fh.write(json.dumps(json_ready(obj), indent=2, allow_nan=False) + "\n")
