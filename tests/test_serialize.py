"""`write_csv` and `write_blocks` write the bytes of the per-row csv.writer they replaced,
and `read_csv` reads what its per-row loop read."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdisturb import _serialize
from netdisturb._serialize import CHUNK, Coded, fmt, read_csv, write_blocks, write_csv


def row_writer(path, header, rows):
    """The per-row writer `write_csv` replaced: csv.writer, `fmt` on every cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def decoded(column):
    """A column's cells, a Coded column's labels gathered by code."""
    if isinstance(column, Coded):
        return [column.labels[code] for code in column.codes.tolist()]
    return column


def assert_same_bytes(tmp_path, header, columns):
    write_csv(tmp_path / "columns.csv", header, columns)
    row_writer(tmp_path / "rows.csv", header, zip(*map(decoded, columns)))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


TEXT = st.one_of(
    st.sampled_from(["", " ", "a,b", 'say "x"', "100%", "%s", "%%d", "two\nlines", "cr\rlf", " pad ", "N->M"]),
    st.text(alphabet=st.sampled_from('ab ,"%\n\r-é'), max_size=6),
)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]),
)
MIXED = st.one_of(st.integers(-(2**70), 2**70), st.booleans(), FLOATS, TEXT)


def column(kind, size):
    if kind == "text":
        return st.lists(TEXT, min_size=size, max_size=size)
    if kind == "int":
        return st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size).map(
            lambda v: np.array(v, np.int64))
    if kind == "float array":
        return st.lists(FLOATS, min_size=size, max_size=size).map(lambda v: np.array(v, float))
    if kind == "float list":
        return st.lists(FLOATS, min_size=size, max_size=size)
    if kind == "bool array":
        return st.lists(st.booleans(), min_size=size, max_size=size).map(lambda v: np.array(v, bool))
    if kind == "str array":
        return st.lists(TEXT, min_size=size, max_size=size).map(lambda v: np.array(v, str))
    if kind == "coded":
        return st.lists(TEXT, min_size=1, max_size=5).flatmap(lambda labels: st.lists(
            st.integers(0, len(labels) - 1), min_size=size, max_size=size,
        ).map(lambda codes: Coded(labels, np.array(codes, np.intp))))
    return st.lists(MIXED, min_size=size, max_size=size)


KINDS = ["text", "int", "float array", "float list", "bool array", "str array", "coded", "mixed"]


@st.composite
def tables(draw):
    size = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    header = tuple(draw(TEXT) for _ in kinds)
    return header, tuple(draw(column(kind, size)) for kind in kinds)


@settings(max_examples=300, deadline=None)
@given(tables())
def test_matches_the_row_writer(tmp_path_factory, table):
    assert_same_bytes(tmp_path_factory.mktemp("csv"), *table)


def test_equal_cells_that_render_differently(tmp_path):
    # True == 1 and -0.0 == 0: a cache keyed on the cell would mix them up.
    left = [1, 1.0, True, 0, -0.0, 0.0, np.float64(-0.0), np.int64(1), np.bool_(True)]
    right = [-0.0, 0, 0.0, True, 1.0, 1, "1", "True", np.float32(0.1)]
    assert_same_bytes(tmp_path, ("left", "right"), (left, right))
    assert (tmp_path / "columns.csv").read_text().splitlines()[1:4] == ["1,-0", "1,0", "True,0"]


def test_a_lone_empty_cell_is_quoted(tmp_path):
    assert_same_bytes(tmp_path, ("only",), (["", "a", ""],))
    assert (tmp_path / "columns.csv").read_text() == 'only\n""\na\n""\n'


def test_columns_longer_than_a_chunk(tmp_path):
    # Three float arrays of different values across chunk boundaries: each
    # must read its own column, not the last one.
    n = 2 * CHUNK + 3
    rng = np.random.default_rng(0)
    floats = (rng.normal(size=n), np.arange(n, dtype=float), rng.normal(size=n) * 1e300)
    names = [f"n{k % 7}" for k in range(n)]
    header = ("a", "b", "c", "name", "k")
    assert_same_bytes(tmp_path, header, (*floats, names, np.arange(n)))
    write_csv(tmp_path / "lazy.csv", header, (*floats, iter(names), np.arange(n)))
    assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


NAMES = ["a,b", 'say "x"', "100%", "%s", " pad ", "", "two words", "N00"]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_coded_names_over_more_than_a_chunk(tmp_path, width):
    # Names that need quoting, and the empty one, which a one-cell row quotes alone.
    n = CHUNK + 5
    codes = np.arange(n, dtype=np.int32) % len(NAMES)
    columns = (Coded(NAMES, codes), Coded(tuple(NAMES), codes[::-1].copy()), np.arange(n))
    assert_same_bytes(tmp_path, ("sender", "receiver", "k")[:width], columns[:width])
    if width == 1:
        assert '\n""\n' in (tmp_path / "columns.csv").read_text()


def test_float_arrays_use_the_digits_of_fmt():
    for value in (math.pi, -0.0, math.nan, -math.inf, 5e-324, 1e308, 0.1 + 0.2):
        assert "%.17g" % value == fmt(value) == fmt(np.float64(value))


@pytest.mark.parametrize("columns", [(), ([], []), (np.empty(0), iter(()))])
def test_no_rows(tmp_path, columns):
    header = tuple("ab"[: len(columns)])
    assert_same_bytes(tmp_path, header, columns)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4), st.data())
def test_blocks_are_the_rows_of_each_block_in_turn(tmp_path_factory, sizes, data):
    kinds = data.draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    blocks = [tuple(data.draw(column(kind, size)) for kind in kinds) for size in sizes]
    tmp_path = tmp_path_factory.mktemp("blocks")
    header = tuple(kinds)
    write_blocks(tmp_path / "blocks.csv", header, iter(blocks))
    rows = (row for columns in blocks for row in zip(*map(decoded, columns)))
    row_writer(tmp_path / "rows.csv", header, rows)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_blocks_are_made_one_at_a_time(tmp_path):
    made = []

    def cells(k):
        assert len(made) == k + 1  # the next block is not made before this one is written
        yield k

    def blocks():
        for k in range(3):
            made.append(k)
            yield (cells(k),)

    write_blocks(tmp_path / "lazy.csv", ("k",), blocks())
    assert (tmp_path / "lazy.csv").read_text() == "k\n0\n1\n2\n"


def read_csv_row_loop(path, expected_header, error):
    """The body rows as `read_csv` read them in one loop over rows, or the error text."""
    linenos, columns = [], tuple([] for _ in expected_header)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(expected_header):
                return f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(cells)}"
            for column, cell in zip(columns, cells):
                column.append(cell)
            linenos.append(lineno)
    return linenos, columns


def read_csv_outcome(path, header):
    try:
        _, linenos, columns = read_csv(path, header, ValueError)
    except ValueError as exc:
        return str(exc)
    return linenos.tolist(), columns


CELL = st.sampled_from(["", " ", "a", " b ", "1", "x,y", '"q"'])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(CELL, max_size=4), max_size=14),
    chunk=st.integers(1, 5),
)
def test_chunked_read_matches_the_row_loop(tmp_path_factory, rows, chunk):
    # Small chunks put blank rows, short rows and long rows at every
    # position of a chunk and across chunk boundaries.
    header = ("a", "b", "c")
    path = tmp_path_factory.mktemp("read") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_serialize, "CHUNK", chunk)
        assert read_csv_outcome(path, header) == read_csv_row_loop(path, header, ValueError)


@pytest.mark.parametrize("bad_line", [None, 5000, CHUNK + 1, 3 * CHUNK])
def test_read_across_full_chunks(tmp_path, bad_line):
    # Blank lines in the first and third chunks; a short row at bad_line.
    n = 3 * CHUNK + 5
    lines = [f" n{k % 7} ,{k}, {k / 3!r}" for k in range(n)]
    lines[10] = lines[2 * CHUNK + 9] = ", ,"
    if bad_line is not None:
        lines[bad_line - 2] = "x,1"
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n" + "\n".join(lines) + "\n", encoding="utf-8")
    header = ("a", "b", "c")
    assert read_csv_outcome(path, header) == read_csv_row_loop(path, header, ValueError)
