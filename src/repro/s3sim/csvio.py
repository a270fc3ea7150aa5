"""CSV serialization for simulated S3 objects.

S3 Select operates on CSV (or Parquet) objects and *always returns CSV*
regardless of input format (paper SIX). We therefore make CSV the wire
format everywhere: objects are CSV with a header row, values are
strings, and typing happens via ``CAST`` inside S3 Select queries or via
the table schema on the compute side -- the same contract real S3 Select
has.

Objects are decoded with ``pyarrow.csv`` into a ``pyarrow.Table``,
every column typed ``string`` and no cell ever read as NULL: empty cells
are ``""``, and ``NA``/``null``/``NaN`` tokens, leading zeros and
surrounding spaces stay as written. It is the only decoder; full objects,
ranged-GET rows and the DataSource all go through it. The S3 Select
evaluator works on the Arrow table directly, and so do the index
filter's row fetch (``parse_rows``), ``core.tables`` and the
DataSource's plain GET, which type the strings by the table's DDL
(``repro.schema.typed_array``) into Arrow arrays.

Objects are encoded in one columnar pass: each column is rendered once
as an Arrow string array of cells (``render``), and ``encode`` joins
those cells into the object's bytes and the byte range of every row,
which the paper's index tables (SIV-A) store so that single rows can
later be fetched with ranged GETs. The load-time column statistics read
the same cells, never the encoded object. The bytes equal pandas'
``to_csv`` (``to_csv_bytes``), which stays as the reference.
"""
from __future__ import annotations

import csv
import io
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyarrow import csv as pacsv

from repro.s3sim.errors import MalformedCSVError

# Quoted fields may hold newlines (``to_csv_bytes`` writes them as-is).
_PARSE = pacsv.ParseOptions(newlines_in_values=True)

# How Arrow names a row of the wrong width ("Row #3: Expected 2 columns,
# got 1: ..."); it counts the header as row 1.
_WIDTH_ERROR = re.compile(r"Row #(\d+): (Expected \d+ columns, got \d+)")

# The bytes that make ``to_csv_bytes`` quote a cell: the delimiter, the
# quote and the row terminator (CPython 3.11's ``csv`` writer, which
# pandas uses; it does not quote a lone ``\r``).
_QUOTED = b',"\n'


def to_csv_bytes(df: pd.DataFrame, header: bool = True) -> bytes:
    """Serialize a frame to CSV bytes (header row included by default).

    pandas' encoder: the reference that :func:`encode` and
    :func:`csv_size` are held to.
    """
    buf = io.StringIO()
    df.to_csv(buf, index=False, header=header)
    return buf.getvalue().encode()


def render(values: pd.Series | np.ndarray) -> pa.Array:
    """A column's CSV cells as ``to_csv_bytes`` writes them, before quoting.

    ``values`` is a column of a normalized frame, or a numpy vector of
    the same dtypes. An int renders in decimal (an Arrow cast), a float
    as numpy renders it (``astype(str)``, which pandas calls), a string
    as it is, and NULL or NaN as an empty cell. Unquoted, a cell is what
    the decoder reads back, unless it holds a ``\\r`` (which pandas
    does not quote).
    """
    kind = values.dtype.kind
    if kind == "f":
        floats = np.asarray(values)
        cells = floats.astype(str)
        cells[np.isnan(floats)] = ""
        return pa.array(cells, pa.string())
    if kind in "iu":
        cells = pc.cast(pa.array(values, from_pandas=True), pa.string())
    else:
        cells = pa.array(values, pa.string(), from_pandas=True)
    return pc.fill_null(cells, "")


def _quote(cells: pa.Array) -> pa.Array:
    """Cells holding a ``_QUOTED`` byte in quotes, their quotes doubled."""
    if not _may_quote(cells):
        return cells
    quoted = pc.binary_join_element_wise(
        '"', pc.replace_substring(cells, '"', '""'), '"', ""
    )
    return pc.if_else(pc.match_substring_regex(cells, '[,"\n]'), quoted, cells)


def _lines(columns: list) -> pa.Array:
    """Each row's CSV line of rendered cells, its newline included."""
    cells = [_quote(c) for c in columns]
    if len(cells) == 1:  # a row of one empty cell is ``""``
        cells[0] = pc.if_else(pc.equal(cells[0], ""), '""', cells[0])
    # The newline joins the last cell, so the rows are built in one copy.
    cells[-1] = pc.binary_join_element_wise(cells[-1], "\n", "")
    return pc.binary_join_element_wise(*cells, ",")


def _joined(lines: pa.Array) -> tuple[memoryview, np.ndarray]:
    """A string array's values as one buffer, and where each starts (and the last ends)."""
    bounds = np.frombuffer(lines.buffers()[1], np.int32)[
        lines.offset:lines.offset + len(lines) + 1
    ]
    data = memoryview(lines.buffers()[2] or b"")[bounds[0]:bounds[-1]]
    return data, bounds.astype(np.int64) - bounds[0]


def encode(columns: dict) -> tuple[bytes, np.ndarray]:
    """``(data, bounds)``: a CSV object of rendered cells and its rows' byte ranges.

    ``columns`` maps each column name to its cells (:func:`render`);
    ``data`` is ``to_csv_bytes`` of the frame they came from, header
    first. ``bounds`` holds ``n + 1`` offsets: row ``i`` is
    ``data[bounds[i]:bounds[i + 1]]``, its newline included, which is
    the byte range an index table stores (SIV-A).
    """
    header, _ = _joined(_lines([pa.array([str(name)]) for name in columns]))
    body, bounds = _joined(_lines(list(columns.values())))
    return b"".join([header, body]), bounds + len(header)


def csv_size(columns: list, n: int) -> int:
    """``len(to_csv_bytes(frame, header=False))``, counted without rendering it.

    ``frame`` is the frame of ``n`` rows that ``columns`` become: each
    is a pyarrow or numpy vector of ``n`` cells, or a scalar that every
    row holds. A cell counts as pandas writes it: an int in decimal, a
    float as numpy renders it, a boolean as ``True``/``False``, NULL or
    NaN empty, and a string quoted (its quotes doubled) where it holds
    a comma, a quote or a newline. A row is its cells, a comma between
    each two and a newline; a row of one empty cell is ``""``.
    """
    if n == 0 or not columns:
        return 0
    alone = len(columns) == 1
    return n * len(columns) + sum(
        _cells_size(c, alone) if isinstance(c, (pa.Array, pa.ChunkedArray, np.ndarray))
        else n * _cell_size(c, alone)
        for c in columns
    )


def _cell_size(v, alone: bool) -> int:
    """Rendered bytes of one scalar cell (see :func:`csv_size`)."""
    if v is None or (isinstance(v, (float, np.floating)) and np.isnan(v)):
        return 2 if alone else 0
    if isinstance(v, (bool, np.bool_)):
        return 4 if v else 5
    if isinstance(v, (float, np.floating)):
        return len(str(np.float64(v)))
    if isinstance(v, (int, np.integer)):
        return len(str(int(v)))
    return _cells_size(pa.array([v], pa.string()), alone)


def _cells_size(v, alone: bool) -> int:
    """Rendered bytes of a vector's cells (see :func:`csv_size`)."""
    if isinstance(v, np.ndarray):
        if v.dtype.kind == "f":
            nan = np.isnan(v)
            size = int(np.char.str_len(v[~nan].astype(str)).sum())
            return size + 2 * int(nan.sum()) if alone else size
        v = pa.array(v)
    t = v.type
    if pa.types.is_integer(t) and v.null_count == 0:
        t, v = pa.string(), pc.cast(v, pa.string())
    if pa.types.is_integer(t) or pa.types.is_floating(t):  # an int with NULLs is float64
        floats = pc.cast(v, pa.float64(), safe=False)  # rounded, as numpy rounds
        return _cells_size(floats.to_numpy(zero_copy_only=False), alone)
    if pa.types.is_boolean(t):
        true = pc.sum(v).as_py() or 0
        false = len(v) - v.null_count - true
        return 4 * true + 5 * false + (2 * v.null_count if alone else 0)
    if pa.types.is_null(t):
        return 2 * len(v) if alone else 0
    if not pa.types.is_string(t):
        v = pc.cast(v, pa.string())
    lengths = pc.binary_length(v)
    size = pc.sum(lengths).as_py() or 0
    if _may_quote(v):
        size += 2 * (pc.sum(pc.match_substring_regex(v, '[,"\n]')).as_py() or 0)
        size += pc.sum(pc.count_substring(v, '"')).as_py() or 0
    if alone:
        size += 2 * (len(v) - (pc.sum(pc.greater(lengths, 0)).as_py() or 0))
    return size


def _may_quote(v) -> bool:
    """Whether a string vector's bytes hold any of ``_QUOTED`` (a scan, no regex)."""
    for chunk in v.chunks if isinstance(v, pa.ChunkedArray) else [v]:
        if chunk.null_count == len(chunk):
            continue
        offsets = np.frombuffer(chunk.buffers()[1], dtype=np.int32)
        lo, hi = offsets[chunk.offset], offsets[chunk.offset + len(chunk)]
        if lo == hi:
            continue
        data = np.frombuffer(chunk.buffers()[2], dtype=np.uint8)[lo:hi]
        if any((data == b).any() for b in _QUOTED):
            return True
    return False


def _options(data: bytes, header: bool, columns, select):
    """``(read, convert)`` options of ``from_csv_bytes``."""
    if header:
        end = data.find(b"\n")
        line = (data if end < 0 else data[:end]).rstrip(b"\r").decode()
        columns = next(csv.reader([line]))
    include = None
    if select:
        lower = {c.lower(): c for c in columns}
        if all(c.lower() in lower for c in select):
            include = [lower[c.lower()] for c in select]
    # Single-threaded: requests already run in parallel (one Spark task
    # per object), and Arrow's thread pool would hold on to memory.
    read = pacsv.ReadOptions(
        column_names=columns, skip_rows=1 if header else 0, use_threads=False
    )
    convert = pacsv.ConvertOptions(
        column_types={c: pa.string() for c in columns},
        include_columns=include,
        strings_can_be_null=False,
        quoted_strings_can_be_null=False,
    )
    return read, convert


def _open_quote_row(data: bytes, header: bool) -> int:
    """The data row of ``data``'s last quote, which an odd count of quotes leaves open."""
    b = np.frombuffer(data, dtype=np.uint8)[: data.rindex(b'"')]
    quoted = np.cumsum(b == ord('"')) % 2 == 1
    return int(np.count_nonzero((b == ord("\n")) & ~quoted)) + 1 - header


def from_csv_bytes(
    data: bytes,
    header: bool = True,
    columns: list[str] | None = None,
    select: list[str] | None = None,
    key: str | None = None,
) -> pa.Table:
    """Parse CSV bytes into an all-string Arrow table.

    Every column is ``string`` and empty cells, quoted or not, are empty
    strings (never NULL); ``NA``/``null``-like tokens, leading zeros and
    surrounding spaces are kept verbatim -- mirroring S3 Select, where CSV
    fields are untyped until CAST. Decoding is ``pyarrow.csv`` with every
    column typed ``string`` and no string ever read as NULL.

    ``columns`` names the columns of header-less data. ``select`` keeps
    only the named columns (matched case-insensitively, like the
    evaluator's lookups): the rest are parsed but never materialized.
    If ``select`` is empty or names a column the data lacks, every
    column is kept.

    Malformed text raises ``MalformedCSVError`` naming ``key`` (the
    object's) and the bad row: a row with fewer or more cells than the
    header, or an unterminated quote, which Arrow would read as a cell
    running to the end of the data. Quotes pair up in well-formed text
    (an escaped quote is doubled), so an odd count of them is the check;
    text without a quote is not scanned for it.
    """
    if b'"' in data and data.count(b'"') % 2:
        raise MalformedCSVError(key, _open_quote_row(data, header), "unterminated quote")
    read, convert = _options(data, header, columns, select)
    try:
        return pacsv.read_csv(
            io.BytesIO(data),
            read_options=read,
            parse_options=_PARSE,
            convert_options=convert,
        )
    except pa.ArrowInvalid as e:
        width = _WIDTH_ERROR.search(str(e))
        if width is None:
            raise
        raise MalformedCSVError(key, int(width[1]) - header, width[2].lower()) from None


def head(data: bytes, n: int) -> tuple[bytes, int] | None:
    """``(prefix, rows)``: a CSV object's header and first ``n`` data rows, and its row count.

    Rows are lines here, cut and counted without decoding. Where a
    quote, a ``\\r`` or a blank line could make the decoder's rows
    differ from the lines, this returns None; decode the whole object
    instead.
    """
    if b'"' in data or b"\r" in data:
        return None
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    if len(ends) == 0 or ends[0] == 0 or (np.diff(ends) == 1).any():
        return None  # no header line, or a blank line
    rows = len(ends) - data.endswith(b"\n")
    if n >= rows:
        return data, rows
    return data[: ends[n] + 1], rows


def parse_rows(data: bytes, columns: list[str]) -> pa.Table:
    """Parse header-less CSV row bytes (e.g. concatenated ranged GETs).

    Returns an all-string Arrow table of ``columns``, with no rows when
    ``data`` holds none.
    """
    if not data.strip():
        return pa.table({c: pa.array([], pa.string()) for c in columns})
    return from_csv_bytes(data, header=False, columns=columns)
