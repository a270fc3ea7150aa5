"""CSV serialization for simulated S3 objects.

S3 Select operates on CSV (or Parquet) objects and *always returns CSV*
regardless of input format (paper SIX). We therefore make CSV the wire
format everywhere: objects are CSV with a header row, values are
strings, and typing happens via ``CAST`` inside S3 Select queries or via
the table schema on the compute side -- the same contract real S3 Select
has.

Objects are decoded with ``pyarrow.csv``, every column typed ``string``
and no cell ever read as NULL, into an all-``str`` pandas frame: empty
cells are ``""``, and ``NA``/``null``/``NaN`` tokens, leading zeros and
surrounding spaces stay as written. It is the only decoder; full objects,
ranged-GET rows and the DataSource all go through it.

This module also computes per-row byte offsets at write time, which the
paper's index tables (SIV-A) store so that individual rows can later be
fetched with single-byte-range GETs.
"""
from __future__ import annotations

import csv
import io

import pandas as pd
import pyarrow as pa
from pyarrow import csv as pacsv

# Quoted fields may hold newlines (``to_csv_bytes`` writes them as-is).
_PARSE = pacsv.ParseOptions(newlines_in_values=True)


def to_csv_bytes(df: pd.DataFrame, header: bool = True) -> bytes:
    """Serialize a frame to CSV bytes (header row included by default)."""
    buf = io.StringIO()
    df.to_csv(buf, index=False, header=header)
    return buf.getvalue().encode()


def from_csv_bytes(
    data: bytes,
    header: bool = True,
    columns: list[str] | None = None,
    select: list[str] | None = None,
) -> pd.DataFrame:
    """Parse CSV bytes into an all-string frame.

    Every column is ``str`` (object dtype) and empty cells, quoted or
    not, are empty strings; ``NA``/``null``-like tokens, leading zeros and
    surrounding spaces are kept verbatim -- mirroring S3 Select, where CSV
    fields are untyped until CAST. Decoding is ``pyarrow.csv`` with every
    column typed ``string`` and no string ever read as NULL.

    ``columns`` names the columns of header-less data. ``select`` keeps
    only the named columns (matched case-insensitively, like the
    evaluator's lookups): the rest are parsed but never become Python
    strings. If ``select`` is empty or names a column the data lacks,
    every column is kept.
    """
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
    table = pacsv.read_csv(
        io.BytesIO(data),
        read_options=read,
        parse_options=_PARSE,
        convert_options=convert,
    )
    return table.to_pandas(use_threads=False)


def row_byte_offsets(data: bytes) -> list[tuple[int, int]]:
    """``(offset, length)`` of every data row in a header-ful CSV object.

    Length includes the trailing newline so a ranged GET returns exactly
    one parseable CSV line. Offsets are what the index table stores.
    """
    out: list[tuple[int, int]] = []
    # Skip the header line.
    start = data.index(b"\n") + 1
    n = len(data)
    while start < n:
        try:
            end = data.index(b"\n", start) + 1
        except ValueError:  # final row without trailing newline
            end = n
        out.append((start, end - start))
        start = end
    return out


def parse_rows(data: bytes, columns: list[str]) -> pd.DataFrame:
    """Parse header-less CSV row bytes (e.g. concatenated ranged GETs)."""
    if not data.strip():
        return pd.DataFrame({c: pd.Series(dtype=str) for c in columns})
    return from_csv_bytes(data, header=False, columns=columns)
