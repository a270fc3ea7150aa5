"""Parquet objects for the simulated S3 (paper SIX).

S3 Select can scan Parquet objects; billing-wise, only the *referenced
column chunks* count as scanned bytes (that is the whole point of the
paper's Fig 11 CSV-vs-Parquet study). Responses, however, are still CSV
-- real S3 Select "always returns data in CSV format, even if the data
is stored in Parquet format" -- which is why Fig 11 shows Parquet's win
evaporating once the network transfer of results dominates.

We serialize with pyarrow + Snappy and compute scanned bytes from the
file's row-group metadata: the compressed size of referenced column
chunks plus the footer.
"""
from __future__ import annotations

import io

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# Default row-group size used by the paper's Parquet tables (100 MB of
# raw data per group); at our scale most objects are a single group.
DEFAULT_ROW_GROUP_ROWS = 1_000_000


def to_parquet_bytes(
    df: pd.DataFrame,
    compression: str = "snappy",
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
) -> bytes:
    """Serialize a frame to a Parquet object (Snappy, like the paper)."""
    table = pa.Table.from_pandas(df, preserve_index=False)
    buf = io.BytesIO()
    pq.write_table(table, buf, compression=compression, row_group_size=row_group_rows)
    return buf.getvalue()


def read_columns(data: bytes, columns: list[str] | None = None) -> pa.Table:
    """Read (a projection of) a Parquet object as an Arrow table.

    Column name matching is case-insensitive, like our CSV path.
    """
    f = pq.ParquetFile(io.BytesIO(data))
    names = f.schema_arrow.names
    if columns is not None:
        lower = {n.lower(): n for n in names}
        missing = [c for c in columns if c.lower() not in lower]
        if missing:
            raise KeyError(f"no such parquet columns: {missing}")
        columns = [lower[c.lower()] for c in columns]
    return f.read(columns=columns)


def scanned_bytes(data: bytes, columns: list[str] | None = None) -> int:
    """Bytes S3 Select would scan: referenced column chunks + footer.

    ``columns=None`` means all columns (e.g. ``SELECT *``).
    """
    f = pq.ParquetFile(io.BytesIO(data))
    meta = f.metadata
    want = None if columns is None else {c.lower() for c in columns}
    total = 0
    for rg in range(meta.num_row_groups):
        group = meta.row_group(rg)
        for ci in range(group.num_columns):
            col = group.column(ci)
            if want is None or col.path_in_schema.lower() in want:
                total += col.total_compressed_size
    # Footer metadata is always read; approximate it by its serialized size.
    return total + (meta.serialized_size or 0)
