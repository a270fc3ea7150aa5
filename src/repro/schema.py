"""Table schemas as Spark DDL text, and the one rule that types CSV rows.

``core.tables`` stores each table's schema as DDL (``"k BIGINT, v DOUBLE,
s STRING"``). CSV objects hold only strings, so every compute-side reader
-- the ``s3select`` DataSource and the driver's direct S3 Select calls --
types the rows it receives with :func:`typed_column`, one column at a
time, or :func:`apply_schema`, a whole frame:

* ``BIGINT``/``INT``    -> ``int64``; ``float64`` if a cell is NULL
* ``DOUBLE``/``FLOAT``  -> ``float64`` (also when the column is empty)
* anything else        -> ``str`` (an ``object`` column); an empty cell,
  or a NULL one from Parquet, is NULL (``None``)

An empty or non-numeric cell of a numeric column is NULL: NaN in the
frame, ``None`` in the rows the DataSource yields (:func:`spark_values`).
S3 Select reads an empty cell as NULL too, so a filter gives the same
rows whether it runs in S3 Select or in Spark.
These are the dtypes ``DataFrame.toPandas()`` returns for the same table.
Numeric cells are read by S3 Select's own coercion
(``s3sim.sql_eval.cells_to_numbers``, which follows ``pandas.to_numeric``).
This module imports neither ``core`` nor ``datasource``, so both use it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from repro.s3sim.sql_eval import cells_to_numbers

_INTEGRAL = ("BIGINT", "INT")
_FRACTIONAL = ("DOUBLE", "FLOAT")


def parse_ddl(ddl: str) -> dict:
    """``{lower-case name: (name, upper-case type)}``, in DDL order."""
    out = {}
    for part in ddl.split(","):
        name, typ = part.strip().split(" ", 1)
        out[name.lower()] = (name, typ.strip().upper())
    return out


def project_ddl(ddl: str, columns: list) -> str:
    """The DDL of ``columns`` (matched case-insensitively), in their order."""
    fields = parse_ddl(ddl)
    missing = [c for c in columns if c.lower() not in fields]
    if missing:
        raise ValueError(f"columns not in schema: {missing}")
    return ", ".join(" ".join(fields[c.lower()]) for c in columns)


def typed_column(s, sql_type: str) -> pd.Series:
    """One all-string column as the DDL type ``sql_type`` (case-insensitive).

    ``s`` is a pandas Series or pyarrow strings (``core.tables``' results,
    typed before they become pandas).
    """
    t = sql_type.upper()
    if not isinstance(s, pd.Series):
        return pd.Series(_typed_cells(s, t))
    if s.dtype != object and t in _INTEGRAL + _FRACTIONAL:
        # Parquet's numeric columns arrive typed.
        return pd.Series(_typed_numbers(s.to_numpy(), t), index=s.index, name=s.name)
    if s.dtype != object:
        s = s.astype(str).where(s.notna(), None)
    cells = pa.array(s, type=pa.string(), from_pandas=True)
    return pd.Series(_typed_cells(cells, t), index=s.index, name=s.name)


def _typed_numbers(n: np.ndarray, t: str) -> np.ndarray:
    """Numbers as int64 for an integral type without NULLs, else float64."""
    return n.astype("int64" if t in _INTEGRAL and not np.isnan(n).any() else "float64")


def _typed_cells(cells, t: str) -> np.ndarray:
    """Arrow strings (NULL or empty cells are NULL) as the type ``t``, as numpy.

    Numbers are read by S3 Select's coercion; text is an ``object`` array
    with NULL as ``None``.
    """
    if isinstance(cells, pa.ChunkedArray):
        cells = pa.concat_arrays(cells.chunks)
    if t in _INTEGRAL + _FRACTIONAL:
        return _typed_numbers(cells_to_numbers(cells), t)
    text = cells.to_numpy(zero_copy_only=False)  # object, NULL as None
    text[pc.fill_null(pc.equal(cells, ""), False).to_numpy(zero_copy_only=False)] = None
    return text


def spark_values(s: pd.Series, sql_type: str) -> list:
    """``typed_column(s, sql_type)`` as the Python values of Spark rows (NULL is None)."""
    col = typed_column(s, sql_type)
    if col.dtype != "float64" or not col.isna().any():
        return col.tolist()
    num = int if sql_type.upper() in _INTEGRAL else float
    return [None if np.isnan(v) else num(v) for v in col.tolist()]


def apply_schema(frame, ddl: str) -> pd.DataFrame:
    """Convert an all-string frame (CSV rows) to the DDL's types.

    ``frame`` is a pandas frame or a ``pyarrow.Table`` of strings.
    """
    types = parse_ddl(ddl)
    names = frame.column_names if isinstance(frame, pa.Table) else frame.columns
    return pd.DataFrame({
        c: typed_column(frame[c], types.get(c.lower(), (c, "STRING"))[1])
        for c in names
    })
