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


def typed_column(s: pd.Series, sql_type: str) -> pd.Series:
    """One all-string column as the DDL type ``sql_type`` (case-insensitive)."""
    t = sql_type.upper()
    if t not in _INTEGRAL + _FRACTIONAL:
        text = s.astype(str)
        return text.where(s.notna().to_numpy() & (text.to_numpy() != ""), None)
    # Parquet columns arrive typed; CSV cells by S3 Select's coercion.
    n = s.to_numpy() if s.dtype != object else cells_to_numbers(
        pa.array(s, type=pa.string(), from_pandas=True)
    )
    integral = t in _INTEGRAL and not np.isnan(n).any()
    return pd.Series(n, index=s.index, name=s.name).astype(
        "int64" if integral else "float64"
    )


def spark_values(s: pd.Series, sql_type: str) -> list:
    """``typed_column(s, sql_type)`` as the Python values of Spark rows (NULL is None)."""
    col = typed_column(s, sql_type)
    if col.dtype != "float64" or not col.isna().any():
        return col.tolist()
    num = int if sql_type.upper() in _INTEGRAL else float
    return [None if np.isnan(v) else num(v) for v in col.tolist()]


def apply_schema(pdf: pd.DataFrame, ddl: str) -> pd.DataFrame:
    """Convert an all-string frame (CSV rows) to the DDL's types."""
    types = parse_ddl(ddl)
    return pd.DataFrame({
        c: typed_column(pdf[c], types.get(c.lower(), (c, "STRING"))[1])
        for c in pdf.columns
    })
