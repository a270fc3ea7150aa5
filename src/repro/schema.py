"""Table schemas as Spark DDL text, and the one rule that types CSV rows.

``core.tables`` stores each table's schema as DDL (``"k BIGINT, v DOUBLE,
s STRING"``). CSV objects hold only strings, so every compute-side reader
-- the ``s3select`` DataSource and the driver's direct S3 Select calls --
types the rows it receives with :func:`typed_column`, one column at a
time, or :func:`apply_schema`, a whole frame:

* ``BIGINT``/``INT``    -> ``int64``
* ``DOUBLE``/``FLOAT``  -> ``float64`` (also when the column is empty)
* anything else        -> ``str`` (an ``object`` column)

These are the dtypes ``DataFrame.toPandas()`` returns for the same table.
This module imports neither ``core`` nor ``datasource``, so both use it.
"""
from __future__ import annotations

import pandas as pd

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
    if t in _INTEGRAL:
        return pd.to_numeric(s, errors="coerce").astype("int64")
    if t in _FRACTIONAL:
        return pd.to_numeric(s, errors="coerce").astype("float64")
    return s.astype(str)


def apply_schema(pdf: pd.DataFrame, ddl: str) -> pd.DataFrame:
    """Convert an all-string frame (CSV rows) to the DDL's types."""
    types = parse_ddl(ddl)
    return pd.DataFrame({
        c: typed_column(pdf[c], types.get(c.lower(), (c, "STRING"))[1])
        for c in pdf.columns
    })
