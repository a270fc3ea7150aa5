"""The one rule that types CSV rows by a table's schema.

``core.tables`` stores each table's schema as DDL (``"k BIGINT, v DOUBLE,
s STRING"``; ``repro.ddl`` reads the text). S3 Select returns only
untyped CSV cells, so every compute-side reader types the columns it
receives by the table's DDL with :func:`typed_array`, one Arrow array
per column:

* ``BIGINT``/``INT``    -> ``int64``
* ``DOUBLE``/``FLOAT``  -> ``float64``
* anything else        -> ``string``

An empty or non-numeric cell of a numeric column is NULL, and so is an
empty cell of a STRING column, or a NULL one from Parquet. S3 Select
reads an empty cell as NULL too, so a filter gives the same rows whether
it runs in S3 Select or in Spark. Numeric cells are read by S3 Select's
own coercion (``s3sim.sql_eval.cells_to_numbers``, which follows
``pandas.to_numeric``).

The ``s3select`` DataSource hands these arrays to Spark as one Arrow
batch; the driver's frames are their ``to_pandas()`` (:func:`apply_schema`),
which gives the dtypes ``DataFrame.toPandas()`` returns for the same
table: a BIGINT column with a NULL becomes ``float64`` (NaN), and a NULL
string is ``None``.
This module imports neither ``core`` nor ``datasource``, so both use it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from repro.ddl import parse_ddl
from repro.s3sim.sql_eval import cells_to_numbers

_INTEGRAL = ("BIGINT", "INT")
_FRACTIONAL = ("DOUBLE", "FLOAT")


def typed_array(values, sql_type: str) -> pa.Array:
    """One column's values as an Arrow array of the DDL type ``sql_type`` (case-insensitive).

    ``values`` are CSV cells (Arrow strings, an empty cell being NULL) or
    Parquet's typed values (a numpy vector of numbers, NaN being NULL, or
    Arrow strings with NULLs), as ``sql_eval.Result`` holds them.
    """
    t = sql_type.upper()
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    elif isinstance(values, pa.Array) and values.offset:
        values = pa.concat_arrays([values])  # pyarrow 16's if_else mangles sliced strings
    if t not in _INTEGRAL + _FRACTIONAL:
        return pc.if_else(pc.equal(values, ""), pa.scalar(None, pa.string()), values)
    numbers = values if isinstance(values, np.ndarray) else cells_to_numbers(values)
    null = np.isnan(numbers)
    if t in _FRACTIONAL:
        return pa.array(numbers.astype(np.float64, copy=False), mask=null)
    return pa.array(np.where(null, 0, numbers).astype(np.int64), mask=null)


def apply_schema(table: pa.Table, ddl: str) -> pd.DataFrame:
    """An all-string table (CSV rows) as a pandas frame of the DDL's types.

    A column the DDL does not name is a STRING.
    """
    types = parse_ddl(ddl)
    return pa.table({
        c: typed_array(table[c], types.get(c.lower(), (c, "STRING"))[1])
        for c in table.column_names
    }).to_pandas()
