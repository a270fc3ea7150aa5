"""The S3 Select request: run one restricted-SQL query on one object.

``s3_select(store, key, sql)`` parses ``sql`` (rejecting anything the
real 2019-era service could not do), scans the object, evaluates the
query, and records usage:

* ``bytes_scanned``  -- CSV: the whole object (S3 Select is a scan
  engine; a ``LIMIT`` with no WHERE stops early, modeled as the scanned
  prefix). Parquet: referenced column chunks + footer only.
* ``bytes_returned`` -- the CSV serialization of the result (S3 Select
  always returns CSV, even for Parquet input -- paper SIX).
* ``select_requests`` -- 1.

The 256 KB SQL expression limit of the real service is enforced; the
paper's Bloom join relies on detecting this limit to degrade its false
positive rate (SV-A.2).

``select_all(store, keys, sql)`` is how the driver sends requests
itself: the same query on each object, serially, in key order. Spark's
workers reach ``s3_select`` through the ``s3select`` DataSource instead.
"""
from __future__ import annotations

import pandas as pd

from repro.s3sim import csvio, parquetio
from repro.s3sim.sql_ast import Query, referenced_columns
from repro.s3sim.sql_eval import eval_query
from repro.s3sim.sql_parser import parse
from repro.s3sim.store import ObjectStore

MAX_SQL_BYTES = 256 * 1024  # documented S3 Select SQL expression limit


class S3SelectError(ValueError):
    """Request rejected by the (simulated) S3 Select service."""


def _csv_scanned_bytes(query: Query, data: bytes, n_rows: int) -> int:
    """Scanned bytes for a CSV object, modeling LIMIT early-exit.

    With no WHERE clause the scan can stop after ``limit`` rows, so only
    the corresponding prefix of the object is read. Any WHERE clause
    forces a full scan (qualifying rows may be anywhere).
    """
    if query.limit is not None and query.where is None and n_rows > 0:
        frac = min(1.0, query.limit / n_rows)
        return int(len(data) * frac)
    return len(data)


def s3_select(
    store: ObjectStore,
    key: str,
    sql: str,
    input_format: str = "csv",
) -> pd.DataFrame:
    """Execute one S3 Select request; returns the result rows.

    CSV results are all-string frames (aggregates keep native numeric
    types for caller convenience; byte accounting always uses the CSV
    serialization either way).
    """
    if len(sql.encode()) > MAX_SQL_BYTES:
        raise S3SelectError(
            f"SQL expression is {len(sql.encode())} bytes; "
            f"S3 Select limits expressions to 256 KB ({MAX_SQL_BYTES} bytes)"
        )
    query = parse(sql)
    # Only the columns the query references are decoded; the scan (and
    # so ``bytes_scanned``) still covers the whole CSV object.
    cols = None if query.is_star else sorted(referenced_columns(query))

    if input_format == "csv":
        data = store.storage_read(key)
        df = csvio.from_csv_bytes(data, select=cols)
        result = eval_query(query, df)
        scanned = _csv_scanned_bytes(query, data, len(df))
    elif input_format == "parquet":
        data = store.storage_read(key)
        df = parquetio.read_columns(data, cols)
        result = eval_query(query, df)
        scanned = parquetio.scanned_bytes(data, cols)
    else:
        raise S3SelectError(f"unsupported input format {input_format!r}")

    returned = len(csvio.to_csv_bytes(result, header=False))
    store.log.record(
        select_requests=1, bytes_scanned=scanned, bytes_returned=returned
    )
    return result


def select_all(store: ObjectStore, keys: list, sql: str) -> list[pd.DataFrame]:
    """Run ``sql`` on each object of ``keys``: one frame per key, in key order.

    The driver's one request path to storage. Requests run serially,
    one after another, and nothing is cached between them.
    """
    return [s3_select(store, key, sql) for key in keys]
