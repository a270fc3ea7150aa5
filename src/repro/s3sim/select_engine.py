"""The S3 Select request: run one restricted-SQL query on one object.

``s3_select(store, key, sql)`` parses ``sql`` (rejecting anything the
real 2019-era service could not do), scans the object, evaluates the
query, and records usage. The object is decoded into a
``pyarrow.Table`` of only the referenced columns (``csvio`` or
``parquetio``), evaluated on those Arrow columns (``sql_eval``), and
only the result becomes a pandas frame. Usage, per request:

* ``bytes_scanned``  -- CSV: the whole object (S3 Select is a scan
  engine; a ``LIMIT`` with no WHERE stops early, modeled as the scanned
  prefix). Parquet: referenced column chunks + footer only.
* ``bytes_returned`` -- the length of the result's CSV text (S3 Select
  always returns CSV, even for Parquet input -- paper SIX), counted from
  the result's columns without rendering the text (``csvio.csv_size``).
* ``select_requests`` -- 1.

The 256 KB SQL expression limit of the real service is enforced; the
paper's Bloom join relies on detecting this limit to degrade its false
positive rate (SV-A.2).

``select_results(store, keys, sql)`` is the one request path: the same
query on each object of a table, as one batch. The SQL is checked and
parsed once, each object is decoded on its own, and the decoded objects
are evaluated together, each request answering what it would alone;
nothing is kept between batches. Its results stay Arrow and numpy
columns (``sql_eval.Result``), which its callers type by the table's
DDL: the driver's ``core.tables.select_table`` into a frame, and Spark's
workers, through the ``s3select`` DataSource, into an Arrow batch of
one object. ``s3_select`` is a batch of one as a pandas frame, and
``select_all`` a batch's frames: the forms the tests compare a batch
against one request at a time.
"""
from __future__ import annotations

from itertools import accumulate

import pandas as pd
import pyarrow as pa

from repro.s3sim import csvio, parquetio
from repro.s3sim.errors import S3SelectError
from repro.s3sim.sql_ast import Query, contains_aggregate, referenced_columns
from repro.s3sim.sql_eval import Result, eval_query
from repro.s3sim.sql_parser import parse
from repro.s3sim.store import ObjectStore

MAX_SQL_BYTES = 256 * 1024  # documented S3 Select SQL expression limit


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
    """Execute one S3 Select request; returns the result rows as a pandas frame.

    Projected CSV columns are ``str``; computed columns and aggregates
    keep native numeric types for caller convenience (``bytes_returned``
    counts their CSV rendering either way). A batch of one
    (``select_results``).
    """
    return select_results(store, [key], sql, input_format)[0].to_pandas()


def select_all(
    store: ObjectStore, keys: list, sql: str, input_format: str = "csv"
) -> list[pd.DataFrame]:
    """Run ``sql`` on each object of ``keys``: one frame per key, in key order.

    ``select_results``, each result as the pandas frame it makes. No
    request path sends through it; the tests use it to compare a batch
    with its requests sent one at a time (``s3_select``).
    """
    return [r.to_pandas() for r in select_results(store, keys, sql, input_format)]


def select_results(
    store: ObjectStore, keys: list, sql: str, input_format: str = "csv"
) -> list[Result]:
    """Run ``sql`` on each object of ``keys``: one ``sql_eval.Result`` per key, in key order.

    One request per object, sent as one batch: the SQL is size-checked,
    parsed and checked once; each object is read and decoded on its own
    (so ``bytes_scanned`` is its own; a CSV ``LIMIT`` with no WHERE and
    no aggregate decodes only the rows it returns, ``csvio.head``); and
    the decoded objects are evaluated together, each request's result
    being the one its object alone gives (``sql_eval.eval_query``). Each
    request then records its own usage, all of the batch's in one append,
    with ``bytes_returned`` counted from its result's columns
    (``Result.csv_size``). Nothing is kept from one batch to the next.
    A request that fails fails the batch before any of its requests is
    recorded.
    """
    if not keys:
        return []
    if len(sql.encode()) > MAX_SQL_BYTES:
        raise S3SelectError(
            f"SQL expression is {len(sql.encode())} bytes; "
            f"S3 Select limits expressions to 256 KB ({MAX_SQL_BYTES} bytes)"
        )
    query = parse(sql)
    if input_format not in ("csv", "parquet"):
        raise S3SelectError(f"unsupported input format {input_format!r}")
    # Only the columns the query references are decoded; a CSV scan (and
    # so ``bytes_scanned``) still covers the whole object.
    cols = None if query.is_star else sorted(referenced_columns(query))
    # An aggregate reads every row; its LIMIT caps only its one result row.
    prefix_only = (
        query.limit is not None and query.where is None
        and not any(contains_aggregate(it.expr) for it in query.items)
    )
    tables, scanned = [], []
    for key in keys:
        data = store.storage_read(key)
        if input_format == "csv":
            head = csvio.head(data, query.limit) if prefix_only else None
            table = csvio.from_csv_bytes(
                data if head is None else head[0], select=cols, key=key
            )
            n_rows = table.num_rows if head is None else head[1]
            scanned.append(_csv_scanned_bytes(query, data, n_rows))
        else:
            table = parquetio.read_columns(data, cols)
            scanned.append(parquetio.scanned_bytes(data, cols))
        tables.append(table)

    if all(t.schema.equals(tables[0].schema) for t in tables):
        bounds = list(accumulate((t.num_rows for t in tables), initial=0))
        results = eval_query(query, pa.concat_tables(tables), bounds)
    else:  # objects with other columns than the first are evaluated alone
        results = [eval_query(query, t, [0, t.num_rows])[0] for t in tables]
    store.log.record_all([
        {"select_requests": 1, "bytes_scanned": n_scanned,
         "bytes_returned": result.csv_size()}
        for result, n_scanned in zip(results, scanned)
    ])
    return results
