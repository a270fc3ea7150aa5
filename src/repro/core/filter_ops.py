"""Filter algorithms (paper SIV, Figure 1).

Three strategies for ``SELECT ... WHERE pred`` over one table:

* ``server_side_filter`` -- load every row over the network, filter on
  the compute node (no S3 Select).
* ``s3_side_filter``     -- the predicate travels to storage via the
  ``s3select`` datasource's Catalyst filter pushdown.
* ``s3_index_filter``    -- phase 1 scans a (value, _offset, _length)
  index table with S3 Select; phase 2 fetches each qualifying row with
  an individual single-byte-range GET (the S3 API allows only one range
  per request), which is exactly the request storm that makes indexing
  collapse at low selectivity in Fig 1.
"""
from __future__ import annotations

import pandas as pd

from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable, apply_schema
from repro.datasource.s3select import read_table
from repro.s3sim import csvio, select_all
from repro.s3sim.sql_parser import parse  # noqa: F401  (re-export convenience)


def server_side_filter(
    spark,
    runner: Runner,
    table: StoredTable,
    predicate: str,
    columns: list | None = None,
) -> QueryResult:
    """Full-table load; Spark evaluates ``predicate`` on the server."""
    with runner.phase("load+filter", n_objects=len(table.keys)) as p:
        p.agg_rows = table.n_rows  # every row is parsed and tested
        df = read_table(
            spark, runner.store.root, table.name, columns=columns, pushdown=False
        ).filter(predicate)
        out = df.toPandas()
    return runner.finish(f"server-side filter[{predicate}]", out)


def s3_side_filter(
    spark,
    runner: Runner,
    table: StoredTable,
    predicate: str,
    columns: list | None = None,
) -> QueryResult:
    """Predicate pushed into S3 Select through Catalyst ``pushFilters``."""
    with runner.phase("s3-filter", n_objects=len(table.keys)) as p:
        df = read_table(
            spark, runner.store.root, table.name, columns=columns, pushdown=True
        ).filter(predicate)
        out = df.toPandas()
        p.agg_rows = len(out)  # server only touches qualifying rows
    return runner.finish(f"s3-side filter[{predicate}]", out)


def s3_index_filter(
    spark,
    runner: Runner,
    table: StoredTable,
    column: str,
    op: str,
    value: float,
) -> QueryResult:
    """Index-table filter: S3 Select over the index, then row GETs.

    Supports the comparison predicates an index can serve
    (``op`` in <, <=, >, >=, =) on the indexed numeric ``column``.
    """
    if column not in table.index_columns:
        raise ValueError(f"{table.name} has no index on {column!r}")
    if op not in ("<", "<=", ">", ">=", "="):
        raise ValueError(f"unsupported index predicate op {op!r}")

    # Phase 1: push the predicate to the index objects.
    with runner.phase("index-lookup", n_objects=len(table.keys)):
        results = select_all(
            runner.store,
            [table.index_key(column, i) for i in range(len(table.keys))],
            f"SELECT _offset, _length FROM S3Object "
            f"WHERE CAST({column} AS FLOAT) {op} {value!r}",
        )
    ranges = [
        (i, [(int(o), int(ln)) for o, ln in zip(res["_offset"], res["_length"])])
        for i, res in enumerate(results)
    ]

    # Phase 2: one ranged GET per qualifying row (single range per
    # request, as in the real S3 API).
    n_hits = sum(len(offs) for _, offs in ranges)
    with runner.phase("row-fetch", n_objects=len(table.keys)) as p:
        p.agg_rows = n_hits
        frames = []
        cols = list(table.pdf.columns)
        for i, offs in ranges:
            chunks = [runner.store.get(table.keys[i], rng) for rng in offs]
            if chunks:
                frames.append(csvio.parse_rows(b"".join(chunks), cols))
        if frames:
            out = apply_schema(pd.concat(frames, ignore_index=True), table.schema_ddl)
        else:
            out = apply_schema(
                pd.DataFrame({c: pd.Series(dtype=str) for c in cols}),
                table.schema_ddl,
            )
    return runner.finish(f"s3-index filter[{column} {op} {value}]", out)
