"""Top-K algorithms (paper SVII, Figures 8-9).

Evaluation query (Listing 6)::

    SELECT * FROM lineitem ORDER BY l_extendedprice ASC LIMIT K

* ``server_side_topk`` -- ship the whole table; heap-select on the server.
* ``sampling_topk``    -- phase 1 samples S rows of the ORDER BY column
  (a prefix per object: rows are randomly ordered by construction, the
  paper's "if the data in the table is random" case) and takes the K-th
  smallest as a conservative threshold; phase 2 loads only rows at or
  below the threshold via S3 Select (the driver's ``Runner.scan``) and
  heap-selects the top-K from them in pandas (``nsmallest``).
  Sampling guarantees >= K qualifying rows, so the result is exact; the
  phase's ``heap_rows`` is the number of rows it received.

The paper's bandwidth-optimal sample size ``S = sqrt(K*N/alpha)``
(SVII-B), with ``alpha`` the fraction of row bytes needed in phase 1,
is the default; Figures 8-9 sweep around it. ``alpha`` comes from the
table's manifest (the mean width of the ORDER BY column's cells).
"""
from __future__ import annotations

import math

from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable
from repro.datasource.s3select import read_table


def alpha_fraction(table: StoredTable, order_col: str) -> float:
    """Fraction of each row's bytes needed during sampling (paper's alpha)."""
    col_bytes = table.widths[order_col] + 1  # +delimiter
    return float(col_bytes / table.avg_row_bytes)


def optimal_sample_size(table: StoredTable, order_col: str, k: int) -> int:
    """``S = sqrt(K*N/alpha)``, clamped to the table size."""
    a = alpha_fraction(table, order_col)
    return int(min(table.n_rows, max(k, round(math.sqrt(k * table.n_rows / a)))))


def server_side_topk(
    spark, runner: Runner, table: StoredTable, order_col: str, k: int
) -> QueryResult:
    """Baseline: full scan, server-side heap (Spark orderBy + limit)."""
    with runner.phase("load+topk", n_objects=len(table.keys)) as p:
        p.heap_rows = table.n_rows
        df = read_table(spark, runner.store.root, table.name, pushdown=False)
        out = df.orderBy(order_col).limit(k).toPandas()
    return runner.finish(f"server-side top-{k}", out)


def sampling_topk(
    spark,
    runner: Runner,
    table: StoredTable,
    order_col: str,
    k: int,
    sample_size: int | None = None,
) -> QueryResult:
    """Two-phase sampling top-K (threshold from the K-th sampled value)."""
    s = sample_size if sample_size is not None else optimal_sample_size(
        table, order_col, k
    )
    s = int(min(table.n_rows, max(k, s)))
    per_object = max(1, math.ceil(s / len(table.keys)))

    sample = runner.scan("sample", table, [order_col], limit=per_object, rows=None)
    threshold = float(sample[order_col].nsmallest(k).iloc[-1])

    rows = runner.scan(
        "scan", table, table.columns,
        f"CAST({order_col} AS FLOAT) <= {threshold!r}", rows="heap_rows",
    )
    out = rows.nsmallest(k, order_col).reset_index(drop=True)
    assert len(out) == k or len(out) == table.n_rows, (
        "sampling threshold must admit at least K rows"
    )
    return runner.finish(f"sampling top-{k} (S={s})", out)
