"""Group-by algorithms (paper SVI, Figures 5-7).

The evaluation query aggregates ``SUM`` over four value columns grouped
by one group column of the synthetic 10+10-column table::

    SELECT g, SUM(v1), ... , SUM(v4) FROM t GROUP BY g

* ``server_side_groupby`` -- full load, Spark group-by.
* ``filtered_groupby``    -- projection pushed to S3 (only the five
  needed columns come back), Spark group-by.
* ``s3_side_groupby``     -- phase 1 projects the group column and
  finds distinct values on the server; phase 2 pushes one
  ``SUM(CASE WHEN g = v THEN x ELSE 0 END)`` per (group, value column)
  into S3 Select, so only #groups x #aggregates numbers return.
* ``hybrid_groupby``      -- phase 1 samples the first 1% of rows to
  spot populous groups; large groups are aggregated S3-side (Q1), the
  tail is loaded with ``g NOT IN (...)`` and aggregated by Spark (Q2);
  Q1 and Q2 run concurrently (Fig 6: runtime is the max of the two).

S3 Select has no GROUP BY -- the parser in ``s3sim`` rejects it -- so
the CASE-WHEN encoding is a faithful reproduction of the paper's
workaround, including its cost: S3-side compute grows with the number
of CASE columns (modeled via ``Phase.case_columns``).
"""
from __future__ import annotations

import math

import pandas as pd
import pyspark.sql.functions as F

from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable
from repro.datasource.s3select import read_table
from repro.s3sim import select_all

# The paper's hybrid group-by samples "the first 1% of data".
SAMPLE_FRACTION = 0.01
# Default number of groups pushed to S3 (Fig 6: 6-8 is the sweet spot).
DEFAULT_PUSHED_GROUPS = 8


def _spark_groupby(df, group_col: str, value_cols: list):
    aggs = [F.sum(v).alias(f"sum_{v}") for v in value_cols]
    return df.groupBy(group_col).agg(*aggs)


def _case_sql(group_col: str, groups: list, value_cols: list) -> str:
    """Phase-2 S3 Select text: one SUM(CASE...) per (group, value col)."""
    items = []
    for g in groups:
        for v in value_cols:
            items.append(
                f"SUM(CASE WHEN {group_col} = {int(g)} "
                f"THEN CAST({v} AS FLOAT) ELSE 0 END) AS s_{int(g)}_{v}"
            )
    return "SELECT " + ", ".join(items) + " FROM S3Object"


def _s3_case_aggregate(
    runner: Runner, table: StoredTable, group_col: str, groups: list, value_cols: list
) -> pd.DataFrame:
    """Run the CASE aggregation on every object and merge the partials."""
    sql = _case_sql(group_col, groups, value_cols)
    partials = select_all(runner.store, table.keys, sql)
    total = pd.concat(partials, ignore_index=True).astype(float).sum()
    rows = []
    for g in groups:
        row = {group_col: int(g)}
        for v in value_cols:
            row[f"sum_{v}"] = float(total[f"s_{int(g)}_{v}"])
        rows.append(row)
    return pd.DataFrame(rows)


def server_side_groupby(
    spark, runner: Runner, table: StoredTable, group_col: str, value_cols: list
) -> QueryResult:
    """Full-table load; Spark computes the group-by."""
    with runner.phase("load+groupby", n_objects=len(table.keys)) as p:
        p.agg_rows = table.n_rows
        df = read_table(spark, runner.store.root, table.name, pushdown=False)
        out = _spark_groupby(df, group_col, value_cols).toPandas()
    return runner.finish(f"server-side group-by[{group_col}]", out)


def filtered_groupby(
    spark, runner: Runner, table: StoredTable, group_col: str, value_cols: list
) -> QueryResult:
    """Projection pushdown: only needed columns cross the network."""
    with runner.phase("projected-load+groupby", n_objects=len(table.keys)) as p:
        p.agg_rows = table.n_rows
        df = read_table(
            spark, runner.store.root, table.name, columns=[group_col] + value_cols
        )
        out = _spark_groupby(df, group_col, value_cols).toPandas()
    return runner.finish(f"filtered group-by[{group_col}]", out)


def s3_side_groupby(
    spark, runner: Runner, table: StoredTable, group_col: str, value_cols: list
) -> QueryResult:
    """Both phases pushed: group discovery by projection, sums by CASE."""
    with runner.phase("collect-groups", n_objects=len(table.keys)) as p:
        p.agg_rows = table.n_rows  # server-side distinct over all rows
        groups = [
            r[0]
            for r in read_table(
                spark, runner.store.root, table.name, columns=[group_col]
            ).distinct().collect()
        ]
    groups = sorted(int(g) for g in groups)
    with runner.phase(
        "s3-aggregate",
        n_objects=len(table.keys),
        case_columns=len(groups) * len(value_cols),
    ):
        out = _s3_case_aggregate(runner, table, group_col, groups, value_cols)
    return runner.finish(f"s3-side group-by[{group_col}]", out)


def hybrid_groupby(
    spark,
    runner: Runner,
    table: StoredTable,
    group_col: str,
    value_cols: list,
    n_pushed: int = DEFAULT_PUSHED_GROUPS,
) -> QueryResult:
    """Populous groups aggregate in S3; the tail aggregates in Spark."""
    # Phase 1: sample the first 1% of each object (rows are randomly
    # ordered by construction, so a prefix is a uniform sample).
    per_object = max(1, math.ceil(table.n_rows * SAMPLE_FRACTION / len(table.keys)))
    with runner.phase("sample", n_objects=len(table.keys)):
        samples = select_all(
            runner.store, table.keys,
            f"SELECT {group_col} FROM S3Object LIMIT {per_object}",
        )
    counts = (
        pd.concat(samples, ignore_index=True)[group_col].astype(int).value_counts()
    )
    pushed = sorted(int(g) for g in counts.head(n_pushed).index)

    # Phase 2, concurrently: Q1 pushes CASE sums for the large groups,
    # Q2 ships the remaining rows for server-side aggregation.
    results = []
    if pushed:
        with runner.phase(
            "s3-aggregate",
            n_objects=len(table.keys),
            case_columns=len(pushed) * len(value_cols),
            parallel_group="phase2",
        ):
            results.append(
                _s3_case_aggregate(runner, table, group_col, pushed, value_cols)
            )
    with runner.phase(
        "server-aggregate", n_objects=len(table.keys), parallel_group="phase2"
    ) as p:
        tail_rows = int((~table.pdf[group_col].isin(pushed)).sum())
        p.agg_rows = tail_rows
        where = None
        if pushed:
            items = ", ".join(f"'{g}'" for g in pushed)
            where = f"{group_col} NOT IN ({items})"
        df = read_table(
            spark,
            runner.store.root,
            table.name,
            columns=[group_col] + value_cols,
            where=where,
        )
        tail = _spark_groupby(df, group_col, value_cols).toPandas()
        if len(tail):
            results.append(tail)
    out = (
        pd.concat(results, ignore_index=True)
        if results
        else pd.DataFrame(columns=[group_col] + [f"sum_{v}" for v in value_cols])
    )
    out[group_col] = out[group_col].astype("int64")
    return runner.finish(
        f"hybrid group-by[{group_col}, pushed={len(pushed)}]", out
    )
