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
  into S3 Select (:func:`case_aggregate`), so only #groups x
  #aggregates numbers return.
* ``hybrid_groupby``      -- phase 1 samples the first 1% of rows to
  spot populous groups; large groups are aggregated S3-side (Q1), the
  tail is fetched by the driver with ``g NOT IN (...)`` and aggregated
  there in pandas (Q2); Q1 and Q2 run concurrently (Fig 6: runtime is
  the max of the two).

S3 Select has no GROUP BY -- the parser in ``s3sim`` rejects it -- so
the CASE-WHEN encoding is a faithful reproduction of the paper's
workaround, including its cost: S3-side compute grows with the number
of CASE columns (modeled via ``Phase.case_columns``). It is written in
one place, :func:`case_aggregate`, which TPC-H Q1 (``core.tpch``) calls
too.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyspark.sql.functions as F

from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable
from repro.datasource.s3select import read_table
from repro.s3sim import select_results

# The paper's hybrid group-by samples "the first 1% of data".
SAMPLE_FRACTION = 0.01
# Default number of groups pushed to S3 (Fig 6: 6-8 is the sweet spot).
DEFAULT_PUSHED_GROUPS = 8


def _spark_groupby(df, group_col: str, value_cols: list):
    aggs = [F.sum(v).alias(f"sum_{v}") for v in value_cols]
    return df.groupBy(group_col).agg(*aggs)


def case_aggregate(
    runner: Runner,
    table: StoredTable,
    group_cols: list,
    groups: list,
    sums: dict,
    where: str | None = None,
    **phase_kw,
) -> pd.DataFrame:
    """``SUM(expr)`` per group, for each ``{alias: expr}`` of ``sums``, in S3.

    ``groups`` holds one tuple per group: its values of ``group_cols``
    (a ``str`` rendered quoted, an ``int`` bare). Each object of
    ``table`` returns one ``SUM(CASE WHEN <group> THEN expr ELSE 0 END)``
    per (group, alias) over its rows matching ``where``; the driver adds
    the partials up. The requests form phase ``s3-aggregate``, whose
    ``case_columns`` is #groups x #aliases; ``phase_kw`` land on it too
    (``parallel_group``). Returns one row per group, in ``groups`` order:
    the group columns, then one float column per alias.
    """
    def literal(v) -> str:
        return f"'{v}'" if isinstance(v, str) else str(int(v))

    items = []
    for gi, values in enumerate(groups):
        cond = " AND ".join(
            f"{c} = {literal(v)}" for c, v in zip(group_cols, values)
        )
        items += [
            f"SUM(CASE WHEN {cond} THEN {expr} ELSE 0 END) AS {alias}_{gi}"
            for alias, expr in sums.items()
        ]
    sql = "SELECT " + ", ".join(items) + " FROM S3Object"
    if where:
        sql += f" WHERE {where}"
    with runner.phase(
        "s3-aggregate", n_objects=len(table.keys),
        case_columns=len(groups) * len(sums), **phase_kw,
    ):
        partials = select_results(runner.store, table.keys, sql)
    # Each column's partials, NULL as 0, added as pandas adds a column.
    names = list(partials[0].columns)
    cells = np.array([[r.columns[c] for r in partials] for c in names], dtype=float)
    total = dict(zip(names, np.where(np.isnan(cells), 0.0, cells).sum(axis=1)))
    return pd.DataFrame(
        [
            {**dict(zip(group_cols, values)),
             **{alias: float(total[f"{alias}_{gi}"]) for alias in sums}}
            for gi, values in enumerate(groups)
        ],
        columns=[*group_cols, *sums],
    )


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
    out = case_aggregate(
        runner, table, [group_col], [(g,) for g in groups],
        {f"sum_{v}": f"CAST({v} AS FLOAT)" for v in value_cols},
    )
    return runner.finish(f"s3-side group-by[{group_col}]", out)


def hybrid_groupby(
    spark,
    runner: Runner,
    table: StoredTable,
    group_col: str,
    value_cols: list,
    n_pushed: int = DEFAULT_PUSHED_GROUPS,
) -> QueryResult:
    """Populous groups aggregate in S3; the tail aggregates on the driver."""
    # Phase 1: sample the first 1% of each object (rows are randomly
    # ordered by construction, so a prefix is a uniform sample).
    per_object = max(1, math.ceil(table.n_rows * SAMPLE_FRACTION / len(table.keys)))
    sample = runner.scan("sample", table, [group_col], limit=per_object, rows=None)
    counts = sample[group_col].value_counts()
    pushed = sorted(int(g) for g in counts.head(n_pushed).index)

    # Phase 2, concurrently: Q1 pushes CASE sums for the large groups,
    # Q2 ships the remaining rows for server-side aggregation.
    results = []
    where = None
    if pushed:
        results.append(case_aggregate(
            runner, table, [group_col], [(g,) for g in pushed],
            {f"sum_{v}": f"CAST({v} AS FLOAT)" for v in value_cols},
            parallel_group="phase2",
        ))
        items = ", ".join(f"'{g}'" for g in pushed)
        where = f"{group_col} NOT IN ({items})"
    tail_pdf = runner.scan(
        "server-aggregate", table, [group_col] + value_cols, where,
        rows="agg_rows", parallel_group="phase2",
    )
    # SQL's GROUP BY: a NULL key is a group, and a SUM of NULLs is NULL.
    tail = tail_pdf.groupby(group_col, as_index=False, dropna=False).sum(
        min_count=1
    )
    tail.columns = [group_col] + [f"sum_{v}" for v in value_cols]
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
