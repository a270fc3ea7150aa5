"""TPC-H-lite query suite (paper SVIII, Figure 10).

For each query we provide:

* ``reference_sql(q)``        -- one SQL text executed verbatim by both
  Spark (baseline) and the DuckDB oracle, so optimized plans are checked
  for *result equality*, not just speed;
* ``run_baseline``            -- PushdownDB without S3 Select: full
  tables cross the network, Spark executes the whole query;
* ``run_optimized``           -- the paper's decompositions: filter and
  projection pushdown everywhere, full aggregate pushdown (Q6),
  CASE-encoded S3-side group-by (Q1), and Bloom-join pipelines
  (Q3/Q14/Q17/Q19), with the final exact joins/aggregates in Spark.
  Phases whose rows only the driver reads -- aggregates and Bloom build
  sides -- call S3 Select directly (``select_all``/``select_table``);
  the probe side that feeds Spark's join goes through the DataSource.

Queries are adapted to the TPC-H-lite schema (see DESIGN.md S7): the
selection constants are TPC-H's; text columns we do not generate are
omitted from projections.
"""
from __future__ import annotations

import pandas as pd
import pyspark.sql.functions as F

from repro.core.bloom import fit_fpr_to_limit
from repro.core.runner import QueryResult, Runner
from repro.core.tables import select_table
from repro.datasource.s3select import read_table
from repro.s3sim.select_engine import MAX_SQL_BYTES, select_all
from repro.schema import project_ddl

QUERIES = ("q1", "q3", "q6", "q14", "q17", "q19")

_FPR = 0.01
_SQL_BUDGET = MAX_SQL_BYTES - 1024

_REFERENCE_SQL = {
    "q1": """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
    """,
    "q3": """
        SELECT l_orderkey,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue,
               o_orderdate, o_shippriority
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < '1995-03-15'
          AND l_shipdate > '1995-03-15'
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, l_orderkey
        LIMIT 10
    """,
    "q6": """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    "q14": """
        SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'
    """,
    "q17": """
        SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND p_brand = 'Brand#23'
          AND p_container = 'MED BOX'
          AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity)
                            FROM lineitem l2
                            WHERE l2.l_partkey = p_partkey)
    """,
    "q19": """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem, part
        WHERE (p_partkey = l_partkey AND p_brand = 'Brand#12'
               AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
               AND l_quantity >= 1 AND l_quantity <= 11
               AND p_size BETWEEN 1 AND 5
               AND l_shipmode IN ('AIR', 'REG AIR')
               AND l_shipinstruct = 'DELIVER IN PERSON')
           OR (p_partkey = l_partkey AND p_brand = 'Brand#23'
               AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
               AND l_quantity >= 10 AND l_quantity <= 20
               AND p_size BETWEEN 1 AND 10
               AND l_shipmode IN ('AIR', 'REG AIR')
               AND l_shipinstruct = 'DELIVER IN PERSON')
           OR (p_partkey = l_partkey AND p_brand = 'Brand#34'
               AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
               AND l_quantity >= 20 AND l_quantity <= 30
               AND p_size BETWEEN 1 AND 15
               AND l_shipmode IN ('AIR', 'REG AIR')
               AND l_shipinstruct = 'DELIVER IN PERSON')
    """,
}

_NEEDED_TABLES = {
    "q1": ("lineitem",),
    "q3": ("customer", "orders", "lineitem"),
    "q6": ("lineitem",),
    "q14": ("lineitem", "part"),
    "q17": ("lineitem", "part"),
    "q19": ("lineitem", "part"),
}


def reference_sql(q: str) -> str:
    """The query text run by both the baseline plan and the oracle."""
    return _REFERENCE_SQL[q]


def needed_tables(q: str) -> tuple:
    return _NEEDED_TABLES[q]


# -- baseline: full loads, Spark executes the reference SQL ---------------

def run_baseline(spark, runner: Runner, tables: dict, q: str) -> QueryResult:
    """PushdownDB without S3 Select: ship everything, compute locally."""
    names = _NEEDED_TABLES[q]
    with runner.phase(
        "load", n_objects=sum(len(tables[n].keys) for n in names)
    ) as p:
        p.hash_rows = sum(tables[n].n_rows for n in names)
        for n in names:
            pdf = read_table(spark, runner.store.root, n, pushdown=False).toPandas()
            spark.createDataFrame(pdf).createOrReplaceTempView(n)
    with runner.phase("compute") as p:
        p.hash_rows = sum(tables[n].n_rows for n in names)
        out = spark.sql(_REFERENCE_SQL[q]).toPandas()
    return runner.finish(f"{q} baseline", out)


# -- optimized plans ------------------------------------------------------

def _bloom_or_none(keys, column: str, seed: int = 0):
    if len(keys) == 0:
        return None
    return fit_fpr_to_limit(keys, _FPR, column, _SQL_BUDGET, seed=seed)


def _opt_q1(spark, runner: Runner, tables: dict) -> QueryResult:
    """S3-side group-by over (returnflag, linestatus) via CASE sums."""
    li = tables["lineitem"]
    date = "'1998-09-02'"
    # Group values come from catalog statistics: l_returnflag and
    # l_linestatus are tiny fixed domains, so the generic s3-side
    # group-by's discovery scan (phase 1 in SVI-A, exercised by
    # groupby_ops) is unnecessary here -- the paper assumes "a database
    # can use various statistics of the underlying data" (SVIII).
    combos = sorted(
        set(zip(li.pdf["l_returnflag"], li.pdf["l_linestatus"]))
    )

    sums = {
        "sum_qty": "CAST(l_quantity AS FLOAT)",
        "sum_base_price": "CAST(l_extendedprice AS FLOAT)",
        "sum_disc_price": (
            "CAST(l_extendedprice AS FLOAT) * (1 - CAST(l_discount AS FLOAT))"
        ),
        "sum_charge": (
            "CAST(l_extendedprice AS FLOAT) * (1 - CAST(l_discount AS FLOAT))"
            " * (1 + CAST(l_tax AS FLOAT))"
        ),
        "sum_disc": "CAST(l_discount AS FLOAT)",
        "count_order": "1",
    }
    items = []
    for gi, (rf, ls) in enumerate(combos):
        cond = f"l_returnflag = '{rf}' AND l_linestatus = '{ls}'"
        for name, expr in sums.items():
            items.append(
                f"SUM(CASE WHEN {cond} THEN {expr} ELSE 0 END) AS {name}_{gi}"
            )
    sql = (
        "SELECT " + ", ".join(items)
        + f" FROM S3Object WHERE l_shipdate <= {date}"
    )
    with runner.phase(
        "s3-aggregate",
        n_objects=len(li.keys),
        case_columns=len(combos) * len(sums),
    ):
        partials = select_all(runner.store, li.keys, sql)
    total = pd.concat(partials, ignore_index=True).astype(float).sum()
    rows = []
    for gi, (rf, ls) in enumerate(combos):
        cnt = total[f"count_order_{gi}"]
        if cnt == 0:
            continue
        rows.append(
            {
                "l_returnflag": rf,
                "l_linestatus": ls,
                "sum_qty": total[f"sum_qty_{gi}"],
                "sum_base_price": total[f"sum_base_price_{gi}"],
                "sum_disc_price": total[f"sum_disc_price_{gi}"],
                "sum_charge": total[f"sum_charge_{gi}"],
                "avg_qty": total[f"sum_qty_{gi}"] / cnt,
                "avg_price": total[f"sum_base_price_{gi}"] / cnt,
                "avg_disc": total[f"sum_disc_{gi}"] / cnt,
                "count_order": int(cnt),
            }
        )
    return runner.finish("q1 optimized", pd.DataFrame(rows))


def _opt_q3(spark, runner: Runner, tables: dict) -> QueryResult:
    """customer -> bloom -> orders -> bloom -> lineitem pipeline."""
    c, o, li = tables["customer"], tables["orders"], tables["lineitem"]
    with runner.phase("customer", n_objects=len(c.keys)) as p:
        c_pdf = select_table(
            runner.store, c, ["c_custkey", "c_mktsegment"],
            "c_mktsegment = 'BUILDING'",
        )
        p.hash_rows = len(c_pdf)
    bloom1 = _bloom_or_none(c_pdf["c_custkey"].to_numpy(), "o_custkey")

    with runner.phase(
        "orders", n_objects=len(o.keys),
        case_columns=0 if bloom1 is None else bloom1.k,
    ) as p:
        where = "o_orderdate < '1995-03-15'"
        if bloom1 is not None:
            where += " AND " + bloom1.to_predicate("o_custkey")
        o_pdf = select_table(
            runner.store, o,
            ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
            where,
        )
        p.hash_rows = len(o_pdf) + len(c_pdf)
    matched = o_pdf[o_pdf["o_custkey"].isin(set(c_pdf["c_custkey"]))]
    bloom2 = _bloom_or_none(matched["o_orderkey"].to_numpy(), "l_orderkey", seed=1)

    with runner.phase(
        "lineitem", n_objects=len(li.keys),
        case_columns=0 if bloom2 is None else bloom2.k,
    ) as p:
        where = "l_shipdate > '1995-03-15'"
        if bloom2 is not None:
            where += " AND " + bloom2.to_predicate("l_orderkey")
        li_df = read_table(
            spark, runner.store.root, "lineitem",
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
            where=where,
        )
        joined = li_df.join(
            spark.createDataFrame(
                matched[["o_orderkey", "o_orderdate", "o_shippriority"]]
            ),
            li_df.l_orderkey == F.col("o_orderkey"),
        )
        out = (
            joined.groupBy("l_orderkey", "o_orderdate", "o_shippriority")
            .agg(
                F.sum(
                    F.col("l_extendedprice") * (1 - F.col("l_discount"))
                ).alias("revenue")
            )
            .orderBy(F.desc("revenue"), F.asc("l_orderkey"))
            .limit(10)
            .toPandas()[["l_orderkey", "revenue", "o_orderdate", "o_shippriority"]]
        )
        p.hash_rows = len(matched)
    return runner.finish("q3 optimized", out)


def _opt_q6(spark, runner: Runner, tables: dict) -> QueryResult:
    """Full aggregate pushdown: each object returns one number."""
    li = tables["lineitem"]
    sql = (
        "SELECT SUM(CAST(l_extendedprice AS FLOAT) * CAST(l_discount AS FLOAT))"
        " AS revenue FROM S3Object"
        " WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'"
        " AND CAST(l_discount AS FLOAT) BETWEEN 0.05 AND 0.07"
        " AND CAST(l_quantity AS FLOAT) < 24"
    )
    with runner.phase("s3-aggregate", n_objects=len(li.keys)):
        partials = select_all(runner.store, li.keys, sql)
    vals = [
        float(p["revenue"].iloc[0])
        for p in partials
        if p["revenue"].iloc[0] is not None
    ]
    revenue = sum(vals) if vals else float("nan")
    return runner.finish("q6 optimized", pd.DataFrame({"revenue": [revenue]}))


def _opt_q14(spark, runner: Runner, tables: dict) -> QueryResult:
    """Date-filtered lineitem -> bloom -> part; CASE ratio in Spark."""
    li, pt = tables["lineitem"], tables["part"]
    with runner.phase("lineitem", n_objects=len(li.keys)) as p:
        li_pdf = select_table(
            runner.store, li,
            ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
            "l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'",
        )
        p.hash_rows = len(li_pdf)
    bloom = _bloom_or_none(li_pdf["l_partkey"].unique(), "p_partkey")

    with runner.phase(
        "part", n_objects=len(pt.keys),
        case_columns=0 if bloom is None else bloom.k,
    ) as p:
        pt_df = read_table(
            spark, runner.store.root, "part",
            columns=["p_partkey", "p_type"],
            where=None if bloom is None else bloom.to_predicate("p_partkey"),
        )
        li_df = spark.createDataFrame(li_pdf)
        joined = li_df.join(pt_df, li_df.l_partkey == pt_df.p_partkey)
        disc = F.col("l_extendedprice") * (1 - F.col("l_discount"))
        promo = F.when(F.col("p_type").startswith("PROMO"), disc).otherwise(0.0)
        out = joined.agg(
            (100.0 * F.sum(promo) / F.sum(disc)).alias("promo_revenue")
        ).toPandas()
        p.hash_rows = len(li_pdf)
    return runner.finish("q14 optimized", out)


def _opt_q17(spark, runner: Runner, tables: dict) -> QueryResult:
    """Filtered part -> bloom -> lineitem; correlated AVG in Spark."""
    li, pt = tables["lineitem"], tables["part"]
    with runner.phase("part", n_objects=len(pt.keys)) as p:
        pt_pdf = select_table(
            runner.store, pt, ["p_partkey", "p_brand", "p_container"],
            "p_brand = 'Brand#23' AND p_container = 'MED BOX'",
        )
        p.hash_rows = len(pt_pdf)
    bloom = _bloom_or_none(pt_pdf["p_partkey"].to_numpy(), "l_partkey")

    with runner.phase(
        "lineitem", n_objects=len(li.keys),
        case_columns=0 if bloom is None else bloom.k,
    ) as p:
        li_df = read_table(
            spark, runner.store.root, "lineitem",
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
            where=None if bloom is None else bloom.to_predicate("l_partkey"),
        )
        # Exact join removes Bloom false positives; every true part keeps
        # *all* its lineitem rows (no false negatives), so the per-part
        # AVG equals the correlated subquery's.
        # The explicit schema admits an empty build side (Spark cannot
        # infer a schema from no rows); the answer is then NULL.
        joined = li_df.join(
            spark.createDataFrame(
                pt_pdf[["p_partkey"]],
                schema=project_ddl(pt.schema_ddl, ["p_partkey"]),
            ),
            li_df.l_partkey == F.col("p_partkey"),
        )
        avg = joined.groupBy("p_partkey").agg(
            (0.2 * F.avg("l_quantity")).alias("qty_limit")
        )
        out = (
            joined.join(avg, "p_partkey")
            .filter(F.col("l_quantity") < F.col("qty_limit"))
            .agg((F.sum("l_extendedprice") / 7.0).alias("avg_yearly"))
            .toPandas()
        )
        p.hash_rows = li.n_rows // max(1, pt.n_rows // max(1, len(pt_pdf)))
    return runner.finish("q17 optimized", out)


def _opt_q19(spark, runner: Runner, tables: dict) -> QueryResult:
    """Union-bound pushdown on both sides -> bloom join -> exact OR."""
    li, pt = tables["lineitem"], tables["part"]
    li_where = (
        "l_shipmode IN ('AIR', 'REG AIR')"
        " AND l_shipinstruct = 'DELIVER IN PERSON'"
        " AND CAST(l_quantity AS FLOAT) >= 1"
        " AND CAST(l_quantity AS FLOAT) <= 30"
    )
    with runner.phase("lineitem", n_objects=len(li.keys)) as p:
        li_pdf = select_table(
            runner.store, li,
            [
                "l_partkey", "l_quantity", "l_extendedprice", "l_discount",
                "l_shipmode", "l_shipinstruct",
            ],
            li_where,
        )
        p.hash_rows = len(li_pdf)
    bloom = _bloom_or_none(li_pdf["l_partkey"].unique(), "p_partkey")

    pt_where = (
        "CAST(p_size AS FLOAT) >= 1 AND CAST(p_size AS FLOAT) <= 15"
        " AND p_brand IN ('Brand#12', 'Brand#23', 'Brand#34')"
    )
    if bloom is not None:
        pt_where += " AND " + bloom.to_predicate("p_partkey")
    with runner.phase(
        "part", n_objects=len(pt.keys),
        case_columns=0 if bloom is None else bloom.k,
    ) as p:
        pt_df = read_table(
            spark, runner.store.root, "part",
            columns=["p_partkey", "p_brand", "p_size", "p_container"],
            where=pt_where,
        )
        li_df = spark.createDataFrame(li_pdf)
        joined = li_df.join(pt_df, li_df.l_partkey == pt_df.p_partkey)
        branch = (
            "(p_brand = 'Brand#12'"
            " AND p_container IN ('SM CASE','SM BOX','SM PACK','SM PKG')"
            " AND l_quantity >= 1 AND l_quantity <= 11"
            " AND p_size BETWEEN 1 AND 5)"
            " OR (p_brand = 'Brand#23'"
            " AND p_container IN ('MED BAG','MED BOX','MED PKG','MED PACK')"
            " AND l_quantity >= 10 AND l_quantity <= 20"
            " AND p_size BETWEEN 1 AND 10)"
            " OR (p_brand = 'Brand#34'"
            " AND p_container IN ('LG CASE','LG BOX','LG PACK','LG PKG')"
            " AND l_quantity >= 20 AND l_quantity <= 30"
            " AND p_size BETWEEN 1 AND 15)"
        )
        res = joined.filter(branch).agg(
            F.sum(F.col("l_extendedprice") * (1 - F.col("l_discount"))).alias(
                "revenue"
            )
        ).toPandas()
        p.hash_rows = len(li_pdf)
    return runner.finish("q19 optimized", res)


_OPTIMIZED = {
    "q1": _opt_q1,
    "q3": _opt_q3,
    "q6": _opt_q6,
    "q14": _opt_q14,
    "q17": _opt_q17,
    "q19": _opt_q19,
}


def run_optimized(spark, runner: Runner, tables: dict, q: str) -> QueryResult:
    """The S3-Select-accelerated plan for query ``q``."""
    return _OPTIMIZED[q](spark, runner, tables)
