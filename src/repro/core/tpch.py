"""TPC-H-lite query suite (paper SVIII, Figure 10).

For each query we provide:

* ``reference_sql(q)``        -- one SQL text executed verbatim by both
  Spark (baseline) and the DuckDB oracle, so optimized plans are checked
  for *result equality*, not just speed;
* ``run_baseline``            -- PushdownDB without S3 Select: full
  tables cross the network, Spark executes the whole query;
* ``run_optimized``           -- the paper's decompositions, built from
  the operators of Figs 2-7: filter and projection pushdown everywhere,
  full aggregate pushdown (Q6), the CASE-encoded S3-side group-by
  (Q1: ``groupby_ops.case_aggregate``), and Bloom-join pipelines
  (Q3/Q14/Q17/Q19: each probe is ``join_ops.bloom_probe``). Every
  request is sent by the driver (``select_results``, ``Runner.scan`` or
  ``bloom_probe``), and the final exact joins and aggregates run in
  pandas on the frames those return, with SQL's semantics (a SUM over
  no rows is NULL). Only the baseline reads through the ``s3select``
  DataSource and runs in Spark.

Queries are adapted to the TPC-H-lite schema (see DESIGN.md S7): the
selection constants are TPC-H's; text columns we do not generate are
omitted from projections.
"""
from __future__ import annotations

import itertools

import pandas as pd

from repro.core.groupby_ops import case_aggregate
from repro.core.join_ops import bloom_probe
from repro.core.runner import QueryResult, Runner
from repro.datasource.s3select import read_table
from repro.s3sim.select_engine import select_results

QUERIES = ("q1", "q3", "q6", "q14", "q17", "q19")

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
            # Eager: each table is read once, here, however often the
            # query references it.
            read_table(
                spark, runner.store.root, n, pushdown=False
            ).localCheckpoint().createOrReplaceTempView(n)
    with runner.phase("compute") as p:
        p.hash_rows = sum(tables[n].n_rows for n in names)
        out = spark.sql(_REFERENCE_SQL[q]).toPandas()
    return runner.finish(f"{q} baseline", out)


# -- optimized plans ------------------------------------------------------

def _opt_q1(spark, runner: Runner, tables: dict) -> QueryResult:
    """S3-side group-by over (returnflag, linestatus) via CASE sums."""
    li = tables["lineitem"]
    # Group values come from catalog statistics: l_returnflag and
    # l_linestatus have tiny domains, listed in the table's manifest, so
    # the generic s3-side group-by's discovery scan (phase 1 in SVI-A,
    # exercised by groupby_ops) is unnecessary here -- the paper assumes
    # "a database can use various statistics of the underlying data"
    # (SVIII). A pair that never occurs sums to an empty group, dropped
    # below.
    combos = list(itertools.product(
        li.domains["l_returnflag"], li.domains["l_linestatus"]
    ))

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
    agg = case_aggregate(
        runner, li, ["l_returnflag", "l_linestatus"], combos, sums,
        "l_shipdate <= '1998-09-02'",
    )
    agg = agg[agg["count_order"] > 0].reset_index(drop=True)
    for avg, total in (
        ("avg_qty", "sum_qty"), ("avg_price", "sum_base_price"),
        ("avg_disc", "sum_disc"),
    ):
        agg[avg] = agg[total] / agg["count_order"]
    agg["count_order"] = agg.pop("count_order").astype("int64")  # last column
    return runner.finish("q1 optimized", agg.drop(columns="sum_disc"))


def _opt_q3(spark, runner: Runner, tables: dict) -> QueryResult:
    """customer -> bloom -> orders -> bloom -> lineitem pipeline."""
    c, o, li = tables["customer"], tables["orders"], tables["lineitem"]
    c_pdf = runner.scan(
        "customer", c, ["c_custkey", "c_mktsegment"], "c_mktsegment = 'BUILDING'"
    )
    o_pdf = bloom_probe(
        runner, "orders", c_pdf["c_custkey"], o,
        ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        "o_orderdate < '1995-03-15'", "o_custkey",
    )
    matched = o_pdf[o_pdf["o_custkey"].isin(set(c_pdf["c_custkey"]))]
    li_pdf = bloom_probe(
        runner, "lineitem", matched["o_orderkey"], li,
        ["l_orderkey", "l_extendedprice", "l_discount"],
        "l_shipdate > '1995-03-15'", "l_orderkey", seed=1,
    )
    joined = li_pdf.merge(
        matched[["o_orderkey", "o_orderdate", "o_shippriority"]],
        left_on="l_orderkey", right_on="o_orderkey",
    )
    joined["revenue"] = joined["l_extendedprice"] * (1 - joined["l_discount"])
    out = (
        joined.groupby(
            ["l_orderkey", "o_orderdate", "o_shippriority"],
            as_index=False, dropna=False,
        )["revenue"].sum(min_count=1)
        .sort_values(["revenue", "l_orderkey"], ascending=[False, True])
        .head(10)[["l_orderkey", "revenue", "o_orderdate", "o_shippriority"]]
        .reset_index(drop=True)
    )
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
        partials = select_results(runner.store, li.keys, sql)
    vals = [
        float(p.columns["revenue"])
        for p in partials
        if p.columns["revenue"] is not None
    ]
    revenue = sum(vals) if vals else float("nan")
    return runner.finish("q6 optimized", pd.DataFrame({"revenue": [revenue]}))


def _opt_q14(spark, runner: Runner, tables: dict) -> QueryResult:
    """Date-filtered lineitem -> bloom -> part; CASE ratio on the driver."""
    li, pt = tables["lineitem"], tables["part"]
    li_pdf = runner.scan(
        "lineitem", li,
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        "l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'",
    )
    pt_pdf = bloom_probe(
        runner, "part", li_pdf["l_partkey"], pt, ["p_partkey", "p_type"],
        None, "p_partkey",
    )
    joined = li_pdf.merge(pt_pdf, left_on="l_partkey", right_on="p_partkey")
    disc = joined["l_extendedprice"] * (1 - joined["l_discount"])
    promo = disc.where(joined["p_type"].str.startswith("PROMO", na=False), 0.0)
    ratio = 100.0 * promo.sum(min_count=1) / disc.sum(min_count=1)
    return runner.finish("q14 optimized", pd.DataFrame({"promo_revenue": [ratio]}))


def _opt_q17(spark, runner: Runner, tables: dict) -> QueryResult:
    """Filtered part -> bloom -> lineitem; correlated AVG on the driver."""
    li, pt = tables["lineitem"], tables["part"]
    pt_pdf = runner.scan(
        "part", pt, ["p_partkey", "p_brand", "p_container"],
        "p_brand = 'Brand#23' AND p_container = 'MED BOX'",
    )
    li_pdf = bloom_probe(
        runner, "lineitem", pt_pdf["p_partkey"], li,
        ["l_partkey", "l_quantity", "l_extendedprice"], None, "l_partkey",
    )
    # Exact join removes Bloom false positives; every true part keeps
    # *all* its lineitem rows (no false negatives), so the per-part
    # AVG equals the correlated subquery's. An empty build side
    # gives a NULL answer.
    joined = li_pdf.merge(
        pt_pdf[["p_partkey"]], left_on="l_partkey", right_on="p_partkey"
    )
    qty_limit = 0.2 * joined.groupby("p_partkey")["l_quantity"].transform("mean")
    total = joined.loc[
        joined["l_quantity"] < qty_limit, "l_extendedprice"
    ].sum(min_count=1)
    return runner.finish(
        "q17 optimized", pd.DataFrame({"avg_yearly": [total / 7.0]})
    )


def _opt_q19(spark, runner: Runner, tables: dict) -> QueryResult:
    """Union-bound pushdown on both sides -> bloom join -> exact OR."""
    li, pt = tables["lineitem"], tables["part"]
    li_where = (
        "l_shipmode IN ('AIR', 'REG AIR')"
        " AND l_shipinstruct = 'DELIVER IN PERSON'"
        " AND CAST(l_quantity AS FLOAT) >= 1"
        " AND CAST(l_quantity AS FLOAT) <= 30"
    )
    li_pdf = runner.scan(
        "lineitem", li,
        [
            "l_partkey", "l_quantity", "l_extendedprice", "l_discount",
            "l_shipmode", "l_shipinstruct",
        ],
        li_where,
    )
    pt_where = (
        "CAST(p_size AS FLOAT) >= 1 AND CAST(p_size AS FLOAT) <= 15"
        " AND p_brand IN ('Brand#12', 'Brand#23', 'Brand#34')"
    )
    pt_pdf = bloom_probe(
        runner, "part", li_pdf["l_partkey"], pt,
        ["p_partkey", "p_brand", "p_size", "p_container"], pt_where,
        "p_partkey",
    )
    j = li_pdf.merge(pt_pdf, left_on="l_partkey", right_on="p_partkey")

    # A NULL comparison is False here; with no NOT, a row still passes
    # exactly when the SQL predicate is TRUE.
    def branch(brand, containers, qty_lo, qty_hi, max_size):
        return (
            (j["p_brand"] == brand)
            & j["p_container"].isin(containers)
            & j["l_quantity"].between(qty_lo, qty_hi)
            & j["p_size"].between(1, max_size)
        )

    keep = (
        branch("Brand#12", ["SM CASE", "SM BOX", "SM PACK", "SM PKG"], 1, 11, 5)
        | branch("Brand#23", ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                 10, 20, 10)
        | branch("Brand#34", ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                 20, 30, 15)
    )
    revenue = (j["l_extendedprice"] * (1 - j["l_discount"]))[keep].sum(min_count=1)
    return runner.finish("q19 optimized", pd.DataFrame({"revenue": [revenue]}))


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
