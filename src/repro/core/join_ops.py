"""Join algorithms (paper SV, Figures 2-4), and the one Bloom probe.

The evaluation query is Listing 2::

    SELECT SUM(O_TOTALPRICE)
    FROM CUSTOMER, ORDERS
    WHERE O_CUSTKEY = C_CUSTKEY
      AND C_ACCTBAL <= :upper_c_acctbal
      AND O_ORDERDATE < :upper_o_orderdate    -- None = no predicate

* ``baseline_join``  -- both tables fully loaded, hash join on the server.
* ``filtered_join``  -- selections/projections pushed via S3 Select
  (``select_table``), join on the server; both scans overlap (one
  phase).
* ``bloom_join``     -- build side loaded with pushdown, straight into the
  driver (``Runner.scan``), then :func:`bloom_probe`.

:func:`bloom_probe` serves ``bloom_join`` and every Bloom probe of the
TPC-H plans (``core.tpch``: Q3's orders and lineitem, Q14's and Q19's
part, Q17's lineitem). A Bloom filter over the build keys is rendered
as a 0/1-string SUBSTRING predicate and ANDed with the probe side's own
predicate into one S3 Select WHERE clause, which the driver sends. If
the predicate cannot fit S3's 256 KB SQL limit even after degrading the
FPR, the probe scans with its own predicate alone, in a phase named
``<name>-degraded`` (the build already happened), as described in
SV-B.1.

``filtered_join`` and ``bloom_join`` finish with an exact hash join in
pandas on the frames the driver received (:func:`_total`), so Bloom
false positives are eliminated and results stay exact; only
``baseline_join`` runs in Spark. Every pushed-down phase's
``hash_rows`` is the number of rows it received.
"""
from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyspark.sql.functions as F

from repro.core.bloom import fit_fpr_to_limit
from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable, select_table
from repro.datasource.s3select import read_table
from repro.s3sim.select_engine import MAX_SQL_BYTES
from repro.schema import apply_schema

# Bytes of S3 Select's SQL limit a Bloom predicate may take: 1 KB is
# left for the rest of the probe's text.
_SQL_BUDGET = MAX_SQL_BYTES - 1024

_BUILD_COLS = ["c_custkey", "c_acctbal"]
_PROBE_COLS = ["o_custkey", "o_totalprice", "o_orderdate"]


def _total(c_pdf: pd.DataFrame, o_pdf: pd.DataFrame) -> pd.DataFrame:
    """SUM(o_totalprice) over the join; NULL (NaN) when no row joins."""
    joined = o_pdf.merge(c_pdf, left_on="o_custkey", right_on="c_custkey")
    return pd.DataFrame({"total": [joined["o_totalprice"].sum(min_count=1)]})


def _acctbal_pred(upper_c_acctbal: float) -> str:
    return f"CAST(c_acctbal AS FLOAT) <= {float(upper_c_acctbal)!r}"


def _date_pred(upper_o_orderdate: str | None) -> str | None:
    if upper_o_orderdate is None:
        return None
    return f"o_orderdate < '{upper_o_orderdate}'"


def baseline_join(
    spark,
    runner: Runner,
    customer: StoredTable,
    orders: StoredTable,
    upper_c_acctbal: float = -950,
    upper_o_orderdate: str | None = None,
) -> QueryResult:
    """No S3 Select: ship both tables, filter and join on the server."""
    with runner.phase(
        "load+join", n_objects=len(customer.keys) + len(orders.keys)
    ) as p:
        p.hash_rows = customer.n_rows + orders.n_rows
        c = read_table(spark, runner.store.root, customer.name, pushdown=False)
        o = read_table(spark, runner.store.root, orders.name, pushdown=False)
        c = c.filter(F.col("c_acctbal") <= upper_c_acctbal)
        pred = _date_pred(upper_o_orderdate)
        if pred:
            o = o.filter(pred)
        out = (
            o.join(c, o.o_custkey == c.c_custkey)
            .agg(F.sum("o_totalprice").alias("total"))
            .toPandas()
        )
    return runner.finish("baseline join", out)


def filtered_join(
    spark,
    runner: Runner,
    customer: StoredTable,
    orders: StoredTable,
    upper_c_acctbal: float = -950,
    upper_o_orderdate: str | None = None,
) -> QueryResult:
    """Selection + projection pushed to S3; hash join on the server."""
    with runner.phase(
        "filtered-load+join", n_objects=len(customer.keys) + len(orders.keys)
    ) as p:
        c_pdf = select_table(
            runner.store, customer, _BUILD_COLS, _acctbal_pred(upper_c_acctbal)
        )
        o_pdf = select_table(
            runner.store, orders, _PROBE_COLS, _date_pred(upper_o_orderdate)
        )
        p.hash_rows = len(c_pdf) + len(o_pdf)
    return runner.finish("filtered join", _total(c_pdf, o_pdf))


def bloom_probe(
    runner: Runner,
    name: str,
    build_keys,
    table: StoredTable,
    columns: list,
    where: str | None,
    key_column: str,
    *,
    fpr: float = 0.01,
    seed: int = 0,
) -> pd.DataFrame:
    """``columns`` of ``table``'s rows matching ``where`` whose ``key_column``
    passes a Bloom filter over ``build_keys``, fetched in phase ``name``.

    The phase's ``case_columns`` is the filter's k SUBSTRING tests per
    row, and its ``hash_rows`` the rows received. When no rate fits
    ``_SQL_BUDGET`` the phase is ``<name>-degraded`` and scans with
    ``where`` alone. An empty build side sends no request.
    """
    if len(build_keys) == 0:  # no row can match
        with runner.phase(name, n_objects=len(table.keys)):
            empty = pa.table({c: pa.array([], pa.string()) for c in columns})
            return apply_schema(empty, table.schema_ddl)
    bloom = fit_fpr_to_limit(build_keys, fpr, key_column, _SQL_BUDGET, seed=seed)
    if bloom is None:
        return runner.scan(f"{name}-degraded", table, columns, where)
    where = " AND ".join(w for w in (where, bloom.to_predicate(key_column)) if w)
    return runner.scan(name, table, columns, where, case_columns=bloom.k)


def bloom_join(
    spark,
    runner: Runner,
    customer: StoredTable,
    orders: StoredTable,
    upper_c_acctbal: float = -950,
    upper_o_orderdate: str | None = None,
    fpr: float = 0.01,
    seed: int = 0,
) -> QueryResult:
    """Bloom join: probe-side scan is pre-filtered inside S3 Select."""
    # Build phase: load the (filtered, projected) small table.
    c_pdf = runner.scan(
        "build", customer, _BUILD_COLS, _acctbal_pred(upper_c_acctbal)
    )
    o_pdf = bloom_probe(
        runner, "probe", c_pdf["c_custkey"], orders, _PROBE_COLS,
        _date_pred(upper_o_orderdate), "o_custkey", fpr=fpr, seed=seed,
    )
    degraded = runner.phases[-1].name == "probe-degraded"
    name = "bloom join (degraded)" if degraded else f"bloom join fpr={fpr}"
    return runner.finish(name, _total(c_pdf, o_pdf))
