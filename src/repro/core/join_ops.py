"""Join algorithms (paper SV, Figures 2-4).

The evaluation query is Listing 2::

    SELECT SUM(O_TOTALPRICE)
    FROM CUSTOMER, ORDERS
    WHERE O_CUSTKEY = C_CUSTKEY
      AND C_ACCTBAL <= :upper_c_acctbal
      AND O_ORDERDATE < :upper_o_orderdate    -- None = no predicate

* ``baseline_join``  -- both tables fully loaded, hash join on the server.
* ``filtered_join``  -- selections/projections pushed via S3 Select,
  join on the server; both scans can overlap (one phase).
* ``bloom_join``     -- build side loaded with pushdown, straight into the
  driver (``select_table``: it only feeds the filter); a Bloom filter
  over the build keys is rendered into the probe scan's S3 Select WHERE
  clause as a 0/1-string SUBSTRING predicate. If the predicate cannot
  fit S3's 256 KB SQL limit even after degrading the FPR, the algorithm
  falls back to a *serial* filtered join (build already happened), as
  described in SV-B.1.

The final hash join runs in Spark (Catalyst) on the reduced inputs, so
Bloom false positives are eliminated and results stay exact.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyspark.sql.functions as F

from repro.core.bloom import fit_fpr_to_limit
from repro.core.runner import QueryResult, Runner
from repro.core.tables import StoredTable, select_table
from repro.datasource.s3select import read_table
from repro.s3sim.select_engine import MAX_SQL_BYTES

# Headroom for the non-predicate part of the probe-side SQL text.
_SQL_OVERHEAD = 1024

_BUILD_COLS = ["c_custkey", "c_acctbal"]
_PROBE_COLS = ["o_custkey", "o_totalprice", "o_orderdate"]


def _result(joined) -> object:
    """SUM(o_totalprice) with a stable output alias."""
    return joined.agg(F.sum("o_totalprice").alias("total"))


def _date_pred(upper_o_orderdate: str | None) -> str | None:
    if upper_o_orderdate is None:
        return None
    return f"o_orderdate < '{upper_o_orderdate}'"


def _probe_rows(
    orders: StoredTable, upper_o_orderdate: str | None, keys=None, bloom=None
) -> int:
    """Exact count of probe rows reaching the server (model input)."""
    mask = np.ones(orders.n_rows, dtype=bool)
    if upper_o_orderdate is not None:
        mask &= (orders.pdf["o_orderdate"] < upper_o_orderdate).to_numpy()
    if bloom is not None:
        mask &= bloom.might_contain(orders.pdf["o_custkey"].to_numpy())
    return int(mask.sum())


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
        out = _result(o.join(c, o.o_custkey == c.c_custkey)).toPandas()
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
        build_rows = int((customer.pdf["c_acctbal"] <= upper_c_acctbal).sum())
        p.hash_rows = build_rows + _probe_rows(orders, upper_o_orderdate)
        c = read_table(
            spark, runner.store.root, customer.name, columns=_BUILD_COLS
        ).filter(F.col("c_acctbal") <= upper_c_acctbal)
        o = read_table(spark, runner.store.root, orders.name, columns=_PROBE_COLS)
        pred = _date_pred(upper_o_orderdate)
        if pred:
            o = o.filter(pred)
        out = _result(o.join(c, o.o_custkey == c.c_custkey)).toPandas()
    return runner.finish("filtered join", out)


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
    with runner.phase("build", n_objects=len(customer.keys)) as p:
        c_pdf = select_table(
            runner.store, customer, _BUILD_COLS,
            f"CAST(c_acctbal AS FLOAT) <= {float(upper_c_acctbal)!r}",
        )
        p.hash_rows = len(c_pdf)
    build_keys = c_pdf["c_custkey"].to_numpy()

    bloom = (
        fit_fpr_to_limit(
            build_keys, fpr, "o_custkey", MAX_SQL_BYTES - _SQL_OVERHEAD, seed=seed
        )
        if len(build_keys)
        else None
    )
    pred = _date_pred(upper_o_orderdate)
    degraded = bloom is None and len(build_keys) > 0

    # Probe phase: scan orders with the Bloom predicate inside S3 Select
    # (or, degraded, a plain filtered scan -- now serial after build).
    phase_name = "probe-degraded" if degraded else "probe"
    with runner.phase(phase_name, n_objects=len(orders.keys)) as p:
        p.case_columns = 0 if bloom is None else bloom.k  # SUBSTRING evals/row
        p.hash_rows = _probe_rows(orders, upper_o_orderdate, bloom=bloom)
        if len(build_keys) == 0:
            # SUM over an empty join is SQL NULL (NaN in a float frame).
            out = pd.DataFrame({"total": [float("nan")]})
        else:
            o = read_table(
                spark,
                runner.store.root,
                orders.name,
                columns=_PROBE_COLS,
                where=None if bloom is None else bloom.to_predicate("o_custkey"),
            )
            if pred:
                o = o.filter(pred)
            c = spark.createDataFrame(c_pdf)
            out = _result(o.join(c, o.o_custkey == c.c_custkey)).toPandas()
    name = "bloom join (degraded)" if degraded else f"bloom join fpr={fpr}"
    return runner.finish(name, out)
