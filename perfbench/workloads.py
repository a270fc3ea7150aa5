"""The benchmark's workloads: seeded inputs, fixed query lists, result checks.

Inputs come from the ``repro.synth_data`` generators at seeds derived from
the benchmark's ``--seed`` and are landed with ``tables.write_table``; the
program sees only the landed tables. Every result is checked: TPC-H-lite
queries against DuckDB running the reference SQL over the tables' pandas
copies, operators against the same answer computed with pandas.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import duckdb
import numpy as np
import pandas as pd

from repro import synth_data
from repro.core import filter_ops, groupby_ops, tables, topk_ops, tpch
from repro.datasource import s3select

TPCH_SF = 0.005
OBJECTS_PER_TABLE = 4
TPCH_QUERIES = ("q1", "q3", "q6", "q14")
# synth_data's default seed per generator; a benchmark seed n uses
# default + SEED_STRIDE * n, so each table keeps its own stream.
SEED_STRIDE = 1000
_DEFAULT_SEEDS = {
    "lineitem": 0, "orders": 1, "customer": 2, "part": 5,
    "filter_table": 10, "groups_table": 11, "wide_table": 12,
}

# The operators workload (sizes scaled from the paper's figures).
FILTER_ROWS = 100_000
GROUP_ROWS = 20_000
WIDE_ROWS = 20_000
WIDE_COLS = 20
TOPK = 100
VALUE_COLS = ["v1", "v2", "v3", "v4"]


class _PandasOnly:
    """Stands in for a SparkSession so generators return their pandas frame.

    ``spark.createDataFrame(pdf).toPandas()`` would hand back the same
    rows after a trip through the JVM.
    """

    class _Frame:
        def __init__(self, pdf):
            self._pdf = pdf

        def toPandas(self):  # noqa: N802 (pyspark API name)
            return self._pdf

    def createDataFrame(self, pdf):  # noqa: N802 (pyspark API name)
        return self._Frame(pdf)


def generate(name: str, seed: int, **kwargs) -> pd.DataFrame:
    gen = getattr(synth_data, name)
    seed = _DEFAULT_SEEDS[name] + SEED_STRIDE * seed
    return gen(_PandasOnly(), seed=seed, **kwargs).toPandas()


@dataclass
class Step:
    """One query of a workload's pass."""

    name: str                                 # metric ``<name>_s``
    run: Callable                             # (spark, runner) -> QueryResult
    check: Callable[[pd.DataFrame], str | None]  # error text, or None if right


@dataclass
class Workload:
    name: str
    land: Callable  # (store, seed) -> dict of StoredTable
    steps: Callable  # (tables) -> list[Step]
    scale: dict      # recorded with every result


# -- result checks ------------------------------------------------------------

def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def frames_match(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None when ``got`` equals ``expected`` up to row/column order."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    try:
        pd.testing.assert_frame_equal(
            _canon(got), _canon(expected), check_dtype=False
        )
    except AssertionError as e:
        return " ".join(str(e).split())[:300]
    return None


def _oracle_check(q: str, stored: dict) -> Callable:
    con = duckdb.connect()
    try:
        for n in tpch.needed_tables(q):
            con.register(n, stored[n].pdf)
        expected = con.execute(tpch.reference_sql(q)).fetchdf()
    finally:
        con.close()
    return lambda got: frames_match(got, expected)


def _column_check(column: str, expected: pd.Series) -> Callable:
    """Check one column as a multiset (ties may pick different rows)."""
    want = pd.DataFrame({column: np.sort(expected.to_numpy())})

    def check(got: pd.DataFrame) -> str | None:
        if column not in got.columns:
            return f"no column {column!r} in {sorted(got.columns)}"
        return frames_match(
            pd.DataFrame({column: np.sort(got[column].astype(float).to_numpy())}),
            want,
        )

    return check


# -- TPC-H-lite -----------------------------------------------------------

def _tpch_tables() -> list[str]:
    return sorted({n for q in TPCH_QUERIES for n in tpch.needed_tables(q)})


def _land_tpch(store, seed: int) -> dict:
    return {
        n: tables.write_table(
            store, n, generate(n, seed, sf=TPCH_SF),
            n_partitions=OBJECTS_PER_TABLE,
        )
        for n in _tpch_tables()
    }


def _tpch_steps(plan: Callable) -> Callable:
    def steps(stored: dict) -> list[Step]:
        return [
            Step(q, lambda spark, runner, q=q: plan(spark, runner, stored, q),
                 _oracle_check(q, stored))
            for q in TPCH_QUERIES
        ]

    return steps


# -- operators --------------------------------------------------------------

def _land_operators(store, seed: int) -> dict:
    n = OBJECTS_PER_TABLE
    return {
        "lineitem": tables.write_table(
            store, "lineitem", generate("lineitem", seed, sf=TPCH_SF), n_partitions=n
        ),
        "filter_table": tables.write_table(
            store, "filter_table", generate("filter_table", seed, n=FILTER_ROWS),
            n_partitions=n, index_columns=("u",),
        ),
        "groups_table": tables.write_table(
            store, "groups_table",
            generate("groups_table", seed, n=GROUP_ROWS, kind="zipf", theta=1.1),
            n_partitions=n,
        ),
        "wide_table": tables.write_table(
            store, "wide_table",
            generate("wide_table", seed, n=WIDE_ROWS, n_cols=WIDE_COLS),
            n_partitions=n, parquet=True,
        ),
    }


def parquet_filter(spark, runner, table):
    """S3-side filter on a Parquet table returning the single column c1."""
    with runner.phase("s3-filter", n_objects=len(table.parquet_keys)) as p:
        out = (
            s3select.read_table(
                spark, runner.store.root, table.name, columns=["c1"], fmt="parquet"
            )
            .filter("c1 < 0.01")
            .toPandas()
        )
        p.hash_rows = len(out)
    return runner.finish("parquet filter[c1 < 0.01]", out)


def _operator_steps(stored: dict) -> list[Step]:
    ft, gt = stored["filter_table"], stored["groups_table"]
    li, wt = stored["lineitem"], stored["wide_table"]
    hits = ft.pdf[ft.pdf["u"] < 0.01]
    sums = (
        gt.pdf.groupby("g1")[VALUE_COLS].sum()
        .rename(columns=lambda v: f"sum_{v}").reset_index()
    )
    return [
        Step("index_filter",
             lambda spark, r: filter_ops.s3_index_filter(spark, r, ft, "u", "<", 0.01),
             lambda got: frames_match(got, hits)),
        Step("hybrid_groupby",
             lambda spark, r: groupby_ops.hybrid_groupby(spark, r, gt, "g1", VALUE_COLS),
             lambda got: frames_match(got, sums)),
        Step("sampling_topk",
             lambda spark, r: topk_ops.sampling_topk(spark, r, li, "l_extendedprice", TOPK),
             _column_check("l_extendedprice",
                           li.pdf["l_extendedprice"].nsmallest(TOPK))),
        Step("parquet_filter",
             lambda spark, r: parquet_filter(spark, r, wt),
             _column_check("c1", wt.pdf["c1"][wt.pdf["c1"] < 0.01])),
    ]


WORKLOADS = {
    "tpch-optimized": Workload(
        "tpch-optimized",
        _land_tpch, _tpch_steps(tpch.run_optimized),
        {"sf": TPCH_SF, "objects_per_table": OBJECTS_PER_TABLE,
         "queries": list(TPCH_QUERIES)},
    ),
    "tpch-baseline": Workload(
        "tpch-baseline",
        _land_tpch, _tpch_steps(tpch.run_baseline),
        {"sf": TPCH_SF, "objects_per_table": OBJECTS_PER_TABLE,
         "queries": list(TPCH_QUERIES)},
    ),
    "operators": Workload(
        "operators",
        _land_operators, _operator_steps,
        {"sf": TPCH_SF, "objects_per_table": OBJECTS_PER_TABLE,
         "filter_rows": FILTER_ROWS, "group_rows": GROUP_ROWS,
         "wide_rows": WIDE_ROWS, "wide_cols": WIDE_COLS, "topk": TOPK},
    ),
}
