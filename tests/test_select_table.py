"""The driver's request path: ``select_all`` and the typed ``select_table``.

``select_table`` must hand the driver exactly what the Spark path
``read_table(..., columns=...).filter(pred).toPandas()`` would: the same
rows, column order and dtypes, and the same recorded S3 usage.
"""
import pandas as pd
import pytest

from repro.core.tables import select_table, write_table
from repro.datasource.s3select import read_table
from repro.s3sim import select_all

# (table, columns, S3 Select WHERE text, the same predicate for Spark)
CASES = [
    (
        "customer", ["c_custkey", "c_acctbal"],
        "CAST(c_acctbal AS FLOAT) <= -450.0", "c_acctbal <= -450",
    ),
    (
        "orders", ["o_orderdate", "o_orderkey", "o_totalprice", "o_shippriority"],
        "o_orderdate >= '1995-01-01' AND o_orderdate < '1995-03-01'",
        "o_orderdate >= '1995-01-01' AND o_orderdate < '1995-03-01'",
    ),
    (
        "part", ["p_partkey", "p_brand", "p_size"],
        "p_brand = 'Brand#23' AND CAST(p_size AS FLOAT) < 20",
        "p_brand = 'Brand#23' AND p_size < 20",
    ),
    (
        "customer", ["c_mktsegment", "c_acctbal", "c_custkey"],
        "c_mktsegment = 'NO SUCH SEGMENT'", "c_mktsegment = 'NO SUCH SEGMENT'",
    ),
]


def _usage_of(store, fn):
    pos = store.log.position()
    out = fn()
    return out, store.log.read_since(pos)


def _sorted(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


@pytest.mark.parametrize("table,columns,where,spark_pred", CASES)
def test_select_table_equals_spark_path(
    spark, store, tpch, table, columns, where, spark_pred
):
    got, got_usage = _usage_of(
        store, lambda: select_table(store, tpch[table], columns, where)
    )
    want, want_usage = _usage_of(
        store,
        lambda: read_table(spark, store.root, table, columns=columns)
        .filter(spark_pred)
        .toPandas(),
    )
    assert list(got.columns) == list(want.columns) == columns
    assert got.dtypes.to_dict() == want.dtypes.to_dict()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))
    assert got_usage == want_usage
    assert got_usage.select_requests == len(tpch[table].keys)


def test_select_table_without_where_returns_every_row(store, tpch):
    got = select_table(store, tpch["part"], ["p_partkey"])
    assert sorted(got["p_partkey"]) == sorted(tpch["part"].pdf["p_partkey"])


def test_select_table_no_match_is_typed_and_empty(store, tpch):
    got = select_table(
        store, tpch["customer"], ["c_custkey", "c_acctbal", "c_mktsegment"],
        "CAST(c_acctbal AS FLOAT) < -1000000",
    )
    assert len(got) == 0
    assert list(got.columns) == ["c_custkey", "c_acctbal", "c_mktsegment"]
    assert [str(t) for t in got.dtypes] == ["int64", "float64", "object"]


def test_select_all_one_frame_per_key_in_key_order(fresh_store):
    pdf = pd.DataFrame({"k": range(12), "s": [f"r{i}" for i in range(12)]})
    t = write_table(fresh_store, "t", pdf, n_partitions=3)
    keys = t.keys[::-1]
    pos = fresh_store.log.position()
    frames = select_all(fresh_store, keys, "SELECT k FROM S3Object")
    assert fresh_store.log.read_since(pos).select_requests == 3
    assert [f["k"].astype(int).tolist() for f in frames] == [
        list(range(8, 12)), list(range(4, 8)), list(range(0, 4)),
    ]
    assert select_all(fresh_store, [], "SELECT k FROM S3Object") == []
