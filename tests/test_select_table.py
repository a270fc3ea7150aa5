"""The driver's request path: ``select_all``, the typed ``select_table``
and ``Runner.scan``.

``select_table`` must hand the driver exactly what the Spark path
``read_table(..., columns=...).filter(pred).toPandas()`` would: the same
rows, column order and dtypes, and the same recorded S3 usage, for a
Bloom probe's WHERE too; and ``Runner.scan`` is that request as one
phase.
"""
import pandas as pd
import pyspark.sql.functions as F
import pytest

from repro.core.bloom import build_from_keys
from repro.core.runner import Runner
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


@pytest.mark.parametrize("where", [None, "CAST(l_quantity AS FLOAT) < 10"])
def test_select_table_limit_is_the_limit_sql(store, tpch, where):
    """``limit`` sends ``... LIMIT n`` per object, typed by the DDL."""
    li = tpch["lineitem"]
    got, got_usage = _usage_of(
        store, lambda: select_table(store, li, ["l_extendedprice"], where, limit=7)
    )
    sql = "SELECT l_extendedprice FROM S3Object"
    sql += f" WHERE {where} LIMIT 7" if where else " LIMIT 7"
    frames, want_usage = _usage_of(store, lambda: select_all(store, li.keys, sql))
    assert got_usage == want_usage
    assert got["l_extendedprice"].dtype == "float64"
    assert got["l_extendedprice"].tolist() == pd.concat(
        frames, ignore_index=True
    )["l_extendedprice"].astype(float).tolist()
    assert len(got) == 7 * len(li.keys)
    if where is None:  # the scan stops after the prefix it returns
        assert 0 < got_usage.bytes_scanned < li.total_bytes / 10
    else:
        assert got_usage.bytes_scanned == li.total_bytes


@pytest.mark.parametrize("rows", ["hash_rows", "agg_rows", "heap_rows", None])
def test_runner_scan_is_select_table_as_one_phase(store, tpch, rows):
    li, columns = tpch["lineitem"], ["l_orderkey", "l_shipdate"]
    where = "l_shipdate < '1993-01-01'"
    want, want_usage = _usage_of(
        store, lambda: select_table(store, li, columns, where)
    )
    runner = Runner(store)
    got = runner.scan(
        "s", li, columns, where, rows=rows, case_columns=3, parallel_group="g"
    )
    pd.testing.assert_frame_equal(got, want)
    [p] = runner.phases
    assert (p.name, p.n_objects, p.case_columns, p.parallel_group) == (
        "s", len(li.keys), 3, "g",
    )
    counts = {f: getattr(p, f) for f in ("hash_rows", "agg_rows", "heap_rows")}
    assert counts == {f: len(got) if f == rows else 0 for f in counts}
    assert 0 < len(got) < li.n_rows
    assert p.usage == want_usage
    assert runner.finish("q", got).usage == want_usage


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


def _spark_rows(df) -> pd.DataFrame:
    return _sorted(df.toPandas())


@pytest.mark.parametrize("empty", [False, True], ids=["bloom-probe", "empty"])
def test_bloom_probe_select_table_equals_datasource_read(
    spark, store, tpch, empty
):
    """A Bloom probe's ``select_table`` is what a DataSource scan returns.

    A Bloom probe's WHERE cannot be a Catalyst filter, so the DataSource
    side pushes ``o_custkey IN (<the keys the filter passes>)``: the same
    rows of the same objects, hence the same usage.
    """
    orders = tpch["orders"]
    cols = ["o_custkey", "o_totalprice", "o_orderdate"]
    bloom = build_from_keys(tpch["customer"].pdf["c_custkey"].to_numpy()[:50], 0.01)
    date = "1900-01-01" if empty else "1995-01-01"
    where = f"o_orderdate < '{date}' AND {bloom.to_predicate('o_custkey')}"
    passed = orders.pdf["o_custkey"][
        bloom.might_contain(orders.pdf["o_custkey"].to_numpy())
    ]
    got, got_usage = _usage_of(
        store, lambda: _sorted(select_table(store, orders, cols, where))
    )
    df = read_table(spark, store.root, "orders", columns=cols).filter(
        F.col("o_custkey").isin(sorted(set(passed.tolist())))
        & (F.col("o_orderdate") < date)
    )
    want, want_usage = _usage_of(store, lambda: _spark_rows(df))
    assert (len(got) == 0) == empty
    assert got.dtypes.to_dict() == want.dtypes.to_dict()
    pd.testing.assert_frame_equal(got, want)
    assert got_usage == want_usage


def test_null_in_numeric_columns_has_one_defined_result(spark, fresh_store):
    """Empty BIGINT and DOUBLE cells are NULL on every path.

    An empty BIGINT cell used to crash both paths, and an empty DOUBLE
    cell reached Spark as NaN, so ``v IS NULL`` matched it only when the
    filter was pushed down.
    """
    pdf = pd.DataFrame({
        "k": pd.array([1, None, 3, 4], dtype="Int64"),
        "v": [0.5, None, 2.5, None],
        "s": ["a", "b", "c", "d"],
    })
    t = write_table(fresh_store, "nullable", pdf, n_partitions=2)
    assert t.schema_ddl == "k BIGINT, v DOUBLE, s STRING"
    got = select_table(fresh_store, t, ["k", "v", "s"])
    assert got["k"].dtype == "float64"
    assert got["k"].isna().tolist() == [False, True, False, False]
    df = read_table(spark, fresh_store.root, "nullable", columns=["k", "v", "s"])
    pd.testing.assert_frame_equal(_sorted(got), _sorted(df.toPandas()))
    rows = {r["s"]: (r["k"], r["v"]) for r in df.collect()}
    assert rows == {"a": (1, 0.5), "b": (None, None), "c": (3, 2.5), "d": (4, None)}
    for pushdown in (True, False):
        scan = read_table(spark, fresh_store.root, "nullable", pushdown=pushdown)
        assert scan.filter("v IS NULL").count() == 2
        assert scan.filter("k IS NULL").count() == 1
