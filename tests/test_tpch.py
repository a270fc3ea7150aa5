"""TPC-H suite tests: both plans must equal the DuckDB oracle (Fig 10)."""
import pytest

from repro.core import tpch
from repro.oracle import assert_equivalent
from tests.conftest import new_runner_for


def _oracle(spark, tpch_tables, q, result):
    kw = {n: tpch_tables[n].pdf for n in tpch.needed_tables(q)}
    assert_equivalent(
        spark.createDataFrame(result.df), tpch.reference_sql(q), **kw
    )


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_baseline_matches_oracle(spark, store, tpch_tables, q):
    r = tpch.run_baseline(spark, new_runner_for(store), tpch_tables, q)
    _oracle(spark, tpch_tables, q, r)


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_optimized_matches_oracle(spark, store, tpch_tables, q):
    r = tpch.run_optimized(spark, new_runner_for(store), tpch_tables, q)
    _oracle(spark, tpch_tables, q, r)


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_optimized_moves_fewer_bytes(spark, store, tpch_tables, q):
    base = tpch.run_baseline(spark, new_runner_for(store), tpch_tables, q)
    opt = tpch.run_optimized(spark, new_runner_for(store), tpch_tables, q)
    assert opt.usage.bytes_over_network < base.usage.bytes_over_network


def test_baseline_uses_plain_gets(spark, store, tpch_tables):
    r = tpch.run_baseline(spark, new_runner_for(store), tpch_tables, "q6")
    assert r.usage.select_requests == 0
    assert r.usage.get_requests == len(tpch_tables["lineitem"].keys)


def test_q6_full_aggregate_pushdown(spark, store, tpch_tables):
    """Q6's optimized plan returns one number per object."""
    r = tpch.run_optimized(spark, new_runner_for(store), tpch_tables, "q6")
    assert r.usage.select_requests == len(tpch_tables["lineitem"].keys)
    assert r.usage.bytes_returned < 1000


def test_q1_case_pushdown_returns_aggregates_only(spark, store, tpch_tables):
    r = tpch.run_optimized(spark, new_runner_for(store), tpch_tables, "q1")
    s3_phase = next(p for p in r.phases if p.name == "s3-aggregate")
    assert s3_phase.usage.bytes_returned < 50_000
    assert s3_phase.case_columns == 6 * 6  # 6 (rf,ls) combos x 6 sums


def test_q3_pipeline_has_three_phases(spark, store, tpch_tables):
    r = tpch.run_optimized(spark, new_runner_for(store), tpch_tables, "q3")
    assert [p.name for p in r.phases] == ["customer", "orders", "lineitem"]


def test_reference_sql_known_queries():
    assert set(tpch.QUERIES) == {"q1", "q3", "q6", "q14", "q17", "q19"}
    for q in tpch.QUERIES:
        assert "FROM" in tpch.reference_sql(q)
    with pytest.raises(KeyError):
        tpch.reference_sql("q99")


def test_q17_empty_bloom_build_side(spark, tpch_tables, fresh_store):
    """No Brand#23/MED BOX part: the plan returns DuckDB's NULL avg_yearly."""
    from repro.core.tables import write_table

    part = tpch_tables["part"].pdf
    part = part[
        ~((part["p_brand"] == "Brand#23") & (part["p_container"] == "MED BOX"))
    ]
    tables = {
        "lineitem": write_table(
            fresh_store, "lineitem", tpch_tables["lineitem"].pdf, n_partitions=4
        ),
        "part": write_table(fresh_store, "part", part, n_partitions=4),
    }
    r = tpch.run_optimized(spark, new_runner_for(fresh_store), tables, "q17")
    assert [p.name for p in r.phases] == ["part", "lineitem"]
    assert r.df["avg_yearly"].isna().all() and len(r.df) == 1
    assert_equivalent(
        spark.createDataFrame(r.df, schema="avg_yearly double"),
        tpch.reference_sql("q17"),
        lineitem=tables["lineitem"].pdf,
        part=tables["part"].pdf,
    )
