"""TPC-H suite tests: both plans must equal the DuckDB oracle (Fig 10)."""
import pytest

from repro.core import join_ops, tpch
from repro.core.bloom import fit_fpr_to_limit
from repro.core.runner import Runner
from repro.oracle import assert_equivalent


def _oracle(tpch_tables, q, result):
    kw = {n: tpch_tables[n].pdf for n in tpch.needed_tables(q)}
    assert_equivalent(result.df, tpch.reference_sql(q), **kw)


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_baseline_matches_oracle(spark, store, tpch_tables, q):
    r = tpch.run_baseline(spark, Runner(store), tpch_tables, q)
    _oracle(tpch_tables, q, r)


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_optimized_matches_oracle(spark, store, tpch_tables, q):
    r = tpch.run_optimized(spark, Runner(store), tpch_tables, q)
    _oracle(tpch_tables, q, r)


@pytest.mark.parametrize("q", tpch.QUERIES)
def test_optimized_moves_fewer_bytes(spark, store, tpch_tables, q):
    base = tpch.run_baseline(spark, Runner(store), tpch_tables, q)
    opt = tpch.run_optimized(spark, Runner(store), tpch_tables, q)
    assert opt.usage.bytes_over_network < base.usage.bytes_over_network


def test_baseline_uses_plain_gets(spark, store, tpch_tables):
    r = tpch.run_baseline(spark, Runner(store), tpch_tables, "q6")
    assert r.usage.select_requests == 0
    assert r.usage.get_requests == len(tpch_tables["lineitem"].keys)


def test_q6_full_aggregate_pushdown(spark, store, tpch_tables):
    """Q6's optimized plan returns one number per object."""
    r = tpch.run_optimized(spark, Runner(store), tpch_tables, "q6")
    assert r.usage.select_requests == len(tpch_tables["lineitem"].keys)
    assert r.usage.bytes_returned < 1000


def test_q1_case_pushdown_returns_aggregates_only(spark, store, tpch_tables):
    r = tpch.run_optimized(spark, Runner(store), tpch_tables, "q1")
    s3_phase = next(p for p in r.phases if p.name == "s3-aggregate")
    assert s3_phase.usage.bytes_returned < 50_000
    assert s3_phase.case_columns == 6 * 6  # 6 (rf,ls) combos x 6 sums


def test_q3_pipeline_has_three_phases(spark, store, tpch_tables):
    r = tpch.run_optimized(spark, Runner(store), tpch_tables, "q3")
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
    r = tpch.run_optimized(spark, Runner(fresh_store), tables, "q17")
    assert [p.name for p in r.phases] == ["part", "lineitem"]
    # No part matched, so no lineitem can: no probe request is sent.
    assert r.phases[1].usage.select_requests == 0
    assert r.df["avg_yearly"].isna().all() and len(r.df) == 1
    assert_equivalent(
        r.df,
        tpch.reference_sql("q17"),
        lineitem=tables["lineitem"].pdf,
        part=tables["part"].pdf,
    )


def _probe_returns_nothing(spark, fresh_store, q, tables):
    """``q``'s last (probe) phase receives no rows; the plan equals DuckDB."""
    from repro.core.tables import write_table

    stored = {
        n: write_table(fresh_store, n, pdf, n_partitions=4)
        for n, pdf in tables.items()
    }
    r = tpch.run_optimized(spark, Runner(fresh_store), stored, q)
    probe = r.phases[-1]
    assert probe.usage.select_requests == 4 and probe.usage.bytes_returned == 0
    assert_equivalent(
        r.df,
        tpch.reference_sql(q),
        **{n: t.pdf for n, t in stored.items()},
    )
    return r


def test_q3_empty_probe_side(spark, tpch_tables, fresh_store):
    """No lineitem ships after the orders cut-off: an empty top 10."""
    li = tpch_tables["lineitem"].pdf
    r = _probe_returns_nothing(
        spark, fresh_store, "q3",
        {
            "customer": tpch_tables["customer"].pdf,
            "orders": tpch_tables["orders"].pdf,
            "lineitem": li[li["l_shipdate"] <= "1995-03-15"],
        },
    )
    assert len(r.df) == 0


def test_q14_empty_probe_side(spark, tpch_tables, fresh_store):
    """Every part the Bloom filter would pass is removed: a NULL ratio."""
    li, part = tpch_tables["lineitem"].pdf, tpch_tables["part"].pdf
    in_month = (li["l_shipdate"] >= "1995-09-01") & (li["l_shipdate"] < "1995-10-01")
    bloom = fit_fpr_to_limit(
        li[in_month]["l_partkey"].unique(), 0.01, "p_partkey", join_ops._SQL_BUDGET
    )
    r = _probe_returns_nothing(
        spark, fresh_store, "q14",
        {
            "lineitem": li,
            "part": part[~bloom.might_contain(part["p_partkey"].to_numpy())],
        },
    )
    assert r.df["promo_revenue"].isna().all() and len(r.df) == 1


def test_q19_empty_probe_side(spark, tpch_tables, fresh_store):
    """Every part the Bloom filter would pass is removed: a NULL revenue."""
    li, part = tpch_tables["lineitem"].pdf, tpch_tables["part"].pdf
    shipped = (
        li["l_shipmode"].isin(["AIR", "REG AIR"])
        & (li["l_shipinstruct"] == "DELIVER IN PERSON")
        & li["l_quantity"].between(1, 30)
    )
    bloom = fit_fpr_to_limit(
        li[shipped]["l_partkey"].unique(), 0.01, "p_partkey", join_ops._SQL_BUDGET
    )
    r = _probe_returns_nothing(
        spark, fresh_store, "q19",
        {
            "lineitem": li,
            "part": part[~bloom.might_contain(part["p_partkey"].to_numpy())],
        },
    )
    assert r.df["revenue"].isna().all() and len(r.df) == 1
