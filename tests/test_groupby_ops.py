"""Group-by operator tests: oracle equality across all four algorithms."""
import pytest

from repro.core import groupby_ops
from repro.core.runner import Runner
from repro.oracle import assert_equivalent

VCOLS = ["v1", "v2", "v3", "v4"]

ALGOS = {
    "server": groupby_ops.server_side_groupby,
    "filtered": groupby_ops.filtered_groupby,
    "s3": groupby_ops.s3_side_groupby,
    "hybrid": groupby_ops.hybrid_groupby,
}


def _oracle_sql(gcol, vcols):
    aggs = ", ".join(f"SUM({v}) AS sum_{v}" for v in vcols)
    return f"SELECT {gcol}, {aggs} FROM gtab GROUP BY {gcol}"


@pytest.mark.parametrize("algo", list(ALGOS))
@pytest.mark.parametrize("gcol", ["g1", "g4"])
def test_groupby_zipf_matches_oracle(spark, store, groups_zipf, algo, gcol):
    r = ALGOS[algo](spark, Runner(store), groups_zipf, gcol, VCOLS)
    assert_equivalent(
        r.df, _oracle_sql(gcol, VCOLS), gtab=groups_zipf.pdf
    )


@pytest.mark.parametrize("algo", list(ALGOS))
def test_groupby_uniform_matches_oracle(spark, store, groups_uniform, algo):
    r = ALGOS[algo](spark, Runner(store), groups_uniform, "g3", VCOLS)
    assert_equivalent(
        r.df, _oracle_sql("g3", VCOLS), gtab=groups_uniform.pdf
    )


def test_single_value_column(spark, store, groups_zipf):
    r = groupby_ops.s3_side_groupby(
        spark, Runner(store), groups_zipf, "g2", ["v7"]
    )
    assert_equivalent(
        r.df, _oracle_sql("g2", ["v7"]), gtab=groups_zipf.pdf
    )


def test_s3_side_returns_tiny_payload(spark, store, groups_uniform):
    filtered = groupby_ops.filtered_groupby(
        spark, Runner(store), groups_uniform, "g1", VCOLS
    )
    s3 = groupby_ops.s3_side_groupby(
        spark, Runner(store), groups_uniform, "g1", VCOLS
    )
    # Phase 2 of s3-side returns #groups x #aggs numbers per object; its
    # projection phase still returns the group column, so compare phase 2
    # against the filtered algorithm's full (5-column) payload.
    s3_phase2 = next(p for p in s3.phases if p.name == "s3-aggregate")
    assert s3_phase2.usage.bytes_returned < filtered.usage.bytes_returned / 50


def test_s3_side_case_columns_grow_with_groups(spark, store, groups_uniform):
    small = groupby_ops.s3_side_groupby(
        spark, Runner(store), groups_uniform, "g1", VCOLS
    )
    big = groupby_ops.s3_side_groupby(
        spark, Runner(store), groups_uniform, "g5", VCOLS
    )
    p_small = next(p for p in small.phases if p.name == "s3-aggregate")
    p_big = next(p for p in big.phases if p.name == "s3-aggregate")
    assert p_small.case_columns == 2 * 4
    assert p_big.case_columns == 32 * 4


@pytest.mark.parametrize("n_pushed", [0, 3, 100])
def test_hybrid_split_extremes_match_oracle(spark, store, groups_zipf, n_pushed):
    r = groupby_ops.hybrid_groupby(
        spark, Runner(store), groups_zipf, "g1", VCOLS, n_pushed=n_pushed
    )
    assert_equivalent(
        r.df, _oracle_sql("g1", VCOLS), gtab=groups_zipf.pdf
    )


def test_hybrid_phase2_parts_marked_concurrent(spark, store, groups_zipf):
    r = groupby_ops.hybrid_groupby(
        spark, Runner(store), groups_zipf, "g1", VCOLS, n_pushed=4
    )
    groups = {p.name: p.parallel_group for p in r.phases}
    assert groups["s3-aggregate"] == groups["server-aggregate"] == "phase2"
    assert groups["sample"] is None


def test_hybrid_sampling_scans_prefix_only(spark, store, groups_zipf):
    r = groupby_ops.hybrid_groupby(
        spark, Runner(store), groups_zipf, "g1", VCOLS, n_pushed=4
    )
    sample = next(p for p in r.phases if p.name == "sample")
    assert sample.usage.bytes_scanned < groups_zipf.total_bytes / 10


def test_hybrid_pushes_largest_groups(spark, store, groups_zipf):
    """The pushed set should cover far more rows than its group count."""
    r = groupby_ops.hybrid_groupby(
        spark, Runner(store), groups_zipf, "g1", VCOLS, n_pushed=4
    )
    tail = next(p for p in r.phases if p.name == "server-aggregate")
    # theta=1.1: the 4 biggest of 100 groups hold a large share of rows.
    assert tail.agg_rows < groups_zipf.n_rows * 0.75
