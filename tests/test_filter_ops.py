"""Filter operator tests: result correctness (DuckDB oracle) + accounting."""
import pandas as pd
import pytest

from repro.core import filter_ops
from repro.core.runner import Runner
from repro.core.tables import write_table
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("sel", [0.001, 0.01, 0.1])
@pytest.mark.parametrize(
    "algo", ["server", "s3", "index"]
)
def test_filter_algorithms_match_oracle(spark, store, filter_table, sel, algo):
    t = filter_table
    if algo == "server":
        r = filter_ops.server_side_filter(spark, Runner(store), t, f"u < {sel}")
    elif algo == "s3":
        r = filter_ops.s3_side_filter(spark, Runner(store), t, f"u < {sel}")
    else:
        r = filter_ops.s3_index_filter(spark, Runner(store), t, "u", "<", sel)
    assert_equivalent(
        r.df,
        f"SELECT * FROM ftab WHERE u < {sel}",
        ftab=t.pdf,
    )


def test_filter_empty_result(spark, store, filter_table):
    r = filter_ops.s3_side_filter(
        spark, Runner(store), filter_table, "u < -1.0"
    )
    assert len(r.df) == 0


def test_index_filter_empty_result(spark, store, filter_table):
    r = filter_ops.s3_index_filter(
        spark, Runner(store), filter_table, "u", "<", -1.0
    )
    assert len(r.df) == 0
    assert list(r.df.columns) == list(filter_table.pdf.columns)


def test_index_filter_requires_index(spark, store, tpch):
    with pytest.raises(ValueError, match="no index"):
        filter_ops.s3_index_filter(
            spark, Runner(store), tpch["lineitem"], "l_quantity", "<", 5
        )


def test_index_filter_rejects_weird_op(spark, store, filter_table):
    with pytest.raises(ValueError, match="op"):
        filter_ops.s3_index_filter(
            spark, Runner(store), filter_table, "u", "!=", 0.5
        )


def test_server_side_bills_transfer_not_scan(spark, store, filter_table):
    r = filter_ops.server_side_filter(
        spark, Runner(store), filter_table, "u < 0.01"
    )
    assert r.usage.bytes_scanned == 0
    assert r.usage.bytes_transferred >= filter_table.total_bytes


def test_s3_side_bills_scan_not_transfer(spark, store, filter_table):
    r = filter_ops.s3_side_filter(
        spark, Runner(store), filter_table, "u < 0.01"
    )
    assert r.usage.bytes_scanned >= filter_table.total_bytes
    assert r.usage.bytes_transferred == 0
    assert r.usage.bytes_returned < filter_table.total_bytes / 10


def test_index_request_count_tracks_hits(spark, store, filter_table):
    r = filter_ops.s3_index_filter(
        spark, Runner(store), filter_table, "u", "<", 0.01
    )
    n_hits = len(r.df)
    # one select per index object + one GET per matching row
    assert r.usage.get_requests == n_hits
    assert r.usage.select_requests == len(filter_table.keys)


def test_index_scans_only_index_objects(spark, store, filter_table):
    r = filter_ops.s3_index_filter(
        spark, Runner(store), filter_table, "u", "<", 0.01
    )
    assert r.usage.bytes_scanned < filter_table.total_bytes


def test_runtime_model_prefers_s3_side(spark, store, filter_table):
    """At 10GB projection, s3-side filter beats server-side (Fig 1)."""
    from repro.experiments import common

    f = common.table_factor(filter_table.total_bytes)
    server = filter_ops.server_side_filter(
        spark, Runner(store), filter_table, "u < 0.001"
    ).project(f)
    s3 = filter_ops.s3_side_filter(
        spark, Runner(store), filter_table, "u < 0.001"
    ).project(f)
    assert server.runtime_s / s3.runtime_s > 3.0
    assert s3.cost.total > server.cost.total  # paper: s3-side costs more


def test_index_filter_fetches_a_row_whose_string_holds_a_newline(fresh_store):
    """A quoted newline is inside its row's byte range, not a row boundary."""
    pdf = pd.DataFrame({"u": [0.1, 0.5, 0.9], "s": ["a", "two\nlines", "c"]})
    t = write_table(fresh_store, "t", pdf, n_partitions=2, index_columns=("u",))
    r = filter_ops.s3_index_filter(None, Runner(fresh_store), t, "u", ">", 0.3)
    pd.testing.assert_frame_equal(
        r.df.reset_index(drop=True), pdf[pdf["u"] > 0.3].reset_index(drop=True)
    )
    assert r.usage.get_requests == 2
