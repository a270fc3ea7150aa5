"""Top-K operator tests: exactness of the sampling algorithm + model."""
import math

import pytest

from repro.core import topk_ops
from repro.core.runner import Runner
from repro.oracle import assert_equivalent


def _check(tpch, r, k):
    """Compare the multiset of K smallest prices (tie-insensitive)."""
    assert_equivalent(
        r.df[["l_extendedprice"]].rename(columns={"l_extendedprice": "p"}),
        f"SELECT l_extendedprice AS p FROM lineitem "
        f"ORDER BY l_extendedprice LIMIT {k}",
        lineitem=tpch["lineitem"].pdf,
    )


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_server_side_topk_matches_oracle(spark, store, tpch, k):
    r = topk_ops.server_side_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", k
    )
    _check(tpch, r, k)


@pytest.mark.parametrize("k", [1, 10, 100, 1000])
def test_sampling_topk_matches_oracle(spark, store, tpch, k):
    r = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", k
    )
    _check(tpch, r, k)


@pytest.mark.parametrize("s", [200, 2000, 20000])
def test_sampling_topk_exact_for_any_sample_size(spark, store, tpch, s):
    r = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 50,
        sample_size=s,
    )
    _check(tpch, r, 50)


def test_k_larger_than_table(spark, store, filter_table):
    r = topk_ops.server_side_topk(
        spark, Runner(store), filter_table, "u", filter_table.n_rows + 10
    )
    assert len(r.df) == filter_table.n_rows


def test_alpha_fraction_sensible(tpch):
    a = topk_ops.alpha_fraction(tpch["lineitem"], "l_extendedprice")
    assert 0.02 < a < 0.4  # one numeric column of a ~10-column row


def test_optimal_sample_size_formula(tpch):
    li = tpch["lineitem"]
    k = 100
    a = topk_ops.alpha_fraction(li, "l_extendedprice")
    expected = min(li.n_rows, round(math.sqrt(k * li.n_rows / a)))
    assert topk_ops.optimal_sample_size(li, "l_extendedprice", k) == expected


def test_optimal_sample_size_clamps_to_table(tpch):
    li = tpch["lineitem"]
    assert topk_ops.optimal_sample_size(li, "l_extendedprice", li.n_rows) <= li.n_rows


def test_larger_sample_tightens_scan_phase(spark, store, tpch):
    small = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 50,
        sample_size=200,
    )
    big = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 50,
        sample_size=20_000,
    )
    small_scan = next(p for p in small.phases if p.name == "scan")
    big_scan = next(p for p in big.phases if p.name == "scan")
    assert big_scan.usage.bytes_returned < small_scan.usage.bytes_returned


def test_sampling_reduces_network_vs_server(spark, store, tpch):
    server = topk_ops.server_side_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 100
    )
    sampling = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 100
    )
    assert (
        sampling.usage.bytes_over_network < server.usage.bytes_over_network / 5
    )


def test_projected_sampling_beats_server(spark, store, tpch):
    """Fig 9 shape at 10GB: sampling faster and cheaper."""
    from repro.experiments import common

    f = common.tpch_factor(0.01)
    server = topk_ops.server_side_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 100
    ).project(f)
    sampling = topk_ops.sampling_topk(
        spark, Runner(store), tpch["lineitem"], "l_extendedprice", 100
    ).project(f)
    assert sampling.runtime_s < server.runtime_s
    assert sampling.cost.total < server.cost.total
