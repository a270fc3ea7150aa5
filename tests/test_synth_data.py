"""Tests for the synthetic data generators (provided + extensions)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data


TABLES = [
    ("lineitem", {"sf": 0.002}),
    ("orders", {"sf": 0.002}),
    ("part", {"sf": 0.002}),
    ("customer", {"sf": 0.002}),
    ("filter_table", {"n": 1000}),
    ("groups_table", {"n": 1000, "kind": "zipf", "theta": 1.1}),
    ("wide_table", {"n": 1000, "n_cols": 3}),
]


@pytest.mark.parametrize("name, kw", TABLES)
def test_spark_wrapper_has_the_frames_rows(spark, name, kw):
    got = getattr(synth_data, name)(spark, **kw).toPandas()
    pd.testing.assert_frame_equal(got, getattr(synth_data, f"{name}_frame")(**kw))


@pytest.mark.parametrize("n_options", [2, 3, 5, 25, 40])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_pick_draws_as_choice(n_options, seed):
    options = [f"option {i}" for i in range(n_options)]
    picker, chooser = np.random.default_rng(seed), np.random.default_rng(seed)
    picked = synth_data._pick(picker, options, 5000)
    assert picked.tolist() == chooser.choice(options, 5000).tolist()
    assert picker.random() == chooser.random()  # the streams stay in step


@pytest.mark.parametrize("name, kw", TABLES)
def test_string_columns_hold_one_object_per_option(name, kw):
    frame = getattr(synth_data, f"{name}_frame")(**kw)
    for c in frame.columns:
        if frame[c].dtype == object:
            values = frame[c].to_numpy()
            assert len({id(v) for v in values}) == len(set(values)), c


@pytest.fixture(scope="module")
def li():
    return synth_data.lineitem_frame(sf=0.002)


@pytest.fixture(scope="module")
def pt():
    return synth_data.part_frame(sf=0.002)


def test_lineitem_rows_scale(li):
    assert len(li) == 12_000


def test_lineitem_has_tpch_extension_columns(li):
    assert "l_shipinstruct" in li.columns
    assert "l_shipmode" in li.columns


def test_lineitem_shipmode_domain(li):
    assert set(li["l_shipmode"]) <= {
        "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"
    }


def test_lineitem_deterministic(li):
    again = synth_data.lineitem_frame(sf=0.002)
    assert (again["l_orderkey"] == li["l_orderkey"]).all()
    assert (again["l_extendedprice"] == li["l_extendedprice"]).all()


def test_orders_has_shippriority():
    o = synth_data.orders_frame(sf=0.002)
    assert (o["o_shippriority"] == 0).all()


def test_part_container_domain(pt):
    assert "MED BOX" in set(pt["p_container"])
    assert all(" " in c for c in pt["p_container"])


def test_part_brand_q19_constants_exist(pt):
    assert {"Brand#12", "Brand#23", "Brand#34"} <= set(pt["p_brand"])


def test_customer_acctbal_range():
    c = synth_data.customer_frame(sf=0.002)
    assert c["c_acctbal"].min() >= -1000
    assert c["c_acctbal"].max() < 9000


def test_filter_table_uniform_selectivity():
    ft = synth_data.filter_table_frame(n=50_000)
    sel = (ft["u"] < 0.01).mean()
    assert 0.005 < sel < 0.02  # ~1%


def test_filter_table_ids_unique():
    ft = synth_data.filter_table_frame(n=1000)
    assert ft["id"].is_unique


def test_groups_table_uniform_group_counts():
    gt = synth_data.groups_table_frame(n=20_000, kind="uniform")
    for i in (1, 3, 5):
        assert gt[f"g{i}"].nunique() == 2 ** i


def test_groups_table_uniform_sizes_balanced():
    gt = synth_data.groups_table_frame(n=20_000, kind="uniform")
    counts = gt["g2"].value_counts()
    assert counts.max() / counts.min() < 1.3


def test_groups_table_zipf_skew():
    gt = synth_data.groups_table_frame(n=20_000, kind="zipf", theta=1.3)
    top4 = gt["g1"].value_counts().head(4).sum() / len(gt)
    # Paper: theta=1.3 -> 59% of rows in the 4 largest groups.
    assert 0.45 < top4 < 0.75


def test_groups_table_zipf_theta_zero_uniform():
    gt = synth_data.groups_table_frame(n=50_000, kind="zipf", theta=0.0)
    counts = gt["g1"].value_counts()
    assert counts.max() / counts.min() < 1.6


def test_groups_table_bad_kind():
    with pytest.raises(ValueError):
        synth_data.groups_table_frame(n=10, kind="nope")


def test_wide_table_columns():
    wt = synth_data.wide_table_frame(n=1000, n_cols=10)
    assert list(wt.columns) == [f"c{i}" for i in range(1, 11)]


def test_wide_table_precision():
    wt = synth_data.wide_table_frame(n=1000, n_cols=1)
    assert np.allclose(wt["c1"], wt["c1"].round(4))


def test_zipf_weights_normalized():
    w = synth_data._zipf_weights(100, 1.1)
    assert w.sum() == pytest.approx(1.0)
    assert (np.diff(w) <= 0).all()  # decreasing in rank
