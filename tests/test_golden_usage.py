"""Golden usage: the exact S3 usage counters of every query, pinned.

Modeled runtimes and costs are computed from these counters, so a change
that must not move the paper's figures -- an evaluator, decoder or
request-path rewrite -- must leave every number in
``golden_usage.json`` unchanged: request counts and bytes scanned,
returned and transferred, per query and per phase.

A change that is *meant* to move them regenerates the file with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_golden_usage.py

and says why in CHANGES.md.
"""
import json
import os
from pathlib import Path

import pytest

from repro.core import filter_ops, groupby_ops, join_ops, topk_ops, tpch
from tests.conftest import new_runner_for

GOLDEN = Path(__file__).with_name("golden_usage.json")
VALUE_COLS = ["v1", "v2", "v3", "v4"]


def _record(result) -> dict:
    return {
        "usage": result.usage.to_dict(),
        "phases": [[p.name, p.usage.to_dict()] for p in result.phases],
    }


def _check(case: str, result) -> None:
    got = _record(result)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden[case] = got
        GOLDEN.write_text(
            "{\n"
            + ",\n".join(
                f" {json.dumps(k)}: {json.dumps(golden[k], sort_keys=True)}"
                for k in sorted(golden)
            )
            + "\n}\n"
        )
    assert case in golden, f"{case} missing from {GOLDEN.name}"
    assert got == golden[case]


@pytest.mark.parametrize("plan", ["optimized", "baseline"])
@pytest.mark.parametrize("q", tpch.QUERIES)
def test_tpch_usage(spark, store, tpch_tables, q, plan):
    run = tpch.run_optimized if plan == "optimized" else tpch.run_baseline
    _check(f"{q}-{plan}", run(spark, new_runner_for(store), tpch_tables, q))


def test_hybrid_groupby_usage(spark, store, groups_zipf):
    r = groupby_ops.hybrid_groupby(
        spark, new_runner_for(store), groups_zipf, "g1", VALUE_COLS
    )
    _check("hybrid_groupby", r)


def test_sampling_topk_usage(spark, store, tpch_tables):
    r = topk_ops.sampling_topk(
        spark, new_runner_for(store), tpch_tables["lineitem"], "l_extendedprice", 100
    )
    _check("sampling_topk", r)


def test_s3_index_filter_usage(spark, store, filter_table):
    r = filter_ops.s3_index_filter(
        spark, new_runner_for(store), filter_table, "u", "<", 0.01
    )
    _check("s3_index_filter", r)


@pytest.mark.parametrize(
    "case,acctbal,date,fpr",
    [
        ("bloom_join", -450, "1995-01-01", 0.01),
        ("bloom_join_fpr0.3", -450, None, 0.3),
        ("bloom_join_empty_build", -10_000, None, 0.01),
    ],
)
def test_bloom_join_usage(spark, store, tpch_tables, case, acctbal, date, fpr):
    r = join_ops.bloom_join(
        spark, new_runner_for(store), tpch_tables["customer"],
        tpch_tables["orders"], acctbal, date, fpr=fpr,
    )
    _check(case, r)


def test_filtered_join_usage(spark, store, tpch_tables):
    r = join_ops.filtered_join(
        spark, new_runner_for(store), tpch_tables["customer"],
        tpch_tables["orders"], -450, "1995-01-01",
    )
    _check("filtered_join", r)
