"""Figure 10: the full suite -- baseline vs optimized PushdownDB (SVIII).

One representative query per operator (filter, join, group-by, top-K)
plus TPC-H queries Q1, Q3, Q6, Q14, Q17, Q19 (the text does not
enumerate its TPC-H subset; we use the queries expressible over the
TPC-H-lite schema -- see DESIGN.md). Baseline ships full tables and
computes on the server; optimized uses the paper's pushdown
decompositions. Paper headline: optimized is on average 6.7x faster and
30% cheaper than baseline. (The paper also sanity-checks its baseline
against Presto; our baseline compute engine *is* Spark SQL, a mature
engine, which plays that role by construction.)
"""
from __future__ import annotations

from repro.core import filter_ops, groupby_ops, join_ops, topk_ops, tpch
from repro.core.runner import Runner
from repro.core.tables import load_tpch
from repro.experiments import common, fig1_filter, fig6_hybrid_split

PAPER = [
    {"metric": "geo-mean speedup (optimized vs baseline)", "paper": "6.7x"},
    {"metric": "geo-mean cost reduction", "paper": "30%"},
    {"metric": "baseline sanity", "paper": "baseline within 2x of Presto; optimized 3.4x faster than Presto"},
]

FILTER_SELECTIVITY = 1e-3
TOPK_K = 100
VALUE_COLS = ["v1", "v2", "v3", "v4"]


def _micro_pairs(spark, store, sf: float, tabs: dict):
    """(name, factor, baseline_result, optimized_result) for the micro ops.

    The filter and group-by inputs are Fig 1's and Fig 6's tables, at a
    row count scaled with ``sf``.
    """
    ft = fig1_filter.table(store, max(1000, int(10_000_000 * sf)))
    gt = fig6_hybrid_split.table(store, max(1000, int(5_000_000 * sf)))
    c, o, li = tabs["customer"], tabs["orders"], tabs["lineitem"]
    pred = f"u < {FILTER_SELECTIVITY!r}"
    tf = common.tpch_factor(sf)
    yield (
        "filter",
        common.table_factor(ft.total_bytes),
        filter_ops.server_side_filter(spark, Runner(store), ft, pred),
        filter_ops.s3_side_filter(spark, Runner(store), ft, pred),
    )
    yield (
        "join",
        tf,
        join_ops.baseline_join(spark, Runner(store), c, o, -950, None),
        join_ops.bloom_join(spark, Runner(store), c, o, -950, None),
    )
    yield (
        "group-by",
        common.table_factor(gt.total_bytes),
        groupby_ops.server_side_groupby(
            spark, Runner(store), gt, "g1", VALUE_COLS
        ),
        groupby_ops.hybrid_groupby(
            spark, Runner(store), gt, "g1", VALUE_COLS
        ),
    )
    yield (
        "top-k",
        tf,
        topk_ops.server_side_topk(
            spark, Runner(store), li, "l_extendedprice", TOPK_K
        ),
        topk_ops.sampling_topk(
            spark, Runner(store), li, "l_extendedprice", TOPK_K
        ),
    )


def run(spark, store, *, sf: float = 0.1, queries=tpch.QUERIES) -> list[dict]:
    tabs = load_tpch(store, sf=sf)
    rows = []
    for name, factor, base, opt in _micro_pairs(spark, store, sf, tabs):
        rows.append(common.result_row(base, factor, query=name, config="baseline"))
        rows.append(common.result_row(opt, factor, query=name, config="optimized"))
    tf = common.tpch_factor(sf)
    for q in queries:
        base = tpch.run_baseline(spark, Runner(store), tabs, q)
        opt = tpch.run_optimized(spark, Runner(store), tabs, q)
        rows.append(common.result_row(base, tf, query=q, config="baseline"))
        rows.append(common.result_row(opt, tf, query=q, config="optimized"))
    return rows


def summarize(rows: list[dict]) -> dict:
    """Geo-mean speedup and cost ratio, the Fig 10 right-hand bars."""
    by = {(r["query"], r["config"]): r for r in rows}
    queries = sorted({r["query"] for r in rows})
    speedups = {
        q: by[(q, "baseline")]["runtime_s_10gb"] / by[(q, "optimized")]["runtime_s_10gb"]
        for q in queries
    }
    cost_ratios = {
        q: by[(q, "optimized")]["cost_usd_10gb"] / by[(q, "baseline")]["cost_usd_10gb"]
        for q in queries
    }
    return {
        "per_query_speedup": {q: round(s, 2) for q, s in speedups.items()},
        "geomean_speedup": round(common.geomean(speedups.values()), 2),
        "geomean_cost_ratio": round(common.geomean(cost_ratios.values()), 3),
    }


def headline(rows: list[dict]) -> dict:
    s = summarize(rows)
    return {
        **s,
        "optimized_faster_on_geomean": s["geomean_speedup"] > 1.0,
        "optimized_cheaper_on_geomean": s["geomean_cost_ratio"] < 1.0,
    }
