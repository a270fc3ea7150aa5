"""One module per evaluation figure of the paper (Figs 1-11), and the
registry ``FIGURES`` that every figure entry point reads.

Each module exposes ``run(spark, store, ...) -> list[dict]`` -- the
figure's table of numbers, with runtime/cost both at measured scale and
projected to the paper's 10 GB -- plus ``PAPER`` rows recording the
numbers the paper reports (read off its figures) for side-by-side
comparison, and a ``headline(rows)`` check of the figure's qualitative
claim.

``FIGURES`` holds one :class:`Figure` per module, in paper order.
``jobs/run_figure.py`` runs and prints them, ``benchmarks/bench_figures.py``
runs them at benchmark scale and asserts their gates, and
``jobs/write_experiments_md.py`` renders EXPERIMENTS.md from their saved
results. The modules are imported only when ``Figure.module`` is read.
"""
from __future__ import annotations

import importlib
import operator
from dataclasses import dataclass
from typing import Callable

_COMPARE = {">": operator.gt, "<": operator.lt}


@dataclass(frozen=True)
class Figure:
    name: str  # module under repro.experiments; also the results file stem
    title: str
    # (BENCH_SF, BENCH_ROWS) -> the keyword arguments the benchmark passes to run()
    bench_kwargs: Callable[[float, int], dict]
    # Headline gates: "key" must be truthy; "key > bound" / "key < bound" compare.
    gates: tuple[str, ...]
    columns: tuple[str, ...]  # EXPERIMENTS.md table columns
    narrative: str  # EXPERIMENTS.md paper-vs-ours text

    @property
    def module(self):
        return importlib.import_module(f"{__name__}.{self.name}")

    def failed_gates(self, headline: dict) -> list[str]:
        """The gates ``headline`` does not satisfy."""
        return [g for g in self.gates if not _holds(g, headline)]


def _holds(gate: str, headline: dict) -> bool:
    key, *comparison = gate.split()
    if not comparison:
        return bool(headline[key])
    op, bound = comparison
    return _COMPARE[op](headline[key], float(bound))


FIGURES = (
    Figure(
        "fig1_filter", "Figure 1 — Filter algorithms vs selectivity",
        lambda sf, rows: {"n_rows": rows},
        ("s3_vs_server_speedup_at_high_selectivity > 3.0",
         "s3_over_server_cost_ratio > 1.0",
         "index_fast_at_high_selectivity",
         "index_collapses_at_low_selectivity"),
        ("selectivity", "algo", "runtime_s_10gb", "cost_usd_10gb",
         "cost_compute_10gb", "cost_scan_10gb", "requests"),
        "Paper: S3-side filter ~10x faster than server-side (stable in\n"
        "selectivity) at ~24% higher cost; indexing matches S3-side only below\n"
        "~1e-4 selectivity and collapses beyond it under per-row GETs; at high\n"
        "selectivity indexing is ~2.7x cheaper than server-side.\n"
        "Ours: same ordering and crossover (the absolute crossover selectivity\n"
        "shifts with row count, as it is a request-budget effect).",
    ),
    Figure(
        "fig2_join_customer", "Figure 2 — Join vs customer selectivity",
        lambda sf, rows: {"sf": sf},
        ("bloom_speedup_vs_baseline_at_high_selectivity > 1.3",
         "baseline_filtered_similar",
         "bloom_degrades_with_selectivity"),
        ("upper_c_acctbal", "algo", "runtime_s_10gb", "cost_usd_10gb",
         "bytes_returned"),
        "Paper: baseline ~= filtered (both ship all orders rows); Bloom join\n"
        "much faster at a selective build side, degrading as selectivity drops;\n"
        "Bloom's cost edge smaller than its runtime edge. Ours matches; at our\n"
        "scale the degradation shows up first in returned bytes (runtime sits\n"
        "on the scan-bound plateau longer than in the paper).",
    ),
    Figure(
        "fig3_join_orders", "Figure 3 — Join vs orders selectivity",
        lambda sf, rows: {"sf": sf},
        ("filtered_speedup_vs_baseline_when_selective > 1.2",
         "filtered_converges_to_baseline",
         "bloom_flat",
         "bloom_beats_baseline_at_none"),
        ("upper_o_orderdate", "algo", "runtime_s_10gb", "cost_usd_10gb"),
        "Paper: filtered join wins while the date predicate is selective and\n"
        "converges to baseline at None; Bloom join stays fast and flat; Bloom\n"
        "cost comparable or cheaper. Ours matches on all three claims.",
    ),
    Figure(
        "fig4_bloom_fpr", "Figure 4 — Bloom join vs false-positive rate",
        lambda sf, rows: {"sf": sf},
        ("sweet_spot_mid_range",
         "high_fpr_returns_more_bytes"),
        ("fpr", "algo", "runtime_s_10gb", "cost_usd_10gb", "bytes_returned"),
        "Paper: best runtime and cost at FPR=0.01 -- lower rates inflate the\n"
        "0/1-string predicate (S3-side compute), higher rates return more\n"
        "false-positive rows. Ours: U-shape present; the minimum sits in the\n"
        "same 0.001-0.1 band.",
    ),
    Figure(
        "fig5_groupby_uniform", "Figure 5 — Group-by vs number of groups",
        lambda sf, rows: {"n_rows": rows // 2},
        ("filtered_speedup_vs_server > 1.2",
         "s3_speedup_vs_filtered_at_2_groups > 1.0",
         "s3_degrades_with_groups",
         "server_filtered_flat"),
        ("n_groups", "algo", "runtime_s_10gb", "cost_usd_10gb"),
        "Paper: server-side and filtered flat in group count, filtered 1.64x\n"
        "faster (ships 4+1 of 20 columns); S3-side 4.1x faster than filtered at\n"
        "2 groups, degrading as CASE columns grow; costs close until ~8 groups.\n"
        "Ours: filtered/server ratio ~1.6x (matches); S3-side wins at 2 groups\n"
        "by a smaller factor (~1.5-2x) and degrades past filtered by 32 groups\n"
        "(crossover matches).",
    ),
    Figure(
        "fig6_hybrid_split", "Figure 6 — Hybrid group-by S3/server split",
        lambda sf, rows: {"n_rows": rows // 2},
        ("best_split_in_sweet_spot",
         "s3_time_grows",
         "returned_bytes_shrink"),
        ("n_pushed", "runtime_s_10gb", "s3_agg_s_10gb", "server_agg_s_10gb",
         "tail_bytes_returned"),
        "Paper: pushing more groups to S3 raises S3-side aggregation time and\n"
        "shrinks returned bytes; runtime = max(two concurrent parts); sweet\n"
        "spot at 6-8 pushed groups. Ours reproduces the two opposing curves\n"
        "and a sweet spot at a non-zero split.",
    ),
    Figure(
        "fig7_groupby_skew", "Figure 7 — Group-by vs data skew",
        lambda sf, rows: {"n_rows": rows // 2},
        ("hybrid_wins_at_high_skew",
         "filtered_flat",
         "hybrid_not_cheaper"),
        ("theta", "algo", "runtime_s_10gb", "cost_usd_10gb"),
        "Paper: server-side/filtered flat across skew; hybrid 31% faster than\n"
        "filtered at theta=1.3; hybrid not cheaper (extra sampling scan).\n"
        "Ours matches all three (hybrid's win at theta=1.3 is of the same\n"
        "tens-of-percent order).",
    ),
    Figure(
        "fig8_topk_sample", "Figure 8 — Sampling top-K vs sample size",
        lambda sf, rows: {"sf": sf},
        ("sample_time_grows",
         "scan_time_shrinks",
         "best_within_10x_of_model"),
        ("sample_size", "runtime_s_10gb", "sample_s_10gb", "scan_s_10gb",
         "bytes_returned"),
        "Paper: phase-1 time grows with S, phase-2 time shrinks, returned\n"
        "bytes minimized near S* = sqrt(KN/alpha) (~2.4e5 at N=6e7); stable in\n"
        "a wide band. Ours: same two curves; the measured best S brackets our\n"
        "model's S* (scaled to our N).",
    ),
    Figure(
        "fig9_topk_k", "Figure 9 — Top-K vs K",
        lambda sf, rows: {"sf": sf},
        ("sampling_always_faster",
         "sampling_always_cheaper"),
        ("k", "algo", "runtime_s_10gb", "cost_usd_10gb"),
        "Paper: both algorithms slow as K grows; sampling top-K consistently\n"
        "faster and cheaper. Ours matches on every K.",
    ),
    Figure(
        "fig10_tpch", "Figure 10 — Suite: baseline vs optimized PushdownDB",
        lambda sf, rows: {"sf": sf},
        ("optimized_faster_on_geomean",
         "geomean_speedup > 2.0",
         "geomean_cost_ratio < 1.0"),  # paper: 30% cheaper on geo-mean
        ("query", "config", "runtime_s_10gb", "cost_usd_10gb",
         "cost_scan_10gb", "cost_compute_10gb"),
        "Paper: optimized PushdownDB 6.7x faster and 30% cheaper on geo-mean\n"
        "across operator micro-queries + TPC-H queries; baseline within 2x of\n"
        "Presto (sanity). Ours: optimized wins every query; geo-mean factors\n"
        "below. Our baseline's compute engine is Spark SQL itself -- a mature\n"
        "engine playing the Presto role by construction -- while baseline\n"
        "*timing* is modeled with the paper's Python-stack rates (DESIGN S6).",
    ),
    Figure(
        "fig11_parquet", "Figure 11 — CSV vs Parquet",
        lambda sf, rows: {"n_rows": rows // 2},
        ("parquet_wins_wide_selective",
         "advantage_fades_with_selectivity",
         "narrow_table_close"),
        ("n_cols", "selectivity", "fmt", "runtime_s_10gb", "bytes_scanned",
         "bytes_returned"),
        "Paper: Parquet substantially beats CSV on 10/20-column tables under\n"
        "selective filters (column-chunk scan), the advantage fading as\n"
        "selectivity -> 1 because responses are CSV either way; 1-column\n"
        "tables are a wash. Ours matches all three effects.",
    ),
)
