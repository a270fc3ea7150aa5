"""Figure 1: filter algorithms vs selectivity (paper SIV-B).

Sweeps filter selectivity and compares server-side filter, S3-side
filter, and S3-side indexing on runtime and cost. Paper claims:

* S3-side filter is ~10x faster than server-side, stable in selectivity,
  but ~24% more expensive (scan+return dollars vs compute dollars);
* indexing matches S3-side filter only for highly selective predicates
  (<= ~1e-4 of rows) and collapses beyond that under its per-row GET
  request storm; at high selectivity it is ~2.7x cheaper than
  server-side because it scans only the (narrow) index table.

The paper sweeps 1e-7..1e-2 over a 10 GB table; at our scale the same
absolute-row-count effects appear between 1e-5 and 1e-2, and dollar
numbers are projected to 10 GB for the side-by-side.
"""
from __future__ import annotations

from repro import synth_data
from repro.core import filter_ops
from repro.core.runner import Runner
from repro.core.tables import get_or_create
from repro.experiments import common

DEFAULT_N_ROWS = 1_000_000
DEFAULT_SELECTIVITIES = (1e-5, 1e-4, 1e-3, 1e-2)

# Read off Figure 1 (10 GB table): approximate seconds / dollars.
PAPER = [
    {"algo": "server-side", "runtime_s_paper": "~27 (flat)", "cost_paper": "~$0.016, mostly compute"},
    {"algo": "s3-side", "runtime_s_paper": "~2.7 (flat, 10x)", "cost_paper": "~$0.020 (+24%), mostly scan"},
    {"algo": "s3-index", "runtime_s_paper": "~1 below 1e-4, worst at 1e-2", "cost_paper": "2.7x cheaper at 1e-7, most expensive at 1e-2"},
]


def table(store, n_rows: int = DEFAULT_N_ROWS):
    return get_or_create(
        store,
        f"fig1_filter_{n_rows}",
        lambda: synth_data.filter_table_frame(n=n_rows),
        index_columns=("u",),
    )


def run(spark, store, *, n_rows: int = DEFAULT_N_ROWS,
        selectivities=DEFAULT_SELECTIVITIES) -> list[dict]:
    t = table(store, n_rows)
    factor = common.table_factor(t.total_bytes)
    rows = []
    for sel in selectivities:
        pred = f"u < {sel!r}"
        r = filter_ops.server_side_filter(spark, Runner(store), t, pred)
        rows.append(common.result_row(r, factor, selectivity=sel, algo="server-side"))
        r = filter_ops.s3_side_filter(spark, Runner(store), t, pred)
        rows.append(common.result_row(r, factor, selectivity=sel, algo="s3-side"))
        r = filter_ops.s3_index_filter(
            spark, Runner(store), t, "u", "<", sel
        )
        rows.append(common.result_row(r, factor, selectivity=sel, algo="s3-index"))
    return rows


def headline(rows: list[dict]) -> dict:
    """The figure's claims, computed from the measured rows."""
    by = {(r["algo"], r["selectivity"]): r for r in rows}
    sels = sorted({r["selectivity"] for r in rows})
    lo, hi = sels[0], sels[-1]
    speedup = (
        by[("server-side", lo)]["runtime_s_10gb"]
        / by[("s3-side", lo)]["runtime_s_10gb"]
    )
    cost_ratio = (
        by[("s3-side", lo)]["cost_usd_10gb"]
        / by[("server-side", lo)]["cost_usd_10gb"]
    )
    index_cheaper = (
        by[("server-side", lo)]["cost_usd_10gb"]
        / by[("s3-index", lo)]["cost_usd_10gb"]
    )
    return {
        "s3_vs_server_speedup_at_high_selectivity": round(speedup, 2),
        "s3_over_server_cost_ratio": round(cost_ratio, 3),
        "index_cost_advantage_at_high_selectivity": round(index_cheaper, 2),
        "index_fast_at_high_selectivity": (
            by[("s3-index", lo)]["runtime_s_10gb"]
            <= 1.5 * by[("s3-side", lo)]["runtime_s_10gb"]
        ),
        "index_collapses_at_low_selectivity": (
            by[("s3-index", hi)]["runtime_s_10gb"]
            > by[("s3-side", hi)]["runtime_s_10gb"]
        ),
    }
