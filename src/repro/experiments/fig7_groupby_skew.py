"""Figure 7: group-by algorithms vs data skew (paper SVI-C.2).

100 groups per column; Zipf theta swept 0 -> 1.3. Paper claims:
server-side and filtered group-by are flat in skew (they ship and
aggregate everything regardless); hybrid group-by pulls ahead as skew
grows -- 31% faster than filtered at theta=1.3 -- but has no cost
advantage because its sampling phase scans the table one extra time.
"""
from __future__ import annotations

from repro import synth_data
from repro.core import groupby_ops
from repro.core.runner import Runner
from repro.core.tables import get_or_create
from repro.experiments import common

DEFAULT_N_ROWS = 500_000
DEFAULT_THETAS = (0.0, 0.6, 0.9, 1.1, 1.3)
VALUE_COLS = ["v1", "v2", "v3", "v4"]

PAPER = [
    {"algo": "server-side/filtered", "claim": "flat across skew"},
    {"algo": "hybrid", "claim": "wins under skew: 31% faster than filtered at theta=1.3"},
    {"algo": "cost", "claim": "hybrid not cheaper (extra sampling scan)"},
]


def run(spark, store, *, n_rows: int = DEFAULT_N_ROWS,
        thetas=DEFAULT_THETAS) -> list[dict]:
    rows = []
    for theta in thetas:
        t = get_or_create(
            store,
            f"fig7_groups_zipf_{theta}_{n_rows}",
            lambda: synth_data.groups_table_frame(n=n_rows, kind="zipf", theta=theta),
        )
        factor = common.table_factor(t.total_bytes)
        for algo, fn in (
            ("server-side", groupby_ops.server_side_groupby),
            ("filtered", groupby_ops.filtered_groupby),
            ("hybrid", groupby_ops.hybrid_groupby),
        ):
            r = fn(spark, Runner(store), t, "g1", VALUE_COLS)
            rows.append(common.result_row(r, factor, theta=theta, algo=algo))
    return rows


def headline(rows: list[dict]) -> dict:
    by = {(r["algo"], r["theta"]): r for r in rows}
    thetas = sorted({r["theta"] for r in rows})
    hi = thetas[-1]
    return {
        "hybrid_gain_vs_filtered_at_max_skew": round(
            by[("filtered", hi)]["runtime_s_10gb"]
            / by[("hybrid", hi)]["runtime_s_10gb"],
            2,
        ),
        "hybrid_wins_at_high_skew": (
            by[("hybrid", hi)]["runtime_s_10gb"]
            < by[("filtered", hi)]["runtime_s_10gb"]
        ),
        "filtered_flat": (
            max(by[("filtered", t)]["runtime_s_10gb"] for t in thetas)
            / min(by[("filtered", t)]["runtime_s_10gb"] for t in thetas)
            < 1.3
        ),
        "hybrid_not_cheaper": (
            by[("hybrid", hi)]["cost_usd_10gb"]
            >= 0.95 * by[("filtered", hi)]["cost_usd_10gb"]
        ),
    }
