"""Figure 9: server-side vs sampling top-K as K grows (paper SVII-C.2).

K swept over decades (paper: 1..1e5 of 6e7 rows ~= up to 0.17% of the
table; ours scales to the same fraction); the sampling algorithm picks
its sample size from the ``sqrt(KN/alpha)`` model. Paper claims: both
algorithms slow as K grows (bigger heap, more qualifying rows), but
sampling top-K is consistently faster *and* cheaper than server-side.
"""
from __future__ import annotations

from repro.core import topk_ops
from repro.core.runner import Runner
from repro.core.tables import load_tpch
from repro.experiments import common

PAPER = [
    {"claim": "runtime grows with K for both algorithms"},
    {"claim": "sampling top-K consistently faster and cheaper than server-side"},
]


def default_sweep(n_rows: int) -> tuple:
    """K over decades up to ~0.17% of the table, like the paper."""
    ks, k = [], 1
    while k <= max(1, n_rows * 0.0017):
        ks.append(k)
        k *= 10
    return tuple(ks)


def run(spark, store, *, sf: float = 0.1, sweep=None) -> list[dict]:
    li = load_tpch(store, sf=sf, which=("lineitem",))["lineitem"]
    factor = common.tpch_factor(sf)
    sweep = sweep or default_sweep(li.n_rows)
    rows = []
    for k in sweep:
        r = topk_ops.server_side_topk(
            spark, Runner(store), li, "l_extendedprice", k
        )
        rows.append(common.result_row(r, factor, k=k, algo="server-side"))
        r = topk_ops.sampling_topk(
            spark, Runner(store), li, "l_extendedprice", k
        )
        rows.append(common.result_row(r, factor, k=k, algo="sampling"))
    return rows


def headline(rows: list[dict]) -> dict:
    by = {(r["algo"], r["k"]): r for r in rows}
    ks = sorted({r["k"] for r in rows})
    return {
        "sampling_always_faster": all(
            by[("sampling", k)]["runtime_s_10gb"]
            < by[("server-side", k)]["runtime_s_10gb"]
            for k in ks
        ),
        "sampling_always_cheaper": all(
            by[("sampling", k)]["cost_usd_10gb"]
            < by[("server-side", k)]["cost_usd_10gb"]
            for k in ks
        ),
        "speedup_at_k100": round(
            by[("server-side", 100)]["runtime_s_10gb"]
            / by[("sampling", 100)]["runtime_s_10gb"],
            2,
        ) if ("sampling", 100) in by else None,
    }
