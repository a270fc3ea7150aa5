"""Figure 3: join algorithms vs orders-table selectivity (paper SV-B.2).

Customer selectivity fixed at -950 (highly selective build side), Bloom
FPR 0.01, ``upper_o_orderdate`` swept from '1992-03-01' (selective) to
None (everything). Paper claims: filtered join beats baseline while the
orders predicate is selective and converges to it as the predicate
passes everything; Bloom join stays fast and flat because the Bloom
filter keeps returned orders rows small regardless of the date
predicate; Bloom cost is comparable or cheaper.
"""
from __future__ import annotations

from repro.core import join_ops
from repro.core.runner import Runner
from repro.core.tables import load_tpch
from repro.experiments import common

DEFAULT_SWEEP = (
    "1992-03-01", "1992-06-01", "1993-01-01", "1994-01-01", "1995-01-01", None
)

PAPER = [
    {"algo": "baseline", "claim": "flat, slow"},
    {"algo": "filtered", "claim": "fast when date filter selective; converges to baseline at None"},
    {"algo": "bloom fpr=0.01", "claim": "fast and ~flat across the sweep"},
]


def run(spark, store, *, sf: float = 0.1, sweep=DEFAULT_SWEEP,
        upper_c_acctbal: float = -950) -> list[dict]:
    tabs = load_tpch(store, sf=sf, which=("customer", "orders"))
    c, o = tabs["customer"], tabs["orders"]
    factor = common.tpch_factor(sf)
    rows = []
    for date in sweep:
        for algo, fn in (
            ("baseline", join_ops.baseline_join),
            ("filtered", join_ops.filtered_join),
            ("bloom", join_ops.bloom_join),
        ):
            r = fn(spark, Runner(store), c, o, upper_c_acctbal, date)
            rows.append(
                common.result_row(
                    r, factor, upper_o_orderdate=date or "None", algo=algo
                )
            )
    return rows


def headline(rows: list[dict]) -> dict:
    by = {(r["algo"], r["upper_o_orderdate"]): r for r in rows}
    dates = [r["upper_o_orderdate"] for r in rows if r["algo"] == "baseline"]
    sel, unsel = dates[0], dates[-1]  # most / least selective
    return {
        "filtered_speedup_vs_baseline_when_selective": round(
            by[("baseline", sel)]["runtime_s_10gb"]
            / by[("filtered", sel)]["runtime_s_10gb"],
            2,
        ),
        "filtered_converges_to_baseline": abs(
            by[("filtered", unsel)]["runtime_s_10gb"]
            - by[("baseline", unsel)]["runtime_s_10gb"]
        ) / by[("baseline", unsel)]["runtime_s_10gb"] < 0.35,
        "bloom_flat": (
            max(by[("bloom", d)]["runtime_s_10gb"] for d in dates)
            / min(by[("bloom", d)]["runtime_s_10gb"] for d in dates)
            < 3.0
        ),
        "bloom_beats_baseline_at_none": (
            by[("bloom", unsel)]["runtime_s_10gb"]
            < by[("baseline", unsel)]["runtime_s_10gb"]
        ),
    }
