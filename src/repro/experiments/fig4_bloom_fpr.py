"""Figure 4: Bloom join vs false-positive rate (paper SV-B.3).

Customer selectivity -950, orders unfiltered; FPR swept over
[0.0001, 0.001, 0.01, 0.1, 0.3, 0.5]. Paper claim: 0.01 is the sweet
spot -- lower rates blow up the bit-string predicate (more S3-side
compute per row), higher rates let more false-positive orders rows
through (more network + server work). Baseline and filtered join are
included as flat references.
"""
from __future__ import annotations

from repro.core import join_ops
from repro.core.runner import Runner
from repro.core.tables import load_tpch
from repro.experiments import common

DEFAULT_FPRS = (0.0001, 0.001, 0.01, 0.1, 0.3, 0.5)

PAPER = [
    {"algo": "bloom", "claim": "U-shape: best runtime and cost at fpr=0.01"},
    {"algo": "baseline/filtered", "claim": "flat references, slower than any bloom setting here"},
]


def run(spark, store, *, sf: float = 0.1, fprs=DEFAULT_FPRS,
        upper_c_acctbal: float = -950) -> list[dict]:
    tabs = load_tpch(store, sf=sf, which=("customer", "orders"))
    c, o = tabs["customer"], tabs["orders"]
    factor = common.tpch_factor(sf)
    rows = []
    for algo, fn in (
        ("baseline", join_ops.baseline_join),
        ("filtered", join_ops.filtered_join),
    ):
        r = fn(spark, Runner(store), c, o, upper_c_acctbal, None)
        rows.append(common.result_row(r, factor, fpr="-", algo=algo))
    for fpr in fprs:
        r = join_ops.bloom_join(
            spark, Runner(store), c, o, upper_c_acctbal, None, fpr=fpr
        )
        rows.append(common.result_row(r, factor, fpr=fpr, algo="bloom"))
    return rows


def headline(rows: list[dict]) -> dict:
    blooms = {r["fpr"]: r for r in rows if r["algo"] == "bloom"}
    best = min(blooms, key=lambda f: blooms[f]["runtime_s_10gb"])
    return {
        "best_fpr": best,
        "sweet_spot_mid_range": 0.001 <= best <= 0.1,
        "high_fpr_returns_more_bytes": (
            blooms[max(blooms)]["bytes_returned"]
            > blooms[min(blooms)]["bytes_returned"]
        ),
    }
