"""Figure 8: sampling top-K vs sample size (paper SVII-C.1).

K=100 on lineitem; sample size S swept around the model's optimum
``S* = sqrt(K*N/alpha)``. The figure shows phase-1 (sampling) time
growing with S, phase-2 (scanning) time shrinking (a larger sample
gives a tighter threshold), and total returned bytes minimized near S*.
The paper's instance (N=6e7, alpha=0.1) gives S* ~= 2.4e5; ours scales
with our N.
"""
from __future__ import annotations

from repro.core import topk_ops
from repro.core.runner import PERF, Runner
from repro.core.tables import load_tpch
from repro.experiments import common

DEFAULT_K = 100

PAPER = [
    {"claim": "phase-1 time grows with S; phase-2 time shrinks"},
    {"claim": "returned bytes U-shaped, min near S* = sqrt(KN/alpha) ~= 2.4e5 (paper N)"},
    {"claim": "performance stable in a wide band around S*"},
]


def default_sweep(n_rows: int) -> tuple:
    """Sample sizes from ~K up to ~N/6, like the paper's 1e3..1e7."""
    out = []
    s = 1000
    while s < n_rows / 4:
        out.append(s)
        s *= 5
    return tuple(out) or (1000,)


def run(spark, store, *, sf: float = 0.1, k: int = DEFAULT_K,
        sweep=None) -> list[dict]:
    li = load_tpch(store, sf=sf, which=("lineitem",))["lineitem"]
    factor = common.tpch_factor(sf)
    sweep = sweep or default_sweep(li.n_rows)
    rows = []
    for s in sweep:
        r = topk_ops.sampling_topk(
            spark, Runner(store), li, "l_extendedprice", k, sample_size=s
        )
        row = common.result_row(r, factor, sample_size=s)
        projected = r.project(factor)
        for p in projected.phases:
            if p.name == "sample":
                row["sample_s_10gb"] = round(PERF.phase_time(p), 3)
            if p.name == "scan":
                row["scan_s_10gb"] = round(PERF.phase_time(p), 3)
        rows.append(row)
    rows.append(
        {
            "sample_size": "S* (model)",
            "runtime_s_10gb": topk_ops.optimal_sample_size(
                li, "l_extendedprice", k
            ),
        }
    )
    return rows


def headline(rows: list[dict]) -> dict:
    data = [r for r in rows if isinstance(r["sample_size"], int)]
    by = {r["sample_size"]: r for r in data}
    sizes = sorted(by)
    best = min(sizes, key=lambda s: by[s]["runtime_s_10gb"])
    s_star = next(
        r["runtime_s_10gb"] for r in rows if r["sample_size"] == "S* (model)"
    )
    return {
        "best_sample_size": best,
        "model_optimum": s_star,
        "best_within_10x_of_model": s_star / 10 <= best <= s_star * 10,
        "sample_time_grows": by[sizes[-1]]["sample_s_10gb"] >= by[sizes[0]]["sample_s_10gb"],
        "scan_time_shrinks": by[sizes[-1]]["scan_s_10gb"] <= by[sizes[0]]["scan_s_10gb"],
    }
