"""Figure 6: hybrid group-by's S3/server split (paper SVI-C.2).

Zipfian group sizes (theta=1.1, 100 groups); sweep how many of the
largest groups are aggregated inside S3 (0..10). For each setting the
figure shows the S3-side aggregation time, the server-side aggregation
time (they run concurrently; the phase max is the runtime), and the
bytes returned from S3. Paper claim: pushing more groups raises S3-side
time but cuts returned bytes; 6-8 pushed groups is the sweet spot.
"""
from __future__ import annotations

from repro import synth_data
from repro.core import groupby_ops
from repro.core.runner import PERF, Runner
from repro.core.tables import get_or_create
from repro.experiments import common

DEFAULT_N_ROWS = 500_000
DEFAULT_SPLITS = (0, 2, 4, 6, 8, 10)
VALUE_COLS = ["v1", "v2", "v3", "v4"]
THETA = 1.1

PAPER = [
    {"claim": "s3-agg time grows with pushed groups; returned bytes shrink"},
    {"claim": "runtime = max(s3-agg, server-agg); best at 6-8 pushed groups"},
]


def table(store, n_rows: int = DEFAULT_N_ROWS):
    return get_or_create(
        store,
        f"fig6_groups_zipf_{n_rows}",
        lambda: synth_data.groups_table_frame(n=n_rows, kind="zipf", theta=THETA),
    )


def run(spark, store, *, n_rows: int = DEFAULT_N_ROWS,
        splits=DEFAULT_SPLITS) -> list[dict]:
    t = table(store, n_rows)
    factor = common.table_factor(t.total_bytes)
    rows = []
    for n_pushed in splits:
        r = groupby_ops.hybrid_groupby(
            spark, Runner(store), t, "g1", VALUE_COLS, n_pushed=n_pushed
        )
        row = common.result_row(r, factor, n_pushed=n_pushed)
        projected = r.project(factor)
        for p in projected.phases:
            if p.name == "s3-aggregate":
                row["s3_agg_s_10gb"] = round(PERF.phase_time(p), 3)
            if p.name == "server-aggregate":
                row["server_agg_s_10gb"] = round(PERF.phase_time(p), 3)
                row["tail_bytes_returned"] = p.usage.bytes_returned
        row.setdefault("s3_agg_s_10gb", 0.0)
        rows.append(row)
    return rows


def headline(rows: list[dict]) -> dict:
    by = {r["n_pushed"]: r for r in rows}
    splits = sorted(by)
    best = min(splits, key=lambda s: by[s]["runtime_s_10gb"])
    return {
        "best_split": best,
        "best_split_in_sweet_spot": splits[1] <= best,  # pushing some groups wins
        "s3_time_grows": by[splits[-1]]["s3_agg_s_10gb"] > by[splits[1]]["s3_agg_s_10gb"],
        "returned_bytes_shrink": (
            by[splits[-1]]["tail_bytes_returned"] < by[splits[0]]["tail_bytes_returned"]
        ),
    }
