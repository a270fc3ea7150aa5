"""Figure 5: group-by algorithms vs number of groups (paper SVI-C.1).

Uniform group sizes; sweep the number of groups 2..32 (group columns
g1..g5 of the synthetic table carry 2^i groups each); aggregate four
value columns. Paper claims: server-side and filtered group-by are flat
in the group count, with filtered ahead because it ships only 4+1 of
the 20 columns; S3-side group-by is ~4.1x better than filtered at two
groups and degrades as the CASE expression grows with group count;
costs stay close until ~8 groups.
"""
from __future__ import annotations

from repro import synth_data
from repro.core import groupby_ops
from repro.core.runner import Runner
from repro.core.tables import get_or_create
from repro.experiments import common

DEFAULT_N_ROWS = 500_000
DEFAULT_GROUP_COUNTS = (2, 4, 8, 16, 32)  # columns g1..g5
VALUE_COLS = ["v1", "v2", "v3", "v4"]

PAPER = [
    {"algo": "server-side", "claim": "flat; slowest (ships all 20 columns)"},
    {"algo": "filtered", "claim": "flat; 1.64x server-side (ships 4 agg columns)"},
    {"algo": "s3-side", "claim": "4.1x filtered at 2 groups; degrades with more groups"},
    {"algo": "cost", "claim": "all three close until ~8 groups"},
]


def table(store, n_rows: int = DEFAULT_N_ROWS):
    return get_or_create(
        store,
        f"fig5_groups_uniform_{n_rows}",
        lambda: synth_data.groups_table_frame(n=n_rows, kind="uniform"),
    )


def run(spark, store, *, n_rows: int = DEFAULT_N_ROWS,
        group_counts=DEFAULT_GROUP_COUNTS) -> list[dict]:
    t = table(store, n_rows)
    factor = common.table_factor(t.total_bytes)
    rows = []
    for n_groups in group_counts:
        gcol = f"g{n_groups.bit_length() - 1}"  # 2**i groups live in g{i}
        for algo, fn in (
            ("server-side", groupby_ops.server_side_groupby),
            ("filtered", groupby_ops.filtered_groupby),
            ("s3-side", groupby_ops.s3_side_groupby),
        ):
            r = fn(spark, Runner(store), t, gcol, VALUE_COLS)
            rows.append(
                common.result_row(r, factor, n_groups=n_groups, algo=algo)
            )
    return rows


def headline(rows: list[dict]) -> dict:
    by = {(r["algo"], r["n_groups"]): r for r in rows}
    counts = sorted({r["n_groups"] for r in rows})
    lo, hi = counts[0], counts[-1]
    return {
        "filtered_speedup_vs_server": round(
            by[("server-side", lo)]["runtime_s_10gb"]
            / by[("filtered", lo)]["runtime_s_10gb"],
            2,
        ),
        "s3_speedup_vs_filtered_at_2_groups": round(
            by[("filtered", lo)]["runtime_s_10gb"]
            / by[("s3-side", lo)]["runtime_s_10gb"],
            2,
        ),
        "s3_degrades_with_groups": (
            by[("s3-side", hi)]["runtime_s_10gb"]
            > by[("s3-side", lo)]["runtime_s_10gb"]
        ),
        "server_filtered_flat": (
            max(by[("filtered", c)]["runtime_s_10gb"] for c in counts)
            / min(by[("filtered", c)]["runtime_s_10gb"] for c in counts)
            < 1.3
        ),
    }
