"""Figure 11: CSV vs Parquet under S3 Select (paper SIX).

Tables of 1, 10, and 20 float columns; a filter query returns the single
column ``c1`` with selectivity swept 0 -> 1. Paper claims: Parquet
substantially outperforms CSV on the 10/20-column tables when the
filter is selective (only one column chunk is scanned vs the whole CSV
object), but the advantage fades as more data passes -- S3 Select
returns CSV regardless of input format, so at high selectivity both
formats are bottlenecked by the same (uncompressed) network transfer.
On the 1-column table the formats are close.
"""
from __future__ import annotations

from repro import synth_data
from repro.core.runner import Runner
from repro.core.tables import get_or_create
from repro.experiments import common

DEFAULT_N_ROWS = 400_000
DEFAULT_N_COLS = (1, 10, 20)
DEFAULT_SELECTIVITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

PAPER = [
    {"claim": "parquet >> csv on 10/20-col tables at selective filters"},
    {"claim": "advantage fades as selectivity -> 1 (CSV-format responses bottleneck both)"},
    {"claim": "1-col table: csv ~= parquet"},
]


def _run_one(spark, store, t, fmt: str, sel: float):
    """S3-side filter returning the single filtered column c1."""
    from repro.datasource.s3select import read_table

    runner = Runner(store)
    with runner.phase("s3-filter", n_objects=len(t.keys)) as p:
        df = read_table(
            spark, runner.store.root, t.name, columns=["c1"], fmt=fmt
        ).filter(f"c1 < {sel!r}")
        out = df.toPandas()
        p.hash_rows = len(out)
    return runner.finish(f"fig11 {fmt} sel={sel}", out)


def run(spark, store, *, n_rows: int = DEFAULT_N_ROWS, n_cols_sweep=DEFAULT_N_COLS,
        selectivities=DEFAULT_SELECTIVITIES) -> list[dict]:
    rows = []
    for n_cols in n_cols_sweep:
        t = get_or_create(
            store,
            f"fig11_wide_{n_cols}_{n_rows}",
            lambda: synth_data.wide_table_frame(n=n_rows, n_cols=n_cols),
            parquet=True,
        )
        factor = common.table_factor(t.total_bytes)
        for sel in selectivities:
            for fmt in ("csv", "parquet"):
                r = _run_one(spark, store, t, fmt, sel)
                rows.append(
                    common.result_row(
                        r, factor, n_cols=n_cols, selectivity=sel, fmt=fmt
                    )
                )
    return rows


def headline(rows: list[dict]) -> dict:
    by = {(r["n_cols"], r["selectivity"], r["fmt"]): r for r in rows}
    cols = sorted({r["n_cols"] for r in rows})
    sels = sorted({r["selectivity"] for r in rows})
    wide, lo, hi = cols[-1], sels[0], sels[-1]
    adv_sel = (
        by[(wide, lo, "csv")]["runtime_s_10gb"]
        / by[(wide, lo, "parquet")]["runtime_s_10gb"]
    )
    adv_unsel = (
        by[(wide, hi, "csv")]["runtime_s_10gb"]
        / by[(wide, hi, "parquet")]["runtime_s_10gb"]
    )
    narrow_ratio = (
        by[(cols[0], lo, "csv")]["runtime_s_10gb"]
        / by[(cols[0], lo, "parquet")]["runtime_s_10gb"]
    )
    return {
        "parquet_advantage_wide_selective": round(adv_sel, 2),
        "parquet_advantage_wide_unselective": round(adv_unsel, 2),
        "advantage_fades_with_selectivity": adv_unsel < adv_sel,
        "narrow_table_close": 0.4 < narrow_ratio < 2.5,
        "parquet_wins_wide_selective": adv_sel > 1.5,
    }
