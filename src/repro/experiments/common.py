"""Shared harness for the figure reproductions.

The paper's testbed is a 10 GB dataset; we measure at SF<=0.1 and
*project* runtime and cost to paper scale by linearly scaling the
measured usage (bytes, requests, server rows) -- see
``QueryResult.project``. Every experiment row carries both views:

* ``runtime_s`` / ``cost_usd``           -- modeled at measured scale
* ``runtime_s_10gb`` / ``cost_usd_10gb`` -- projected to 10 GB

Projection factors: TPC-H experiments use ``10 / sf`` (the paper ran
TPC-H SF=10); synthetic-table experiments use ``10 GiB / table bytes``
(the paper's synthetic tables were 10 GB).
"""
from __future__ import annotations

from repro.core.runner import QueryResult

PAPER_TABLE_BYTES = 10 * 1024 ** 3


def tpch_factor(sf: float) -> float:
    """Measured SF -> the paper's TPC-H SF=10."""
    return 10.0 / sf


def table_factor(table_bytes: int) -> float:
    """Measured synthetic table -> the paper's 10 GB table."""
    return PAPER_TABLE_BYTES / max(1, table_bytes)


def result_row(result: QueryResult, factor: float, **extra) -> dict:
    """Flatten a QueryResult into an experiment row (both scales)."""
    projected = result.project(factor)
    row = {
        **extra,
        "runtime_s": round(result.runtime_s, 4),
        "cost_usd": round(result.cost.total, 8),
        "runtime_s_10gb": round(projected.runtime_s, 3),
        "cost_usd_10gb": round(projected.cost.total, 6),
        "cost_compute_10gb": round(projected.cost.compute, 6),
        "cost_requests_10gb": round(projected.cost.requests, 6),
        "cost_scan_10gb": round(projected.cost.scan, 6),
        "cost_transfer_10gb": round(projected.cost.transfer, 6),
        "bytes_scanned": result.usage.bytes_scanned,
        "bytes_returned": result.usage.bytes_returned,
        "bytes_transferred": result.usage.bytes_transferred,
        "requests": result.usage.total_requests,
    }
    return row


def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Plain aligned text table (what jobs/benchmarks print)."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "-" * len(header)
    lines = [header, sep]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def print_experiment(title: str, rows: list[dict], paper_rows: list[dict],
                     columns: list[str] | None = None) -> None:
    print(f"\n=== {title} ===")
    print(format_rows(rows, columns))
    if paper_rows:
        print("\n--- paper reference (read off the figure) ---")
        print(format_rows(paper_rows))


def geomean(xs) -> float:
    import math

    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else float("nan")
