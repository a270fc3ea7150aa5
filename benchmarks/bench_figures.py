"""pytest-benchmark targets regenerating the paper's Figures 1-11.

One test per ``repro.experiments.FIGURES`` record. Each measures one
full sweep (pedantic, single round -- a sweep is minutes of work, not
microseconds), prints the paper-vs-measured table, saves the rows under
``benchmarks/results/<name>.json`` for EXPERIMENTS.md, and asserts the
figure's headline gates on the measured rows.

``REPRO_BENCH_SF`` (default 0.1) and ``REPRO_BENCH_ROWS`` (default
1,000,000 for the 10GB-equivalent synthetic tables) control scale.
"""
import json
import os
import pathlib

import pytest

from repro.experiments import FIGURES, common

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
BENCH_ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "1000000"))
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(fig, rows: list, headline: dict) -> None:
    """Print the figure table and persist it for EXPERIMENTS.md."""
    common.print_experiment(fig.title, rows, fig.module.PAPER)
    print("\nheadline:", headline)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{fig.name}.json").write_text(
        json.dumps({"rows": rows, "headline": headline}, indent=1, default=str)
    )


@pytest.mark.parametrize("fig", FIGURES, ids=lambda fig: fig.name)
def test_figure(benchmark, spark, bench_store, fig):
    exp = fig.module
    kwargs = fig.bench_kwargs(BENCH_SF, BENCH_ROWS)
    rows = benchmark.pedantic(
        lambda: exp.run(spark, bench_store, **kwargs), rounds=1, iterations=1,
    )
    h = exp.headline(rows)
    record(fig, rows, h)
    assert not fig.failed_gates(h)
