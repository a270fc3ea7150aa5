"""The figure registry, checked without a SparkSession.

``repro.experiments.FIGURES`` drives ``jobs/run_figure.py``,
``benchmarks/bench_figures.py`` and ``jobs/write_experiments_md.py``.
These tests pin that it covers every figure module once, that its gates
hold on the committed benchmark results, that the committed
EXPERIMENTS.md is what it renders, and that both entry points see all
of it.
"""
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import repro.experiments
from repro.experiments import FIGURES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


def test_every_figure_module_registered_once():
    modules = sorted(
        p.stem
        for p in pathlib.Path(repro.experiments.__file__).parent.glob("fig*_*.py")
    )
    assert len(modules) == 11
    assert sorted(fig.name for fig in FIGURES) == modules


@pytest.mark.parametrize("fig", FIGURES, ids=lambda fig: fig.name)
def test_gates_hold_on_committed_results(fig):
    headline = json.loads(
        (ROOT / "benchmarks" / "results" / f"{fig.name}.json").read_text()
    )["headline"]
    assert fig.gates
    assert fig.failed_gates(headline) == []


def test_experiments_md_matches_registry_and_results():
    render = runpy.run_path(str(ROOT / "jobs" / "write_experiments_md.py"))["render"]
    assert render() == (ROOT / "EXPERIMENTS.md").read_text()


def test_failed_gates_reports_the_broken_gate():
    fig = next(f for f in FIGURES if f.name == "fig10_tpch")
    headline = {
        "optimized_faster_on_geomean": True,
        "geomean_speedup": 2.0,  # the gate is strict: > 2.0
        "geomean_cost_ratio": 0.7,
    }
    assert fig.failed_gates(headline) == ["geomean_speedup > 2.0"]
    with pytest.raises(KeyError):
        fig.failed_gates({})


def test_bench_collects_every_figure():
    out = _run(
        "-m", "pytest", "benchmarks", "--collect-only", "-q",
        "-p", "no:cacheprovider",
    )
    assert out.returncode == 0, out.stdout + out.stderr
    ids = [line for line in out.stdout.splitlines() if "::" in line]
    assert ids == [
        f"benchmarks/bench_figures.py::test_figure[{fig.name}]" for fig in FIGURES
    ]


def test_run_figure_rejects_unknown_name():
    out = _run("jobs/run_figure.py", "fig99_nope")
    assert out.returncode != 0
    for fig in FIGURES:
        assert fig.name in out.stderr
