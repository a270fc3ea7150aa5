"""Benchmark fixtures: one shared store at benchmark scale (SF~=0.1).

Tables persist in one session-scoped store so figures share them; set
``REPRO_BENCH_STORE`` to keep that store in a fixed directory across
runs. Scale and the per-figure test live in ``bench_figures.py``.
"""
import os

import pytest

from repro.s3sim import ObjectStore


@pytest.fixture(scope="session")
def bench_store(tmp_path_factory) -> ObjectStore:
    root = os.environ.get("REPRO_BENCH_STORE")
    if root:
        return ObjectStore(root)
    return ObjectStore(tmp_path_factory.mktemp("bench-store"))
