"""The benchmark's self-tests run with the suite.

``perfbench/selftest.py`` checks, among other things, that the metric
names and units perfbench emits are exactly those ``BENCHMARK.json``
declares; running it here makes such a drift fail the suite. It needs no
Spark and takes about a second.

perfbench's traced run rebinds named functions of the program; a rename
would fail only there, so the storage layers' hooks are installed here.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_storage_layer_hooks_install():
    from perfbench.layers import Patcher, Tracer, install_storage_layers
    from repro.s3sim import csvio, select_engine

    originals = [select_engine.parse, select_engine.eval_query,
                 select_engine.s3_select, csvio.from_csv_bytes, csvio.to_csv_bytes]
    patcher = Patcher()
    install_storage_layers(Tracer(), patcher)
    try:
        assert select_engine.s3_select is not originals[2]
    finally:
        patcher.undo()
    assert [select_engine.parse, select_engine.eval_query,
            select_engine.s3_select, csvio.from_csv_bytes,
            csvio.to_csv_bytes] == originals
