"""The benchmark's self-tests run with the suite.

``perfbench/selftest.py`` checks, among other things, that the metric
names and units perfbench emits are exactly those ``BENCHMARK.json``
declares; running it here makes such a drift fail the suite. It needs no
Spark and takes about a second.
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
