"""Self-tests of the benchmark (no Spark needed).

    python3 perfbench/selftest.py

Kept out of the test suite's collection (``tests/``, ``benchmarks/``).
"""
from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pandas as pd  # noqa: E402

from perfbench import bench, layers  # noqa: E402
from perfbench.workloads import WORKLOADS, Step, frames_match  # noqa: E402


def _span(sid, name, start, end, parent=None, pid=1, query="t1.q", **counts):
    return {"id": sid, "name": name, "parent": parent, "pid": pid,
            "query": query, "start": start, "end": end, **counts}


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(declared, bench.END_TO_END)

    def test_per_layer_names_and_units_match(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(declared, bench.PER_LAYER)

    def test_declared_workloads_exist(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_traced_run_emits_every_per_layer_metric(self):
        _, [o] = _run(pd.DataFrame({"x": [1]}), pd.DataFrame({"x": [1]}))
        spans = [
            _span("1:1", "query", 0.0, 2.0),
            _span("1:2", "select", 0.5, 1.0, parent="1:1"),
            _span("2:1", "datasource.read", 0.2, 0.9, pid=2, rows=5),
            _span("1:3", "store.put", 0.0, 0.1, query="setup0", bytes=10),
        ]
        metrics, lines = bench.layer_metrics(spans, ["t1"], [o], 0.1, driver_pid=1)
        self.assertEqual(list(metrics), list(bench.PER_LAYER))
        self.assertEqual(metrics["store.put.bytes"][0], 10)
        self.assertAlmostEqual(metrics["trace.coverage_min"][0], 0.25)
        self.assertEqual(len(lines), 1)


def _run(got, expected, tags=("p1",)):
    """Passes of one step whose result is ``got``, checked against ``expected``."""
    from repro.core.runner import Runner
    from repro.s3sim import ObjectStore

    step = Step("q", lambda spark, runner: runner.finish("q", got),
                lambda df: frames_match(df, expected))
    tally = bench.Tally()
    with tempfile.TemporaryDirectory() as tmp:
        outs = [o for tag in tags for o in bench.run_pass(
            [step], None, lambda: Runner(ObjectStore(tmp)), tally, tag)]
    return tally, outs


class FailedRatio(unittest.TestCase):
    def _tally(self, got, expected):
        return _run(got, expected, ("p1", "p2"))[0]

    def test_right_result_counts_no_failure(self):
        t = self._tally(pd.DataFrame({"a": [1.0, 2.0]}), pd.DataFrame({"a": [2.0, 1.0]}))
        self.assertEqual((t.attempted, t.failed, t.failed_ratio), (2, 0, 0.0))
        self.assertTrue(t.correct)

    def test_wrong_result_raises_failed_ratio(self):
        t = self._tally(pd.DataFrame({"a": [1.0, 2.5]}), pd.DataFrame({"a": [1.0, 2.0]}))
        self.assertEqual(t.failed, 2)
        self.assertGreater(t.failed_ratio, 0)
        self.assertFalse(t.correct)

    def test_raising_query_counts_as_failed(self):
        def boom(spark, runner):
            raise ValueError("no")

        tally = bench.Tally()
        bench.run_pass([Step("q", boom, lambda df: None)], None, lambda: None,
                       tally, "p1")
        self.assertEqual(tally.failed_ratio, 1.0)

    def test_count_drift_fails_the_run(self):
        tally = bench.Tally()
        tally.add(bench.Outcome("q", 1.0, None, (("bytes_scanned", 1),), None), "p1")
        tally.add(bench.Outcome("q", 1.0, None, (("bytes_scanned", 2),), None), "t1")
        self.assertEqual(tally.failed, 0)
        self.assertEqual(len(tally.drift), 1)
        self.assertFalse(tally.correct)


class SelfTime(unittest.TestCase):
    def test_partly_overlapping_children(self):
        # parent [0, 10]; children [1, 4] and [3, 6] overlap each other,
        # [8, 12] runs past the parent's end: covered = [1, 6] + [8, 10].
        spans = [
            _span("p", "select", 0.0, 10.0),
            _span("a", "csvio.decode", 1.0, 4.0, parent="p"),
            _span("b", "sql_eval.eval_query", 3.0, 6.0, parent="p"),
            _span("c", "csvio.encode", 8.0, 12.0, parent="p"),
            _span("d", "usage.record", 2.0, 3.0, parent="a"),
        ]
        self_s = layers.self_times(spans)
        self.assertAlmostEqual(self_s["p"], 3.0)
        self.assertAlmostEqual(self_s["a"], 2.0)  # grandchild counts for a only
        self.assertAlmostEqual(self_s["b"], 3.0)
        self.assertAlmostEqual(self_s["c"], 4.0)

    def test_coverage_skips_grouping_spans(self):
        spans = [
            _span("q", "query", 0.0, 4.0),
            _span("r", "runner.phase", 0.0, 4.0, parent="q"),
            _span("s", "select", 1.0, 2.0, parent="r"),
            _span("w", "select", 0.0, 4.0, pid=2),  # a worker's span
        ]
        self.assertEqual(layers.query_coverage(spans, driver_pid=1), {"t1.q": 0.25})


if __name__ == "__main__":
    unittest.main()
