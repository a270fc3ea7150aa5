"""Measurement: set-up, warm-up, timed passes, and the traced run.

Load shape: one driver process, one query at a time (a closed loop). A
pass runs the workload's fixed query list in order; passes repeat until
the run's ``--seconds`` are used up. Timings are medians over the warm
passes. Set-up (SparkSession start, landing the tables, and the first,
untimed pass) is reported as ``setup_s``; landing is repeated
``SETUP_REPS`` times into fresh stores and its median is used.
"""
from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers
from perfbench.workloads import WORKLOADS, Step

END_TO_END = {"pass_s": "s", "setup_s": "s", "driver_peak_rss_mb": "MB"}

# name -> unit. Per traced warm pass, except store.put.* and tables.*,
# which are per landing of the workload's tables during set-up.
PER_LAYER = {
    "store.get.calls": "count", "store.get.bytes": "bytes", "store.get.s": "s",
    "store.storage_read.calls": "count", "store.storage_read.bytes": "bytes",
    "store.storage_read.s": "s",
    "store.put.calls": "count", "store.put.bytes": "bytes", "store.put.s": "s",
    "usage.record.calls": "count", "usage.record.s": "s",
    "usage.read_since.s": "s",
    "usage.select_requests": "count", "usage.get_requests": "count",
    "usage.bytes_scanned": "bytes", "usage.bytes_returned": "bytes",
    "usage.bytes_transferred": "bytes",
    "csvio.decode.calls": "count", "csvio.decode.bytes": "bytes",
    "csvio.decode.s": "s",
    "csvio.encode.calls": "count", "csvio.encode.bytes": "bytes",
    "csvio.encode.s": "s",
    "parquetio.read_columns.calls": "count", "parquetio.read_columns.s": "s",
    "sql_parser.parse.calls": "count", "sql_parser.parse.sql_bytes": "bytes",
    "sql_parser.parse.s": "s",
    "sql_eval.eval_query.calls": "count", "sql_eval.eval_query.s": "s",
    "sql_eval.eval_query.driver_s": "s",
    "sql_eval.rows_in": "count", "sql_eval.rows_out": "count",
    "sql_eval.selectivity": "ratio",
    "select.calls": "count", "select.s": "s", "select.self_s": "s",
    "select.driver_s": "s", "select.worker_s": "s",
    "datasource.read_table.s": "s",
    "datasource.read.partitions": "count", "datasource.read.rows": "count",
    "datasource.read.s": "s", "datasource.read.self_s": "s",
    "datasource.pushed_filters": "count", "datasource.rejected_filters": "count",
    "bloom.fit.calls": "count", "bloom.fit.s": "s",
    "bloom.predicate_bytes": "bytes",
    "runner.phase.s": "s", "runner.phases": "count",
    "spark.driver_blocked_s": "s", "spark.read_parallelism": "ratio",
    "tables.generate.s": "s", "tables.write.s": "s",
    "costmodel.modeled_s": "s", "costmodel.modeled_usd": "usd",
    "trace.overhead_s": "s", "trace.coverage_min": "ratio",
}

SETUP_REPS = 3
SHUFFLE_PARTITIONS = "64"  # the test suite's default


def start_spark():
    """The SparkSession, with the session confs of the test suite."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


# -- one query --------------------------------------------------------------

@dataclass
class Outcome:
    step: str
    seconds: float
    error: str | None
    fingerprint: tuple | None = None
    result: object = None


def fingerprint(result) -> tuple:
    """The counters and modeled figures that must repeat exactly."""
    return (
        tuple(sorted(result.usage.to_dict().items())),
        result.runtime_s,
        result.cost.total,
    )


def run_step(step: Step, spark, runner, tracer=None) -> Outcome:
    """Run and time one query, then check its result (outside the timing)."""
    span = tracer.span("query", step=step.name) if tracer else nullcontext()
    t = time.perf_counter()
    try:
        with span:
            result = step.run(spark, runner)
    except Exception as e:  # a failing query is counted, not fatal
        return Outcome(step.name, time.perf_counter() - t,
                       f"raised {type(e).__name__}: {e}")
    seconds = time.perf_counter() - t
    return Outcome(step.name, seconds, step.check(result.df),
                   fingerprint(result), result)


@dataclass
class Tally:
    """Attempts, failures, and the exact-count guard over a run's passes."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    _first: dict = field(default_factory=dict)

    def add(self, o: Outcome, tag: str) -> None:
        self.attempted += 1
        if o.error is not None:
            self.failed += 1
            self.errors.append(f"{tag}.{o.step}: {o.error}")
        if o.fingerprint is None:
            return
        first_tag, first = self._first.setdefault(o.step, (tag, o.fingerprint))
        if o.fingerprint != first:
            self.drift.append(
                f"{o.step}: {tag} {o.fingerprint} != {first_tag} {first}"
            )

    @property
    def failed_ratio(self) -> float:
        return self.failed / max(1, self.attempted)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.drift


def run_pass(steps, spark, new_runner, tally: Tally, tag: str,
             tracer=None, trace_dir: Path | None = None) -> list[Outcome]:
    outs = []
    for step in steps:
        if tracer is not None:
            tracer.query = f"{tag}.{step.name}"
            layers.set_current_query(trace_dir, tracer.query)
            tracer.active = True
        try:
            o = run_step(step, spark, new_runner(), tracer)
        finally:
            if tracer is not None:
                tracer.active = False
        tally.add(o, tag)
        outs.append(o)
    return outs


def pass_seconds(outs: list[Outcome]) -> float:
    return sum(o.seconds for o in outs)


# -- the run ------------------------------------------------------------------

@dataclass
class Report:
    workload: str
    env: dict
    tally: Tally
    metrics: dict  # name -> (value, unit, samples)
    per_query: dict  # step -> (median s, samples)
    trace_lines: list = field(default_factory=list)


def environment(seed: int, workload, master: str) -> dict:
    import pandas
    import pyarrow
    import pyspark

    return {
        "workload": workload.name,
        "seed": seed,
        **workload.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "master": master,
        "setup_reps": SETUP_REPS,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
    }


def _land(workload, work: Path, seed: int, rep: int):
    from repro.s3sim import ObjectStore

    root = work / f"store{rep}"
    t = time.perf_counter()
    stored = workload.land(ObjectStore(root), seed)
    return stored, time.perf_counter() - t, root


def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        master: str, log=print) -> Report:
    """One benchmark run of workload ``name`` (see the module docstring)."""
    workload = WORKLOADS[name]
    trace_dir = work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)

    t = time.perf_counter()
    spark = start_spark()
    spark_s = time.perf_counter() - t
    try:
        return _measure(workload, spark, spark_s, seed, seconds, trace,
                        work, trace_dir, master, log)
    finally:
        stop_spark(spark)


def _measure(workload, spark, spark_s, seed, seconds, trace, work,
             trace_dir, master, log) -> Report:
    from repro.core.runner import Runner
    from repro.s3sim import ObjectStore

    tracer = layers.Tracer() if trace else None
    if tracer is not None:
        layers.install_driver_layers(tracer, layers.Patcher(), spark)

    land_s, root = [], None
    for rep in range(SETUP_REPS):
        if root is not None:
            shutil.rmtree(root)
        if tracer is not None:
            tracer.query, tracer.active = f"setup{rep}", True
        stored, s, root = _land(workload, work, seed, rep)
        if tracer is not None:
            tracer.active = False
        land_s.append(s)
    store = ObjectStore(root)
    steps = workload.steps(stored)  # oracle answers, outside any timing

    def new_runner():
        return Runner(store)

    tally = Tally()
    t = time.perf_counter()
    warm = run_pass(steps, spark, new_runner, tally, "warmup")
    warmup_s = time.perf_counter() - t
    setup_s = spark_s + statistics.median(land_s) + warmup_s
    log(f"set-up: spark {spark_s:.3f} s, landing median {statistics.median(land_s):.3f} s "
        f"of {['%.3f' % s for s in land_s]}, warm-up pass {warmup_s:.3f} s "
        f"({pass_seconds(warm):.3f} s in queries)")

    # Traced runs alternate untraced and traced passes; both kinds are
    # needed for trace.overhead_s and the exact-count guard.
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not (plain and (traced or tracer is None)
               and time.perf_counter() >= deadline):
        if tracer is not None and len(traced) < len(plain):
            traced.append(run_pass(steps, spark, new_runner, tally,
                                   f"t{len(traced) + 1}", tracer, trace_dir))
        else:
            plain.append(run_pass(steps, spark, new_runner, tally,
                                  f"p{len(plain) + 1}"))

    log("passes: " + " ".join(f"{pass_seconds(p):.3f}" for p in plain)
        + (" | traced: " + " ".join(f"{pass_seconds(p):.3f}" for p in traced)
           if traced else ""))
    per_query = {
        s.name: (statistics.median(o.seconds for p in plain for o in p if o.step == s.name),
                 len(plain))
        for s in steps
    }
    pass_s = statistics.median(pass_seconds(p) for p in plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = Report(
        workload.name, environment(seed, workload, master), tally, {}, per_query,
    )
    if tracer is None:
        values = {"pass_s": (pass_s, len(plain)), "setup_s": (setup_s, 1),
                  "driver_peak_rss_mb": (rss_mb, 1)}
        report.metrics = {
            k: (values[k][0], unit, values[k][1]) for k, unit in END_TO_END.items()
        }
        return report

    spans = tracer.spans + layers.read_spans(trace_dir / layers.WORKER_SPANS)
    overhead = (statistics.median(pass_seconds(p) for p in traced) - pass_s)
    report.metrics, report.trace_lines = layer_metrics(
        spans, [f"t{j}" for j in range(1, len(traced) + 1)], traced[-1], overhead,
        os.getpid(),
    )
    return report


# -- per-layer metrics --------------------------------------------------------

def _dur(sp) -> float:
    return sp["end"] - sp["start"]


def layer_metrics(spans, traced_tags, last_traced, overhead, driver_pid):
    """Per-layer metrics of the traced passes, plus per-query trace lines."""
    n = len(traced_tags)
    tags = set(traced_tags)
    in_pass = [s for s in spans if s.get("query") and s["query"].split(".")[0] in tags]
    setup = [s for s in spans if (s.get("query") or "").startswith("setup")]
    self_s = layers.self_times(spans)

    def named(name, pool=in_pass):
        return [s for s in pool if s["name"] == name]

    def calls(name):
        return len(named(name)) / n

    def secs(name, pool=in_pass, per=n):
        return sum(_dur(s) for s in named(name, pool)) / per

    def total(name, key, pool=in_pass, per=n):
        return sum(s.get(key, 0) for s in named(name, pool)) / per

    def self_of(name):
        return sum(self_s[s["id"]] for s in named(name)) / n

    reps = sorted({s["query"] for s in setup})

    def per_rep(fn):
        return statistics.median(fn([s for s in setup if s["query"] == r]) for r in reps) if reps else 0.0

    usage = {}
    for o in last_traced:
        for k, v in o.result.usage.to_dict().items():
            usage[k] = usage.get(k, 0) + v
    driver = [s for s in in_pass if s["pid"] == driver_pid]
    workers = [s for s in in_pass if s["pid"] != driver_pid]
    blocked = sum(_dur(s) for s in driver if s["name"] in layers.SPARK_SPANS) / n
    read_s = secs("datasource.read")
    rows_in = total("sql_eval.eval_query", "rows_in")
    rows_out = total("sql_eval.eval_query", "rows_out")
    coverage = layers.query_coverage(in_pass, driver_pid)

    values = {
        "store.get.calls": calls("store.get"),
        "store.get.bytes": total("store.get", "bytes"),
        "store.get.s": secs("store.get"),
        "store.storage_read.calls": calls("store.storage_read"),
        "store.storage_read.bytes": total("store.storage_read", "bytes"),
        "store.storage_read.s": secs("store.storage_read"),
        "store.put.calls": per_rep(lambda p: len(named("store.put", p))),
        "store.put.bytes": per_rep(lambda p: total("store.put", "bytes", p, 1)),
        "store.put.s": per_rep(lambda p: secs("store.put", p, 1)),
        "usage.record.calls": calls("usage.record"),
        "usage.record.s": secs("usage.record"),
        "usage.read_since.s": secs("usage.read_since"),
        **{f"usage.{k}": usage.get(k, 0) for k in (
            "select_requests", "get_requests", "bytes_scanned",
            "bytes_returned", "bytes_transferred")},
        "csvio.decode.calls": calls("csvio.decode"),
        "csvio.decode.bytes": total("csvio.decode", "bytes"),
        "csvio.decode.s": secs("csvio.decode"),
        "csvio.encode.calls": calls("csvio.encode"),
        "csvio.encode.bytes": total("csvio.encode", "bytes"),
        "csvio.encode.s": secs("csvio.encode"),
        "parquetio.read_columns.calls": calls("parquetio.read_columns"),
        "parquetio.read_columns.s": secs("parquetio.read_columns"),
        "sql_parser.parse.calls": calls("sql_parser.parse"),
        "sql_parser.parse.sql_bytes": total("sql_parser.parse", "sql_bytes"),
        "sql_parser.parse.s": secs("sql_parser.parse"),
        "sql_eval.eval_query.calls": calls("sql_eval.eval_query"),
        "sql_eval.eval_query.s": secs("sql_eval.eval_query"),
        "sql_eval.eval_query.driver_s": secs("sql_eval.eval_query", driver),
        "sql_eval.rows_in": rows_in,
        "sql_eval.rows_out": rows_out,
        "sql_eval.selectivity": rows_out / rows_in if rows_in else 0.0,
        "select.calls": calls("select"),
        "select.s": secs("select"),
        "select.self_s": self_of("select"),
        "select.driver_s": secs("select", driver),
        "select.worker_s": secs("select", workers),
        "datasource.read_table.s": secs("datasource.read_table"),
        "datasource.read.partitions": calls("datasource.read"),
        "datasource.read.rows": total("datasource.read", "rows"),
        "datasource.read.s": read_s,
        "datasource.read.self_s": self_of("datasource.read"),
        "datasource.pushed_filters": total("datasource.filters", "pushed"),
        "datasource.rejected_filters": total("datasource.filters", "rejected"),
        "bloom.fit.calls": calls("bloom.fit"),
        "bloom.fit.s": secs("bloom.fit"),
        "bloom.predicate_bytes": total("bloom.predicate", "bytes"),
        "runner.phase.s": secs("runner.phase"),
        "runner.phases": calls("runner.phase"),
        "spark.driver_blocked_s": blocked,
        "spark.read_parallelism": read_s / blocked if blocked else 0.0,
        "tables.generate.s": per_rep(lambda p: secs("tables.generate", p, 1)),
        "tables.write.s": per_rep(lambda p: secs("tables.write", p, 1)),
        "costmodel.modeled_s": sum(o.result.runtime_s for o in last_traced),
        "costmodel.modeled_usd": sum(o.result.cost.total for o in last_traced),
        "trace.overhead_s": overhead,
        "trace.coverage_min": min(coverage.values()) if coverage else 0.0,
    }
    metrics = {k: (values[k], unit, n) for k, unit in PER_LAYER.items()}
    return metrics, _query_lines(in_pass, self_s, coverage, driver_pid)


def _query_lines(spans, self_s, coverage, driver_pid) -> list[str]:
    """Per query: traced wall, coverage, and the layers with most self time."""
    lines = []
    for q in sorted(coverage):
        mine = [s for s in spans if s["query"] == q]
        wall = sum(_dur(s) for s in mine if s["name"] == "query")
        by_layer: dict = {}
        for s in mine:
            if s["name"] in layers.GROUPING_SPANS:
                continue
            side = "driver" if s["pid"] == driver_pid else "worker"
            key = f"{s['name']}@{side}"
            by_layer[key] = by_layer.get(key, 0.0) + self_s[s["id"]]
        top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:6]
        lines.append(
            f"  {q:<22} wall {wall:7.3f} s  covered {coverage[q]:6.1%}  self: "
            + ", ".join(f"{k} {v:.3f}" for k, v in top)
        )
    return lines


def print_report(report: Report, out=sys.stdout) -> None:
    """Human-readable lines: environment, every metric with unit and samples."""
    import json

    print(f"env {json.dumps(report.env, sort_keys=True)}", file=out)
    for name, (median, n) in report.per_query.items():
        print(f"{name + '_s':<32} {median:12.4f} s      n={n} (median over warm passes)",
              file=out)
    for name, (value, unit, n) in report.metrics.items():
        print(f"{name:<32} {value:12.4f} {unit:<6} n={n}", file=out)
    t = report.tally
    print(f"{'failed_ratio':<32} {t.failed_ratio:12.4f} ratio  "
          f"({t.failed} failed / {t.attempted} attempted)", file=out)
    if report.trace_lines:
        print("traced queries (self time by layer@process, seconds):", file=out)
        for line in report.trace_lines:
            print(line, file=out)
    for e in t.errors:
        print(f"FAILED {e}", file=out)
    for d in t.drift:
        print(f"COUNTS DRIFTED {d}", file=out)
