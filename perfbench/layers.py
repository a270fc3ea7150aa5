"""Outside-in layer tracing: spans around the public functions of each module.

Nothing under ``src/`` knows about tracing. :func:`install` rebinds the
public functions of the repro modules (and every module attribute that
imported one of them by name, e.g. ``tpch.s3_select``) to wrappers that
record a span per call while a :class:`Tracer` is active.

Spark's Python workers run ``S3SelectReader.read`` in processes that never
see a driver-side monkeypatch. Reads are therefore routed through
:class:`TracingDataSource`, registered under the same ``s3select`` name by
rebinding ``datasource.s3select.ensure_registered``. Workers import it by
module name (``PYTHONPATH`` must reach the checkout); its reader installs
the wrappers in the worker on first use, and flushes that partition's
spans as JSONL, one ``O_APPEND`` write per line, to the file named by
``$PERFBENCH_TRACE_DIR``. The driver merges them when the run ends.

A span is a dict: ``id``, ``name``, ``parent``, ``pid``, ``query``,
``start``, ``end`` plus per-call counts (``bytes``, ``rows_in``...).
Times are ``time.perf_counter()``, i.e. CLOCK_MONOTONIC on Linux.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.datasource.s3select import S3SelectDataSource, S3SelectReader

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
QUERY_FILE = "current_query"
WORKER_SPANS = "worker_spans.jsonl"

# Span names whose calls block the driver on the Spark engine.
SPARK_SPANS = ("spark.toPandas", "spark.collect", "spark.createDataFrame")
# Spans that only group others; they explain no time of their own.
GROUPING_SPANS = ("query", "runner.phase")


class Tracer:
    """The spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.active = False
        self.query: str | None = None
        self.pid = os.getpid()
        self._n = 0

    @contextmanager
    def span(self, name: str, **counts):
        self._n += 1
        sp = {
            "id": f"{self.pid}:{self._n}",
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": self.pid,
            "query": self.query,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(sp)

    def open(self, key: str) -> bool:
        """Whether a span of re-entrancy group ``key`` is already open."""
        return any(s.get("_key") == key for s in self.stack)


def _wrap(tracer: Tracer, name: str, fn, counts=None, key: str | None = None):
    """``fn`` recording one ``name`` span per outermost call while active.

    ``counts(args, kwargs, result)`` adds per-call counts to the span. A
    call made while a span of the same ``key`` is open (a layer calling
    itself, e.g. ``toPandas`` falling back to ``collect``) is not counted
    again.
    """
    key = key or name

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or tracer.open(key):
            return fn(*args, **kwargs)
        with tracer.span(name, _key=key) as sp:
            out = fn(*args, **kwargs)
            if counts is not None:
                sp.update(counts(args, kwargs, out))
            return out

    return wrapper


class Patcher:
    """Rebinds attributes and restores them in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def rebind_everywhere(self, original, replacement) -> int:
        """Rebind every ``repro.*`` module attribute that is ``original``."""
        n = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, replacement)
                    n += 1
        return n

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def _nbytes(x) -> int:
    return len(x.encode()) if isinstance(x, str) else len(x)


def install_storage_layers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the s3sim layers; these run in the driver and in workers."""
    from repro.s3sim import csvio, parquetio, select_engine
    from repro.s3sim.store import ObjectStore
    from repro.s3sim.usage import UsageLog

    def method(cls, attr, name, counts=None):
        patcher.set(cls, attr, _wrap(tracer, name, getattr(cls, attr), counts))

    method(ObjectStore, "get", "store.get",
           lambda a, k, out: {"bytes": len(out)})
    method(ObjectStore, "storage_read", "store.storage_read",
           lambda a, k, out: {"bytes": len(out)})
    method(ObjectStore, "put", "store.put",
           lambda a, k, out: {"bytes": len(a[2] if len(a) > 2 else k["data"])})
    method(UsageLog, "record", "usage.record")
    method(UsageLog, "read_since", "usage.read_since")

    def function(fn, name, counts=None):
        patcher.rebind_everywhere(fn, _wrap(tracer, name, fn, counts))

    function(csvio.from_csv_bytes, "csvio.decode",
             lambda a, k, out: {"bytes": len(a[0]), "rows": len(out)})
    function(csvio.to_csv_bytes, "csvio.encode",
             lambda a, k, out: {"bytes": len(out), "rows": len(a[0])})
    function(parquetio.read_columns, "parquetio.read_columns",
             lambda a, k, out: {"rows": len(out)})
    function(select_engine.parse, "sql_parser.parse",
             lambda a, k, out: {"sql_bytes": _nbytes(a[0])})
    function(select_engine.eval_query, "sql_eval.eval_query",
             lambda a, k, out: {"rows_in": len(a[1]), "rows_out": len(out)})
    function(select_engine.s3_select, "select",
             lambda a, k, out: {"rows_out": len(out)})


def install_driver_layers(tracer: Tracer, patcher: Patcher, spark) -> None:
    """Wrap every layer the driver calls, plus the Spark blocking calls."""
    from repro import synth_data
    from repro.core import bloom, tables
    from repro.core.runner import Runner
    from repro.datasource import s3select

    install_storage_layers(tracer, patcher)

    def function(fn, name, counts=None):
        patcher.rebind_everywhere(fn, _wrap(tracer, name, fn, counts))

    function(bloom.fit_fpr_to_limit, "bloom.fit")
    function(s3select.read_table, "datasource.read_table")
    function(tables.write_table, "tables.write")
    for gen in ("lineitem", "orders", "customer", "part", "filter_table",
                "groups_table", "wide_table"):
        function(getattr(synth_data, gen), "tables.generate")

    to_predicate = bloom.BloomFilter.to_predicate

    @functools.wraps(to_predicate)
    def traced_to_predicate(self, column):
        # Sizing probes inside fit_fpr_to_limit are not sent; count only
        # the predicates an operator takes.
        if not tracer.active or tracer.open("bloom.fit"):
            return to_predicate(self, column)
        with tracer.span("bloom.predicate", _key="bloom.predicate") as sp:
            out = to_predicate(self, column)
            sp["bytes"] = len(out.encode())
            return out

    patcher.set(bloom.BloomFilter, "to_predicate", traced_to_predicate)

    phase = Runner.phase

    @contextmanager
    def traced_phase(self, name, **kwargs):
        if not tracer.active:
            with phase(self, name, **kwargs) as p:
                yield p
            return
        with tracer.span("runner.phase", phase=name):
            with phase(self, name, **kwargs) as p:
                yield p

    patcher.set(Runner, "phase", traced_phase)

    ensure_registered = s3select.ensure_registered

    def traced_ensure_registered(session) -> None:
        if not tracer.active:
            ensure_registered(session)
            return
        session.conf.set("spark.sql.python.filterPushdown.enabled", "true")
        session.dataSource.register(TracingDataSource)

    patcher.rebind_everywhere(ensure_registered, traced_ensure_registered)

    df_cls = type(spark.range(1))
    for attr in ("toPandas", "collect"):
        patcher.set(df_cls, attr, _wrap(
            tracer, f"spark.{attr}", getattr(df_cls, attr),
            lambda a, k, out: {"rows": len(out)}, key="spark",
        ))
    session_cls = type(spark)
    patcher.set(session_cls, "createDataFrame", _wrap(
        tracer, "spark.createDataFrame", session_cls.createDataFrame, key="spark",
    ))


# -- worker side ----------------------------------------------------------

_worker: Tracer | None = None  # one per Spark Python worker process


def _worker_tracer() -> Tracer:
    global _worker
    if _worker is None:
        _worker = Tracer()
        install_storage_layers(_worker, Patcher())
    return _worker


def _trace_dir() -> Path:
    return Path(os.environ[TRACE_DIR_ENV])


def set_current_query(trace_dir: Path, query: str) -> None:
    """Tell workers which query their next spans belong to."""
    (trace_dir / QUERY_FILE).write_text(query)


def _current_query() -> str | None:
    try:
        return (_trace_dir() / QUERY_FILE).read_text()
    except FileNotFoundError:
        return None


def append_spans(path: Path, spans: list[dict]) -> None:
    """Append spans as JSONL; each line is one atomic ``O_APPEND`` write."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        for sp in spans:
            sp = {k: v for k, v in sp.items() if k != "_key"}
            os.write(fd, (json.dumps(sp, separators=(",", ":")) + "\n").encode())
    finally:
        os.close(fd)


def read_spans(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class TracingDataSource(S3SelectDataSource):
    """``s3select`` whose reader records spans in the worker processes."""

    def reader(self, schema):
        return TracingReader(schema, dict(self.options))


class TracingReader(S3SelectReader):
    def pushFilters(self, filters):  # noqa: N802 (Spark API name)
        filters = list(filters)
        rejected = list(super().pushFilters(filters))
        now = time.perf_counter()
        append_spans(_trace_dir() / WORKER_SPANS, [{
            "id": f"{os.getpid()}:filters:{now}",
            "name": "datasource.filters", "parent": None,
            "pid": os.getpid(), "query": _current_query(),
            "start": now, "end": now,
            "pushed": len(filters) - len(rejected), "rejected": len(rejected),
        }])
        yield from rejected

    def read(self, partition):
        tracer = _worker_tracer()
        tracer.query = _current_query()
        tracer.active = True
        try:
            with tracer.span("datasource.read", key=partition.value) as sp:
                rows = 0
                for row in super().read(partition):
                    rows += 1
                    yield row
                sp["rows"] = rows
        finally:
            tracer.active = False
            append_spans(_trace_dir() / WORKER_SPANS, tracer.spans)
            tracer.spans = []


# -- analysis -------------------------------------------------------------

def covered(interval: tuple[float, float], others: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {
        sp["id"]: (sp["end"] - sp["start"])
        - covered((sp["start"], sp["end"]), children.get(sp["id"], []))
        for sp in spans
    }


def query_coverage(spans: list[dict], driver_pid: int) -> dict[str, float]:
    """Query -> share of its wall time spent inside a traced layer call.

    Counts the driver's layer spans, Spark blocking calls included, but
    not the grouping spans (the query itself and ``Runner.phase``).
    """
    roots = {
        sp["query"]: sp for sp in spans
        if sp["name"] == "query" and sp["pid"] == driver_pid
    }
    inner: dict[str, list] = {}
    for sp in spans:
        if sp["pid"] == driver_pid and sp["name"] not in GROUPING_SPANS:
            inner.setdefault(sp["query"], []).append((sp["start"], sp["end"]))
    out = {}
    for q, root in roots.items():
        wall = root["end"] - root["start"]
        out[q] = covered((root["start"], root["end"]), inner.get(q, [])) / wall if wall > 0 else 1.0
    return out
