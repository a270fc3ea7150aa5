"""``s3select``: a PySpark Python DataSource over the simulated S3.

This is the Catalyst integration point of the reproduction. Reading

    spark.read.format("s3select")
         .option("root", <store root>).option("table", "lineitem")
         .load().filter("l_discount <= 0.07")

plans a scan whose reader gets the ``l_discount <= 0.07`` predicate via
:meth:`DataSourceReader.pushFilters`; we translate it into an S3 Select
WHERE clause that runs storage-side, and give back to Spark whatever the
dialect cannot express. One Spark input partition maps to one S3 object,
mirroring PushdownDB's process-per-partition parallel loads. Each
object's request goes through ``select_results``, the driver's request
path, and its result columns are typed by the table's DDL
(``repro.schema.typed_array``) and handed to Spark as one
``pyarrow.RecordBatch``.

The WHERE clause is always Catalyst's: S3 Select text an operator
writes itself (a Bloom probe, a ``NOT IN`` tail) is sent by the driver
(``core.tables.select_table``), not through this DataSource.

Options (any other raises ``ValueError``):

* ``root`` (required)   -- ObjectStore root directory
* ``table`` (required)  -- table name (object prefix, from core.tables)
* ``columns``           -- comma list: projection pushdown (the Python
  DS API has no column-pruning hook yet; PushdownDB likewise sets the
  projection statically in its plan)
* ``pushdown``          -- "false" disables filter pushdown (baselines)
* ``format``            -- "csv" (default) or "parquet"

Importing this module also makes the process reuse an unchanged zip
archive's directory on ``importlib.invalidate_caches()`` (see
``_reuse_unchanged_zip_directories``). Spark calls that function before
every planner call and every read task it hands to a Python worker, and
the workers import pyspark from ``pyspark.zip`` (1,328 entries). For
each of its about 15 ``zipimporter`` objects, one per package directory,
CPython 3.11 re-reads the archive's whole central directory in pure
Python: 74 ms per call, so a scan paid about 0.6 s of worker set-up for
0.02 s of S3 Select work. Every worker imports this module when it
unpickles the DataSource. A changed archive is still re-read, so no
import, result or usage record changes. Delete the hook once workers no
longer import from a zip, or once the interpreter stops re-reading
unchanged archives.
"""
from __future__ import annotations

import functools
import json
import os
import zipimport

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import DoubleType, FloatType, IntegerType, LongType, StructType

from repro.datasource.translate import split_filters
from repro.ddl import project_ddl
from repro.s3sim.store import ObjectStore

_NUMERIC_TYPES = (LongType, IntegerType, DoubleType, FloatType)
_OPTIONS = ("root", "table", "columns", "pushdown", "format")


class S3SelectDataSource(DataSource):
    """Python DataSource named ``s3select`` (see module docstring)."""

    @classmethod
    def name(cls) -> str:
        return "s3select"

    def schema(self) -> str:
        store = ObjectStore(self.options["root"])
        table = self.options["table"]
        ddl = store.get_meta(f"{table}/schema.ddl")
        cols_opt = self.options.get("columns")
        if not cols_opt:
            return ddl
        try:
            return project_ddl(ddl, [c.strip() for c in cols_opt.split(",")])
        except ValueError as e:
            raise ValueError(f"table {table!r}: {e}") from None

    def reader(self, schema: StructType) -> "S3SelectReader":
        return S3SelectReader(schema, dict(self.options))


class S3SelectReader(DataSourceReader):
    """Reader with Catalyst filter pushdown into S3 Select."""

    def __init__(self, schema: StructType, options: dict):
        unknown = sorted({k.lower() for k in options} - set(_OPTIONS))
        if unknown:
            raise ValueError(
                f"s3select: unknown option(s) {unknown}; "
                f"supported: {', '.join(_OPTIONS)}"
            )
        self.schema = schema
        self.options = options
        self.root = options["root"]
        self.table = options["table"]
        self.fmt = options.get("format", "csv")
        self.pushdown_enabled = options.get("pushdown", "true").lower() != "false"
        self.numeric_cols = {
            f.name.lower()
            for f in schema.fields
            if isinstance(f.dataType, _NUMERIC_TYPES)
        }
        self.pushed_sql: list[str] = []

    # -- Catalyst integration --------------------------------------------

    def pushFilters(self, filters):  # noqa: N802 (Spark API name)
        """Accept the S3-Select-translatable subset; return the rest."""
        if not self.pushdown_enabled:
            yield from filters
            return
        pushed, rejected = split_filters(list(filters), self.numeric_cols)
        self.pushed_sql = pushed
        yield from rejected

    def partitions(self):
        store = ObjectStore(self.root)
        manifest = json.loads(store.get_meta(f"{self.table}/manifest.json"))
        keys = manifest["parquet_keys" if self.fmt == "parquet" else "keys"]
        if not keys:
            raise ValueError(f"table {self.table!r} has no {self.fmt} objects")
        return [InputPartition(k) for k in keys]

    # -- executor side ----------------------------------------------------

    def _sql(self) -> str:
        cols = ", ".join(f.name for f in self.schema.fields)
        conjuncts = [f"({c})" for c in self.pushed_sql]
        where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        return f"SELECT {cols} FROM S3Object{where}"

    def read(self, partition: InputPartition):
        # The request path and Arrow load here, in the worker that reads:
        # the planner's calls above need neither pandas nor pyarrow.
        import pyarrow as pa
        from pyspark.sql.pandas.types import to_arrow_schema

        from repro.s3sim import csvio
        from repro.s3sim.select_engine import select_results
        from repro.schema import typed_array

        store, key = ObjectStore(self.root), partition.value
        if not self.pushdown_enabled and self.fmt == "csv":
            # Baseline path ("PushdownDB without S3 Select"): a plain GET
            # ships the whole object; billing is requests + transfer, not
            # S3 Select scan/return. Projection/filtering happen in Spark.
            names = [f.name for f in self.schema.fields]
            columns = csvio.from_csv_bytes(store.get(key), select=names, key=key)
        else:
            columns = select_results(store, [key], self._sql(), self.fmt)[0].columns
        schema = to_arrow_schema(self.schema)
        batch = pa.RecordBatch.from_arrays(
            [  # an INT or FLOAT field is narrower than its typed array
                typed_array(columns[f.name], f.dataType.simpleString()).cast(a.type)
                for f, a in zip(self.schema.fields, schema)
            ],
            schema=schema,
        )
        if batch.num_rows:
            yield batch


def ensure_registered(spark) -> None:
    """Register the datasource + enable Python filter pushdown (idempotent)."""
    spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    spark.dataSource.register(S3SelectDataSource)


def read_table(
    spark,
    root: str,
    table: str,
    *,
    columns: list | None = None,
    pushdown: bool = True,
    fmt: str = "csv",
):
    """Convenience: a DataFrame over stored table objects."""
    ensure_registered(spark)
    r = (
        spark.read.format("s3select")
        .option("root", str(root))
        .option("table", table)
        .option("pushdown", "true" if pushdown else "false")
        .option("format", fmt)
    )
    if columns:
        r = r.option("columns", ",".join(columns))
    return r.load()


# -- worker start-up ----------------------------------------------------


def _zip_stamp(archive: str) -> tuple[int, int] | None:
    try:
        st = os.stat(archive)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def _reuse_unchanged_zip_directories() -> None:
    """Make ``zipimporter.invalidate_caches`` skip unchanged archives.

    Each directory read records the archive's ``(st_mtime_ns, st_size)``;
    an invalidation re-reads the archive only if that stamp changed or
    the directory is no longer cached, and otherwise points the importer
    at the cached directory. Archives already cached when this runs are
    stamped as they are now: in a Spark worker, ``setup_spark_files``
    re-read them just before the DataSource was unpickled. The stamps
    are per process, as ``zipimport``'s own cache is. Idempotent.
    """
    cls = zipimport.zipimporter
    if getattr(cls.invalidate_caches, "reuses_unchanged_archives", False):
        return
    cache = zipimport._zip_directory_cache
    stamps = {archive: _zip_stamp(archive) for archive in cache}
    read_directory = zipimport._read_directory
    invalidate = cls.invalidate_caches

    @functools.wraps(read_directory)
    def stamped_read_directory(archive):
        stamp = _zip_stamp(archive)
        files = read_directory(archive)
        stamps[archive] = stamp
        return files

    @functools.wraps(invalidate)
    def invalidate_caches(self):
        files = cache.get(self.archive)
        stamp = _zip_stamp(self.archive)
        if files is None or stamp is None or stamps.get(self.archive) != stamp:
            invalidate(self)
        else:
            self._files = files

    invalidate_caches.reuses_unchanged_archives = True
    zipimport._read_directory = stamped_read_directory
    cls.invalidate_caches = invalidate_caches


_reuse_unchanged_zip_directories()
