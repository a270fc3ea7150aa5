"""``s3select``: a PySpark Python DataSource over the simulated S3.

This is the Catalyst integration point of the reproduction. Reading

    spark.read.format("s3select")
         .option("root", <store root>).option("table", "lineitem")
         .load().filter("l_discount <= 0.07")

plans a scan whose reader gets the ``l_discount <= 0.07`` predicate via
:meth:`DataSourceReader.pushFilters`; we translate it into an S3 Select
WHERE clause that runs storage-side, and give back to Spark whatever the
dialect cannot express. One Spark input partition maps to one S3 object,
mirroring PushdownDB's process-per-partition parallel loads.

Options:

* ``root`` (required)   -- ObjectStore root directory
* ``table`` (required)  -- table name (object prefix, from core.tables)
* ``columns``           -- comma list: projection pushdown (the Python
  DS API has no column-pruning hook yet; PushdownDB likewise sets the
  projection statically in its plan)
* ``where``             -- extra raw S3 Select boolean text ANDed with
  pushed filters (used for Bloom-filter probes, which no Catalyst
  Filter can express)
* ``pushdown``          -- "false" disables filter pushdown (baselines)
* ``format``            -- "csv" (default) or "parquet"
"""
from __future__ import annotations

import json

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import DoubleType, FloatType, IntegerType, LongType, StructType

from repro.datasource.translate import split_filters
from repro.s3sim.select_engine import s3_select
from repro.s3sim.store import ObjectStore
from repro.schema import project_ddl, typed_column

_NUMERIC_TYPES = (LongType, IntegerType, DoubleType, FloatType)


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
        self.types = [(f.name, f.dataType.simpleString()) for f in schema.fields]
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
        extra = self.options.get("where")
        if extra:
            conjuncts.append(f"({extra})")
        where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        return f"SELECT {cols} FROM S3Object{where}"

    def read(self, partition: InputPartition):
        store = ObjectStore(self.root)
        if not self.pushdown_enabled and self.fmt == "csv":
            # Baseline path ("PushdownDB without S3 Select"): a plain GET
            # ships the whole object; billing is requests + transfer, not
            # S3 Select scan/return. Projection/filtering happen in Spark.
            from repro.s3sim import csvio

            result = csvio.from_csv_bytes(store.get(partition.value))
            result = result[[f.name for f in self.schema.fields]]
        else:
            result = s3_select(
                store, partition.value, self._sql(), input_format=self.fmt
            )
        if len(result) == 0:
            return
        yield from zip(*(
            typed_column(result[name], typ).tolist() for name, typ in self.types
        ))


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
    where: str | None = None,
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
    if where:
        r = r.option("where", where)
    return r.load()
