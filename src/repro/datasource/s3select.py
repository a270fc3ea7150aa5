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
"""
from __future__ import annotations

import json

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import DoubleType, FloatType, IntegerType, LongType, StructType

from repro.datasource.translate import split_filters
from repro.s3sim.select_engine import s3_select
from repro.s3sim.store import ObjectStore
from repro.schema import project_ddl, spark_values

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
        where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        return f"SELECT {cols} FROM S3Object{where}"

    def read(self, partition: InputPartition):
        store = ObjectStore(self.root)
        if not self.pushdown_enabled and self.fmt == "csv":
            # Baseline path ("PushdownDB without S3 Select"): a plain GET
            # ships the whole object; billing is requests + transfer, not
            # S3 Select scan/return. Projection/filtering happen in Spark.
            from repro.s3sim import csvio

            names = [f.name for f in self.schema.fields]
            data = store.get(partition.value)
            result = csvio.from_csv_bytes(data, select=names).select(names).to_pandas()
        else:
            result = s3_select(
                store, partition.value, self._sql(), input_format=self.fmt
            )
        if len(result) == 0:
            return
        yield from zip(*(
            spark_values(result[name], typ) for name, typ in self.types
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
