"""Land synthetic tables in the simulated S3, PushdownDB-style.

Each table is partitioned into multiple CSV objects (PushdownDB loads
partitions with parallel processes; our Spark datasource maps one input
partition per object). Alongside the objects we store non-billed
metadata: the Spark schema DDL and the partition list. Optionally we
also write Parquet twins (Fig 11) and per-partition index tables
(SIV-A): ``(value, _offset, _length)`` rows naming the byte range of
each data row, which phase 2 of the index algorithm fetches with
single-range GETs.

Dates are normalized to ISO-8601 strings end-to-end: S3 Select's CSV
engine is untyped, and ISO strings compare correctly both
lexicographically (S3-side) and in DuckDB/Spark (server-side).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.s3sim import csvio, parquetio
from repro.s3sim.select_engine import select_all
from repro.s3sim.store import ObjectStore
from repro.schema import apply_schema


@dataclass
class StoredTable:
    """A table materialized as S3 objects + its oracle-side pandas copy."""

    name: str
    keys: list  # CSV object keys, in partition order
    schema_ddl: str
    n_rows: int
    total_bytes: int
    pdf: pd.DataFrame  # normalized frame (oracle input / reference)
    parquet_keys: list = field(default_factory=list)
    index_columns: list = field(default_factory=list)
    parquet_bytes: int = 0

    def index_key(self, column: str, part: int) -> str:
        return f"{self.name}/index/{column}/part{part}.csv"

    @property
    def avg_row_bytes(self) -> float:
        return self.total_bytes / max(1, self.n_rows)


def normalize(pdf: pd.DataFrame) -> pd.DataFrame:
    """Dates -> ISO strings; everything else passes through."""
    out = pdf.copy()
    for c in out.columns:
        if pd.api.types.is_datetime64_any_dtype(out[c]):
            out[c] = out[c].dt.strftime("%Y-%m-%d")
    return out


def schema_ddl(pdf: pd.DataFrame) -> str:
    """Spark DDL for a normalized frame (int64/float64/str only)."""
    parts = []
    for c in pdf.columns:
        dt = pdf[c].dtype
        if pd.api.types.is_integer_dtype(dt):
            t = "BIGINT"
        elif pd.api.types.is_float_dtype(dt):
            t = "DOUBLE"
        else:
            t = "STRING"
        parts.append(f"{c} {t}")
    return ", ".join(parts)


def select_table(
    store: ObjectStore, table: StoredTable, columns: list, where: str | None = None
) -> pd.DataFrame:
    """``columns`` of ``table``'s rows matching ``where``, fetched by the driver.

    One S3 Select request per object (``select_all``), typed by the
    table's DDL: the rows, usage and dtypes of
    ``read_table(spark, root, name, columns=columns).filter(where).toPandas()``
    without a Spark job, for phases whose rows the driver itself consumes.
    """
    sql = f"SELECT {', '.join(columns)} FROM S3Object"
    if where:
        sql += f" WHERE {where}"
    frames = select_all(store, table.keys, sql)
    return apply_schema(pd.concat(frames, ignore_index=True), table.schema_ddl)


def write_table(
    store: ObjectStore,
    name: str,
    pdf: pd.DataFrame,
    *,
    n_partitions: int = 16,
    index_columns: tuple = (),
    parquet: bool = False,
) -> StoredTable:
    """Partition ``pdf`` into CSV objects ``<name>/part{i}.csv`` (+extras)."""
    pdf = normalize(pdf)
    ddl = schema_ddl(pdf)
    chunks = np.array_split(np.arange(len(pdf)), n_partitions)
    keys, parquet_keys = [], []
    total = 0
    pq_total = 0
    for i, idx in enumerate(chunks):
        part = pdf.iloc[idx]
        data = csvio.to_csv_bytes(part)
        key = f"{name}/part{i}.csv"
        store.put(key, data)
        keys.append(key)
        total += len(data)
        if parquet:
            pq_data = parquetio.to_parquet_bytes(part)
            pq_key = f"{name}/part{i}.parquet"
            store.put(pq_key, pq_data)
            parquet_keys.append(pq_key)
            pq_total += len(pq_data)
        for col in index_columns:
            offsets = csvio.row_byte_offsets(data)
            idx_pdf = pd.DataFrame(
                {
                    col: part[col].to_numpy(),
                    "_offset": [o for o, _ in offsets],
                    "_length": [ln for _, ln in offsets],
                }
            )
            store.put(
                f"{name}/index/{col}/part{i}.csv", csvio.to_csv_bytes(idx_pdf)
            )
    store.put_meta(f"{name}/schema.ddl", ddl)
    store.put_meta(
        f"{name}/manifest.json",
        json.dumps(
            {
                "keys": keys,
                "parquet_keys": parquet_keys,
                "index_columns": list(index_columns),
                "n_rows": len(pdf),
                "total_bytes": total,
                "parquet_bytes": pq_total,
            }
        ),
    )
    return StoredTable(
        name=name,
        keys=keys,
        schema_ddl=ddl,
        n_rows=len(pdf),
        total_bytes=total,
        pdf=pdf,
        parquet_keys=parquet_keys,
        index_columns=list(index_columns),
        parquet_bytes=pq_total,
    )


def read_stored_table(store: ObjectStore, name: str) -> StoredTable:
    """Reconstruct a :class:`StoredTable` from store metadata + objects."""
    manifest = json.loads(store.get_meta(f"{name}/manifest.json"))
    ddl = store.get_meta(f"{name}/schema.ddl")
    frames = [
        csvio.from_csv_bytes(store.storage_read(k)) for k in manifest["keys"]
    ]
    pdf = apply_schema(pd.concat(frames, ignore_index=True), ddl)
    return StoredTable(
        name=name,
        keys=manifest["keys"],
        schema_ddl=ddl,
        n_rows=manifest["n_rows"],
        total_bytes=manifest["total_bytes"],
        pdf=pdf,
        parquet_keys=manifest["parquet_keys"],
        index_columns=manifest["index_columns"],
        parquet_bytes=manifest.get("parquet_bytes", 0),
    )


def get_or_create(
    store: ObjectStore,
    name: str,
    build_pdf,
    *,
    n_partitions: int = 16,
    index_columns: tuple = (),
    parquet: bool = False,
) -> StoredTable:
    """Reuse a table already in the store, else build it from ``build_pdf()``."""
    try:
        t = read_stored_table(store, name)
        if set(index_columns) <= set(t.index_columns) and (
            not parquet or t.parquet_keys
        ):
            return t
    except FileNotFoundError:
        pass
    return write_table(
        store,
        name,
        build_pdf(),
        n_partitions=n_partitions,
        index_columns=index_columns,
        parquet=parquet,
    )


def load_tpch(
    spark,
    store: ObjectStore,
    *,
    sf: float = 0.01,
    n_partitions: int = 16,
    which: tuple = ("lineitem", "orders", "customer", "part"),
) -> dict:
    """Generate TPC-H-lite tables at ``sf`` and land them in the store.

    Tables already present in the store are reused, so experiment
    modules sharing one store pay generation once. One store root holds
    one scale factor -- use separate roots for different ``sf``.
    """
    from repro import synth_data

    out = {}
    for name in which:
        gen = getattr(synth_data, name)
        out[name] = get_or_create(
            store,
            name,
            lambda gen=gen: gen(spark, sf=sf).toPandas(),
            n_partitions=n_partitions,
        )
    return out
