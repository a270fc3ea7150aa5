"""Land synthetic tables in the simulated S3, PushdownDB-style.

Tables are landed from pandas frames, without Spark: in the paper they
are CSV objects already in S3 before any query runs. Each table is
partitioned into multiple CSV objects (PushdownDB loads partitions with
parallel processes; our Spark datasource maps one input partition per
object). Alongside the objects we store non-billed
metadata: the Spark schema DDL and a manifest of the objects, the row
and byte counts, and two statistics per column, computed at load time
from the CSV cells: the mean rendered width, and the sorted values of a
column with at most ``DOMAIN_CAP`` distinct ones. These are the
"statistics of the underlying data" the paper's plans read (SVIII);
operators know a table only through them and through the rows their
requests return. Optionally we also write Parquet twins (Fig 11) and
per-partition index tables (SIV-A): ``(value, _offset, _length)`` rows
naming the byte range of each data row, which phase 2 of the index
algorithm fetches with single-range GETs.

``StoredTable.pdf`` is the oracle's pandas copy of the rows, for tests
and result checks: the stored objects decoded on first access, each
typed by the DDL on its own, then concatenated. No operator reads it.
Landing keeps no reference to the frame it lands, and renders each
object from that object's own rows, so once the caller lets the frame go
the driver holds only the manifest.

Dates are normalized to ISO-8601 strings end-to-end: S3 Select's CSV
engine is untyped, and ISO strings compare correctly both
lexicographically (S3-side) and in DuckDB/Spark (server-side).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from repro import synth_data
from repro.s3sim import csvio, parquetio
from repro.s3sim.select_engine import select_results
from repro.s3sim.store import ObjectStore
from repro.ddl import parse_ddl
from repro.schema import apply_schema, typed_array

# A column with at most this many distinct non-NULL values has them
# listed in the manifest (``StoredTable.domains``).
DOMAIN_CAP = 16


@dataclass
class StoredTable:
    """A table materialized as S3 objects, as its manifest describes it."""

    name: str
    keys: list  # CSV object keys, in partition order
    schema_ddl: str
    n_rows: int
    total_bytes: int
    widths: dict  # column -> mean rendered width of its cells, in characters
    domains: dict  # column -> sorted distinct non-NULL values, if <= DOMAIN_CAP
    parquet_keys: list = field(default_factory=list)
    index_columns: list = field(default_factory=list)
    parquet_bytes: int = 0
    _pdf: pd.DataFrame | None = field(default=None, repr=False, compare=False)
    _store: ObjectStore | None = field(default=None, repr=False, compare=False)

    def index_key(self, column: str, part: int) -> str:
        return f"{self.name}/index/{column}/part{part}.csv"

    @property
    def avg_row_bytes(self) -> float:
        return self.total_bytes / max(1, self.n_rows)

    @property
    def columns(self) -> list:
        """Column names, in DDL order."""
        return [name for name, _ in parse_ddl(self.schema_ddl).values()]

    @property
    def pdf(self) -> pd.DataFrame:
        """The oracle's pandas copy of every row, decoded on first access.

        Each object is decoded and typed by the DDL on its own, and the
        frames are concatenated: the same frame as typing every object's
        rows at once (a BIGINT column with a NULL in any object is
        ``float64``), holding one object's cells at a time.
        """
        if self._pdf is None:
            self._pdf = pd.concat(
                [
                    apply_schema(
                        csvio.from_csv_bytes(self._store.storage_read(k), key=k),
                        self.schema_ddl,
                    )
                    for k in self.keys
                ],
                ignore_index=True,
            )
        return self._pdf


def normalize(pdf: pd.DataFrame) -> pd.DataFrame:
    """Dates -> ISO strings (NaT -> NaN) in a shallow copy; ``pdf`` is unchanged."""
    out = pdf.copy(deep=False)
    for c in out.columns:
        if pd.api.types.is_datetime64_any_dtype(out[c]):
            dates = out[c].to_numpy()
            iso = np.datetime_as_string(dates, unit="D").astype(object)
            iso[np.isnat(dates)] = np.nan
            out[c] = iso
    return out


def schema_ddl(pdf: pd.DataFrame) -> str:
    """Spark DDL for a frame: int64 is BIGINT, float64 DOUBLE, anything else STRING.

    A date column is a STRING whether or not it is normalized yet.
    """
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
    store: ObjectStore,
    table: StoredTable,
    columns: list,
    where: str | None = None,
    limit: int | None = None,
) -> pd.DataFrame:
    """``columns`` of ``table``'s rows matching ``where``, fetched by the driver.

    One S3 Select request per object (``select_results``), typed by the
    table's DDL: the rows, usage and dtypes of
    ``read_table(spark, root, name, columns=columns).filter(where).toPandas()``
    without a Spark job. ``limit`` caps the rows of *each* object (a
    prefix sample; with no ``where`` the scan stops early). Every request
    whose S3 Select text an operator writes goes through here, and the
    operator finishes its join or aggregate on the frame in pandas. The
    objects' result columns are typed on the Arrow side and become one
    frame.
    """
    sql = f"SELECT {', '.join(columns)} FROM S3Object"
    if where:
        sql += f" WHERE {where}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    results = select_results(store, table.keys, sql)
    return apply_schema(
        pa.table({
            name: pa.chunked_array([r.columns[name] for r in results], pa.string())
            for name in results[0].columns
        }),
        table.schema_ddl,
    )


def _add_cell_stats(stats: dict, name: str, cells: pa.Array) -> None:
    """Fold one object's rendered cells of column ``name`` into ``stats``.

    ``stats[name]`` is ``(sum of cell widths, distinct cells)``: the
    distinct cells are a set of the non-empty ones (an empty cell is
    NULL), or None once there are more than ``DOMAIN_CAP`` of them.
    """
    width, domain = stats.get(name, (0, set()))
    width += pc.sum(pc.utf8_length(cells)).as_py() or 0
    if domain is not None:
        values = pc.unique(cells)
        values = values.filter(pc.not_equal(values, ""))
        if len(values) > DOMAIN_CAP:
            domain = None
        else:
            domain |= set(values.to_pylist())
            if len(domain) > DOMAIN_CAP:
                domain = None
    stats[name] = (width, domain)


def _column_stats(stats: dict, ddl: str, n_rows: int) -> tuple[dict, dict]:
    """``(widths, domains)`` of a table from its columns' :func:`_add_cell_stats`.

    A width is the mean over rows of a cell's length in characters (a
    CSV cell holds ``str(value)``). A domain holds the column's values
    typed by its DDL type.
    """
    widths, domains = {}, {}
    for name, sql_type in parse_ddl(ddl).values():
        width, domain = stats[name]
        widths[name] = width / max(1, n_rows)
        if domain is not None:
            domains[name] = sorted(typed_array(
                pa.array(list(domain), pa.string()), sql_type
            ).to_pylist())
    return widths, domains


class UnquotedCellError(ValueError):
    """A text cell holds a ``\\r``: pandas' CSV leaves it unquoted (quoting it
    would change the bytes), and the decoder would read it as a row end."""


def write_table(
    store: ObjectStore,
    name: str,
    pdf: pd.DataFrame,
    *,
    n_partitions: int = 16,
    index_columns: tuple = (),
    parquet: bool = False,
) -> StoredTable:
    """Partition ``pdf`` into CSV objects ``<name>/part{i}.csv`` (+extras).

    Each object is normalized and its columns rendered once
    (``csvio.render``) from its own rows; its CSV bytes, its rows' byte
    ranges for the index objects, and the manifest's statistics all come
    from those cells. A text cell holding a ``\\r`` raises
    :class:`UnquotedCellError` before anything is written. The returned
    table holds no reference to ``pdf``.
    """
    for c in pdf.columns:  # before any object is written, one column at a time
        if pdf[c].dtype.kind == "O" and pc.any(
            pc.match_substring(csvio.render(pdf[c]), "\r")
        ).as_py():
            raise UnquotedCellError(f"table {name!r}: column {c!r} holds a carriage return")
    ddl = schema_ddl(pdf)
    chunks = np.array_split(np.arange(len(pdf)), n_partitions)
    keys, parquet_keys, stats = [], [], {}
    total = 0
    pq_total = 0
    for i, idx in enumerate(chunks):
        part = normalize(pdf.iloc[idx])
        cells = {c: csvio.render(part[c]) for c in part.columns}
        data, bounds = csvio.encode(cells)
        key = f"{name}/part{i}.csv"
        store.put(key, data)
        keys.append(key)
        total += len(data)
        for c, col in cells.items():
            _add_cell_stats(stats, c, col)
        if parquet:
            pq_data = parquetio.to_parquet_bytes(part)
            pq_key = f"{name}/part{i}.parquet"
            store.put(pq_key, pq_data)
            parquet_keys.append(pq_key)
            pq_total += len(pq_data)
        for col in index_columns:
            idx_data, _ = csvio.encode({
                col: cells[col],
                "_offset": csvio.render(bounds[:-1]),
                "_length": csvio.render(np.diff(bounds)),
            })
            store.put(f"{name}/index/{col}/part{i}.csv", idx_data)
    widths, domains = _column_stats(stats, ddl, len(pdf))
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
                "widths": widths,
                "domains": domains,
            }
        ),
    )
    return StoredTable(
        name=name,
        keys=keys,
        schema_ddl=ddl,
        n_rows=len(pdf),
        total_bytes=total,
        widths=widths,
        domains=domains,
        parquet_keys=parquet_keys,
        index_columns=list(index_columns),
        parquet_bytes=pq_total,
        _store=store,
    )


def read_stored_table(store: ObjectStore, name: str) -> StoredTable:
    """Reconstruct a :class:`StoredTable` from its store metadata alone.

    Reads no object: ``pdf`` is loaded on first access. Raises
    ``KeyError`` for a manifest written without column statistics.
    """
    manifest = json.loads(store.get_meta(f"{name}/manifest.json"))
    return StoredTable(
        name=name,
        keys=manifest["keys"],
        schema_ddl=store.get_meta(f"{name}/schema.ddl"),
        n_rows=manifest["n_rows"],
        total_bytes=manifest["total_bytes"],
        widths=manifest["widths"],
        domains=manifest["domains"],
        parquet_keys=manifest["parquet_keys"],
        index_columns=manifest["index_columns"],
        parquet_bytes=manifest.get("parquet_bytes", 0),
        _store=store,
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
    """Reuse a table already in the store, else build it from ``build_pdf()``.

    A stored table is rebuilt when it lacks a requested index or Parquet
    twin, or when its manifest predates the column statistics.
    """
    try:
        t = read_stored_table(store, name)
        if set(index_columns) <= set(t.index_columns) and (
            not parquet or t.parquet_keys
        ):
            return t
    except (FileNotFoundError, KeyError):
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
    store: ObjectStore,
    *,
    sf: float = 0.01,
    n_partitions: int = 16,
    which: tuple = ("lineitem", "orders", "customer", "part"),
) -> dict:
    """Land ``synth_data.<name>_frame(sf=sf)`` for each TPC-H-lite ``name``.

    Tables already present in the store are reused, so experiment
    modules sharing one store pay generation once. One store root holds
    one scale factor -- use separate roots for different ``sf``.
    """
    return {
        name: get_or_create(
            store,
            name,
            lambda gen=getattr(synth_data, f"{name}_frame"): gen(sf=sf),
            n_partitions=n_partitions,
        )
        for name in which
    }
