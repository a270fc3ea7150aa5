"""Tests for the s3select PySpark DataSource (Catalyst integration)."""
import importlib
import json
import sys
import zipfile
import zipimport

import pyarrow as pa
import pytest
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import (
    DoubleType, FloatType, IntegerType, LongType, StringType, StructField, StructType,
)

from repro.core.tables import write_table
from repro.datasource import s3select
from repro.datasource.s3select import (
    S3SelectDataSource, S3SelectReader, ensure_registered, read_table,
)
from repro.s3sim import ObjectStore


@pytest.fixture(scope="module")
def ds_store(spark, tmp_path_factory):
    import pandas as pd

    store = ObjectStore(tmp_path_factory.mktemp("ds"))
    pdf = pd.DataFrame(
        {
            "k": range(1000),
            "v": [i / 8 for i in range(1000)],
            "s": [f"cat{i % 5}" for i in range(1000)],
        }
    )
    write_table(store, "t", pdf, n_partitions=4, parquet=True)
    return store


def test_full_scan_all_rows(spark, ds_store):
    df = read_table(spark, ds_store.root, "t")
    assert df.count() == 1000


def test_schema_from_store(spark, ds_store):
    df = read_table(spark, ds_store.root, "t")
    assert [f.name for f in df.schema.fields] == ["k", "v", "s"]
    assert df.schema["k"].dataType.typeName() == "long"
    assert df.schema["v"].dataType.typeName() == "double"


def test_projection_option(spark, ds_store):
    df = read_table(spark, ds_store.root, "t", columns=["s", "k"])
    assert [f.name for f in df.schema.fields] == ["s", "k"]
    assert df.count() == 1000


def test_unknown_projection_column(spark, ds_store):
    with pytest.raises(Exception, match="columns not in"):
        read_table(spark, ds_store.root, "t", columns=["nope"]).count()


def test_filter_pushdown_reduces_returned_bytes(spark, ds_store):
    pos = ds_store.log.position()
    n = read_table(spark, ds_store.root, "t").filter("k < 10").count()
    pushed = ds_store.log.read_since(pos)
    pos = ds_store.log.position()
    n2 = read_table(spark, ds_store.root, "t", pushdown=False).filter("k < 10").count()
    baseline = ds_store.log.read_since(pos)
    assert n == n2 == 10
    assert pushed.bytes_returned < baseline.bytes_transferred / 10


def test_pushdown_and_baseline_agree(spark, ds_store):
    pred = "v >= 2.5 and s in ('cat1', 'cat3')"
    a = read_table(spark, ds_store.root, "t").filter(pred).toPandas()
    b = read_table(spark, ds_store.root, "t", pushdown=False).filter(pred).toPandas()
    a = a.sort_values("k").reset_index(drop=True)
    b = b.sort_values("k").reset_index(drop=True)
    assert a.equals(b)


def test_baseline_path_uses_plain_gets(spark, ds_store):
    pos = ds_store.log.position()
    read_table(spark, ds_store.root, "t", pushdown=False).count()
    u = ds_store.log.read_since(pos)
    assert u.select_requests == 0
    assert u.get_requests == 4  # one whole-object GET per partition
    assert u.bytes_scanned == 0


def test_pushdown_path_uses_select(spark, ds_store):
    pos = ds_store.log.position()
    read_table(spark, ds_store.root, "t").filter("k < 5").count()
    u = ds_store.log.read_since(pos)
    assert u.select_requests == 4
    assert u.get_requests == 0
    assert u.bytes_scanned > 0


def test_unsupported_filter_still_correct(spark, ds_store):
    # k % 2 is not expressible as a Catalyst Filter -> Spark evaluates it.
    df = read_table(spark, ds_store.root, "t").filter("k % 2 = 0 and k < 10")
    assert sorted(r.k for r in df.collect()) == [0, 2, 4, 6, 8]


def test_unknown_option_is_rejected(spark, ds_store):
    """A stale option must not be ignored: the scan would run unfiltered."""
    opts = {"root": str(ds_store.root), "table": "t", "where": "s = 'cat1'"}
    schema = S3SelectDataSource(opts).schema()
    with pytest.raises(ValueError, match=r"unknown option\(s\) \['where'\]"):
        S3SelectReader(StructType.fromDDL(schema), opts)
    ok = {k: v for k, v in opts.items() if k != "where"}
    S3SelectReader(
        StructType.fromDDL(schema),
        {**ok, "columns": "k", "pushdown": "true", "format": "csv"},
    )
    ensure_registered(spark)
    df = (
        spark.read.format("s3select").option("root", str(ds_store.root))
        .option("table", "t").option("where", "s = 'cat1'").load()
    )
    with pytest.raises(Exception, match="unknown option"):
        df.count()


def test_one_spark_partition_per_object(spark, ds_store):
    df = read_table(spark, ds_store.root, "t")
    assert df.rdd.getNumPartitions() == 4


def test_parquet_format(spark, ds_store):
    df = read_table(spark, ds_store.root, "t", columns=["k"], fmt="parquet")
    assert df.count() == 1000


def test_parquet_filter_pushdown(spark, ds_store):
    out = (
        read_table(spark, ds_store.root, "t", fmt="parquet")
        .filter("k >= 990")
        .toPandas()
    )
    assert sorted(out["k"]) == list(range(990, 1000))


def test_missing_table(spark, ds_store):
    with pytest.raises(Exception):
        read_table(spark, ds_store.root, "missing").count()


def test_missing_object_fails_the_scan(spark, tmp_path):
    import pandas as pd

    store = ObjectStore(tmp_path / "store")
    write_table(store, "t", pd.DataFrame({"k": range(30)}), n_partitions=3)
    keys = json.loads(store.get_meta("t/manifest.json"))["keys"]
    store.delete(keys[1])
    with pytest.raises(Exception, match="no such object"):
        read_table(spark, store.root, "t").collect()


@pytest.fixture(scope="module")
def empty_cells_store(spark, tmp_path_factory):
    import pandas as pd

    store = ObjectStore(tmp_path_factory.mktemp("ds_empty"))
    pdf = pd.DataFrame({"k": range(9), "c": ["", "a", "x"] * 3})
    write_table(store, "e", pdf, n_partitions=2)
    return store


@pytest.mark.parametrize("pred", ["c <> 'x'", "c IS NULL", "c IS NOT NULL"])
def test_empty_string_cells_are_null_on_both_paths(spark, empty_cells_store, pred):
    """S3 Select reads an empty cell as NULL, so Spark must get NULL too."""
    root = empty_cells_store.root
    pushed = read_table(spark, root, "e").filter(pred).toPandas()
    in_spark = read_table(spark, root, "e", pushdown=False).filter(pred).toPandas()
    assert sorted(pushed["k"]) == sorted(in_spark["k"])
    assert pushed.sort_values("k").equals(in_spark.sort_values("k"))


# -- the reader on its own, without Spark -----------------------------------

_NULLABLE = StructType([
    StructField("k", LongType()), StructField("v", DoubleType()),
    StructField("s", StringType()),
])


@pytest.mark.parametrize(
    "options", [{}, {"pushdown": "false"}, {"format": "parquet"}],
    ids=["csv-select", "csv-plain-get", "parquet-select"],
)
def test_reader_yields_one_typed_arrow_batch_per_object(fresh_store, options):
    """Each object's rows reach Spark as one Arrow batch of Spark's schema,
    an empty or NULL cell being null in every column type; an object with
    no rows yields nothing."""
    import numpy as np
    import pandas as pd

    pdf = pd.DataFrame({
        "k": pd.array([1, None, 3, 4], dtype="Int64"),
        "v": [0.5, None, 2.5, np.nan],
        "s": ["a", "", None, "d"],
    })
    write_table(fresh_store, "n", pdf, n_partitions=5, parquet=True)
    ds = S3SelectDataSource({"root": str(fresh_store.root), "table": "n", **options})
    assert ds.schema() == "k BIGINT, v DOUBLE, s STRING"
    reader = ds.reader(_NULLABLE)
    per_object = [list(reader.read(p)) for p in reader.partitions()]
    assert [len(batches) for batches in per_object] == [1, 1, 1, 1, 0]
    batches = [b for batches in per_object for b in batches]
    for batch in batches:
        assert isinstance(batch, pa.RecordBatch)
        assert batch.schema == to_arrow_schema(_NULLABLE)
    assert pa.Table.from_batches(batches).to_pydict() == {
        "k": [1, None, 3, 4], "v": [0.5, None, 2.5, None], "s": ["a", None, None, "d"],
    }


def test_reader_narrows_to_an_int_or_float_schema(fresh_store):
    """A schema given with INT or FLOAT fields gets batches of those widths."""
    import pandas as pd

    write_table(fresh_store, "n", pd.DataFrame({"k": [1, 2], "v": [0.5, 1.5]}), n_partitions=1)
    schema = StructType([StructField("k", IntegerType()), StructField("v", FloatType())])
    reader = S3SelectDataSource({"root": str(fresh_store.root), "table": "n"}).reader(schema)
    [batch] = reader.read(reader.partitions()[0])
    assert batch.schema == to_arrow_schema(schema)
    assert batch.to_pydict() == {"k": [1, 2], "v": [0.5, 1.5]}


_PLANNER_CALLS = """
import sys
from pyspark.sql.datasource import EqualTo, StringStartsWith
from pyspark.sql.types import LongType, StringType, StructField, StructType
from repro.datasource.s3select import S3SelectDataSource

ds = S3SelectDataSource({"root": sys.argv[1], "table": "p", "columns": "k, s"})
assert ds.schema() == "k BIGINT, s STRING"
schema = StructType([StructField("k", LongType()), StructField("s", StringType())])
reader = ds.reader(schema)
filters = [EqualTo(("k",), 3), StringStartsWith(("s",), "a")]
assert list(reader.pushFilters(filters)) == []
assert len(reader.partitions()) == 2
print(sorted(m for m in ("pandas", "pyarrow") if m in sys.modules))
"""


def test_planner_calls_import_neither_pandas_nor_pyarrow(fresh_store):
    """Spark runs ``schema``, ``pushFilters`` and ``partitions`` in short-lived
    Python workers; none of them needs pandas or pyarrow, so a fresh
    interpreter that makes those calls has loaded neither."""
    import subprocess

    import pandas as pd

    write_table(fresh_store, "p", pd.DataFrame({"k": [1, 2, 3], "s": ["a", "b", "c"]}),
                n_partitions=2)
    out = subprocess.run(
        [sys.executable, "-c", _PLANNER_CALLS, str(fresh_store.root)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# -- zip directories on importlib.invalidate_caches() ----------------------

_ZIP_MODULE = "zip_reuse_probe"


def _write_module_zip(path, value: str) -> None:
    with zipfile.ZipFile(path, "w") as z:
        z.writestr(f"{_ZIP_MODULE}.py", f"VALUE = {value!r}\n")


@pytest.fixture()
def module_zip(tmp_path, monkeypatch):
    """A zip holding one module, on ``sys.path`` and imported."""
    archive = tmp_path / "probe.zip"
    _write_module_zip(archive, "a")
    monkeypatch.syspath_prepend(str(archive))
    assert importlib.import_module(_ZIP_MODULE).VALUE == "a"
    yield archive
    sys.modules.pop(_ZIP_MODULE, None)
    sys.path_importer_cache.pop(str(archive), None)
    zipimport._zip_directory_cache.pop(str(archive), None)


def _count_directory_reads(monkeypatch) -> list:
    reads = []
    read = zipimport._read_directory

    def counted(archive):
        reads.append(archive)
        return read(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counted)
    return reads


def test_unchanged_zip_is_not_reread_and_changed_one_is(module_zip, monkeypatch):
    reads = _count_directory_reads(monkeypatch)
    importlib.invalidate_caches()
    assert reads == []

    _write_module_zip(module_zip, "rewritten")  # another size
    importlib.invalidate_caches()
    assert reads == [str(module_zip)]
    sys.modules.pop(_ZIP_MODULE)
    assert importlib.import_module(_ZIP_MODULE).VALUE == "rewritten"


def test_installing_twice_leaves_one_wrapper():
    s3select._reuse_unchanged_zip_directories()
    s3select._reuse_unchanged_zip_directories()
    for hook in (zipimport.zipimporter.invalidate_caches, zipimport._read_directory):
        assert not hasattr(hook.__wrapped__, "__wrapped__")


def test_spark_worker_does_not_reread_pyspark_zip(spark):
    """Spark invalidates the import caches before every task it hands a
    Python worker; with the DataSource module imported, that re-reads no
    unchanged zip archive (at the parent, one read per zipimporter)."""

    def invalidation_reads(_):
        importlib.import_module("repro.datasource.s3select")
        read = zipimport._read_directory
        reads = []

        def counted(archive):
            reads.append(archive)
            return read(archive)

        zipimport._read_directory = counted
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read
        importers = [
            f for f in sys.path_importer_cache.values()
            if isinstance(f, zipimport.zipimporter)
        ]
        yield len(importers), len(reads)

    [(n_importers, n_reads)] = (
        spark.sparkContext.parallelize([0], 1)
        .mapPartitions(invalidation_reads).collect()
    )
    assert n_importers > 0  # the worker imports pyspark from a zip
    assert n_reads == 0
