"""Tests for table materialization into the object store."""
import ast
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core import tables as T
from repro.s3sim import csvio
from repro.schema import typed_array


@pytest.fixture()
def pdf():
    return pd.DataFrame(
        {
            "k": range(10),
            "v": [i / 4 for i in range(10)],
            "d": pd.to_datetime(["1995-01-02"] * 10),
            "s": list("abcdefghij"),
        }
    )


def test_normalize_dates_to_iso(pdf):
    out = T.normalize(pdf)
    assert out["d"].tolist() == ["1995-01-02"] * 10


def test_schema_ddl_types(pdf):
    ddl = T.schema_ddl(T.normalize(pdf))
    assert ddl == "k BIGINT, v DOUBLE, d STRING, s STRING"


def test_apply_schema_roundtrip(pdf):
    norm = T.normalize(pdf)
    ddl = T.schema_ddl(norm)
    stringly = csvio.from_csv_bytes(csvio.to_csv_bytes(norm))
    typed = T.apply_schema(stringly, ddl)
    assert typed["k"].dtype == "int64"
    assert typed["v"].dtype == "float64"
    assert (typed["v"] == norm["v"]).all()


def test_typed_array_of_sliced_cells():
    """A batch's results are slices of its arrays (``select_table``'s chunks)."""
    cells = pa.array(["9", "1", "", "2.5", "x", "s"]).slice(1, 4)
    assert typed_array(cells, "DOUBLE").to_pylist() == [1.0, None, 2.5, None]
    assert typed_array(cells, "STRING").to_pylist() == ["1", None, "2.5", "x"]
    assert typed_array(cells.slice(0, 1), "BIGINT").to_pylist() == [1]


def test_normalize_replaces_only_the_date_columns(pdf):
    before = pdf.copy()
    out = T.normalize(pdf)
    pd.testing.assert_frame_equal(pdf, before)  # the caller's frame is unchanged
    for c in ("k", "v", "s"):
        assert np.shares_memory(out[c].to_numpy(), pdf[c].to_numpy())


def test_write_table_lands_the_normalized_frame(fresh_store, pdf):
    before = pdf.copy()
    t = T.write_table(fresh_store, "t", pdf, n_partitions=3)
    pd.testing.assert_frame_equal(pdf, before)
    norm = before.assign(d=before["d"].dt.strftime("%Y-%m-%d"))
    parts = np.array_split(np.arange(len(norm)), 3)
    assert [fresh_store.storage_read(k) for k in t.keys] == [
        csvio.to_csv_bytes(norm.iloc[idx]) for idx in parts
    ]


def test_write_table_rejects_a_carriage_return_before_writing(fresh_store):
    """The decoder reads a bare ``\\r`` as a row end; such a frame lands nothing."""
    pdf = pd.DataFrame({"a": ["x\ry", "b"], "k": [1, 2]})
    with pytest.raises(T.UnquotedCellError, match="column 'a'"):
        T.write_table(fresh_store, "cr", pdf, n_partitions=2,
                      index_columns=("a",), parquet=True)
    assert fresh_store.list_keys() == []
    assert not (fresh_store.root / "meta").exists()
    assert fresh_store.log.path.read_bytes() == b""


def test_write_table_partitions(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=3)
    assert len(t.keys) == 3
    assert t.n_rows == 10
    assert all(fresh_store.exists(k) for k in t.keys)


def test_write_table_total_bytes(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=2)
    assert t.total_bytes == sum(fresh_store.size(k) for k in t.keys)


def test_write_table_index_objects(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=2, index_columns=("k",))
    for i in range(2):
        idx = csvio.from_csv_bytes(fresh_store.storage_read(t.index_key("k", i)))
        assert idx.column_names == ["k", "_offset", "_length"]


def test_index_offsets_fetch_rows(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=1, index_columns=("k",))
    idx = csvio.from_csv_bytes(fresh_store.storage_read(t.index_key("k", 0))).to_pandas()
    off, ln = int(idx["_offset"][3]), int(idx["_length"][3])
    row = fresh_store.get(t.keys[0], (off, ln))
    assert row.decode().startswith("3,")


def test_write_table_parquet_twins(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=2, parquet=True)
    assert len(t.parquet_keys) == 2
    assert t.parquet_bytes > 0


def test_read_stored_table_roundtrip(fresh_store, pdf, monkeypatch):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=3, index_columns=("k",))
    decoded = []
    decode = csvio.from_csv_bytes
    monkeypatch.setattr(
        csvio, "from_csv_bytes", lambda *a, **kw: decoded.append(1) or decode(*a, **kw)
    )
    back = T.read_stored_table(fresh_store, "t")
    assert decoded == []  # the manifest is all an operator reads
    assert back.keys == t.keys
    assert back.n_rows == t.n_rows
    assert back.index_columns == ["k"]
    assert (back.widths, back.domains) == (t.widths, t.domains)
    pd.testing.assert_frame_equal(back.pdf, T.normalize(pdf))
    assert len(decoded) == 3  # the oracle's copy, loaded on first access


def test_landing_lets_go_of_its_frame(fresh_store):
    columns = {
        "k": np.arange(10),
        "d": pd.to_datetime(["1995-01-02"] * 10).to_numpy(),
        "s": np.array(list("abcdefghij"), dtype=object),
    }
    pdf = pd.DataFrame(columns, copy=False)  # the frame holds these very arrays
    held = [weakref.ref(pdf)] + [weakref.ref(a) for a in columns.values()]
    t = T.write_table(fresh_store, "t", pdf, n_partitions=3,
                      index_columns=("k",), parquet=True)
    del pdf, columns
    assert [ref() is None for ref in held] == [True] * 4
    assert t.pdf["d"].tolist() == ["1995-01-02"] * 10  # decoded from the objects


def test_pdf_types_each_object_as_all_objects_at_once(fresh_store):
    """A BIGINT NULL in one object only, an empty STRING cell, a date, empty objects."""
    pdf = pd.DataFrame({
        "k": pd.array([1, None, 3, 4, 5], dtype="Int64"),
        "s": ["a", "", "c", "d", "e"],
        "d": pd.to_datetime(["1995-01-02", None, "1996-03-04", "1997-05-06", "1998-07-08"]),
        "v": [0.5, 1.5, 2.5, 3.5, 4.5],
    })
    t = T.write_table(fresh_store, "t", pdf, n_partitions=8)
    assert t.schema_ddl == "k BIGINT, s STRING, d STRING, v DOUBLE"
    at_once = T.apply_schema(
        pa.concat_tables(csvio.from_csv_bytes(fresh_store.storage_read(k)) for k in t.keys),
        t.schema_ddl,
    )
    assert at_once["k"].dtype == "float64" and at_once["s"][1] is None
    pd.testing.assert_frame_equal(t.pdf, at_once, check_exact=True)
    pd.testing.assert_frame_equal(
        T.read_stored_table(fresh_store, "t").pdf, at_once, check_exact=True
    )


def test_manifest_column_statistics(fresh_store):
    pdf = pd.DataFrame({
        "k": range(100),
        "flag": ["R", "A", "", "A"] * 25,  # an empty cell is NULL
        "v": [i / 3 for i in range(100)],
        "small": [i % 4 for i in range(100)],
        "d": pd.to_datetime(["1995-01-02", "1996-03-04"] * 50),
    })
    t = T.write_table(fresh_store, "t", pdf, n_partitions=3)
    # A CSV cell holds str(value): the width is the normalized frame's.
    norm = T.normalize(pdf)
    assert t.widths == {
        c: norm[c].astype(str).str.len().mean() for c in norm.columns
    }
    assert t.domains == {
        "flag": ["A", "R"], "small": [0, 1, 2, 3],
        "d": ["1995-01-02", "1996-03-04"],
    }
    assert len(set(pdf["k"])) > T.DOMAIN_CAP


@pytest.mark.parametrize("n_partitions", [2, 50])
def test_column_statistics_over_objects_and_empty_objects(fresh_store, n_partitions):
    """Objects, some with no rows at all, add up to the frame's statistics."""
    pdf = pd.DataFrame({"k": range(40), "flag": ["R", "A", ""] * 13 + ["N"]})
    t = T.write_table(fresh_store, "t", pdf, n_partitions=n_partitions)
    norm = T.normalize(pdf)
    assert t.widths == {c: norm[c].astype(str).str.len().mean() for c in norm.columns}
    assert t.domains == {"flag": ["A", "N", "R"]}


def test_no_core_module_but_tables_reads_the_oracle_copy():
    """Operators read the manifest and the rows they receive, never ``.pdf``."""
    core = Path(T.__file__).parent
    readers = [
        str(path.relative_to(core))
        for path in sorted(core.rglob("*.py"))
        if path.name != "tables.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "pdf"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert readers == []


def test_get_or_create_reuses(fresh_store, pdf):
    calls = []

    def build():
        calls.append(1)
        return pdf

    T.get_or_create(fresh_store, "t", build, n_partitions=2)
    T.get_or_create(fresh_store, "t", build, n_partitions=2)
    assert len(calls) == 1


def test_get_or_create_rebuilds_for_missing_index(fresh_store, pdf):
    T.get_or_create(fresh_store, "t", lambda: pdf, n_partitions=2)
    t = T.get_or_create(
        fresh_store, "t", lambda: pdf, n_partitions=2, index_columns=("k",)
    )
    assert t.index_columns == ["k"]


def test_get_or_create_rebuilds_for_manifest_without_statistics(fresh_store, pdf):
    T.get_or_create(fresh_store, "t", lambda: pdf, n_partitions=2)
    manifest = json.loads(fresh_store.get_meta("t/manifest.json"))
    del manifest["widths"], manifest["domains"]
    fresh_store.put_meta("t/manifest.json", json.dumps(manifest))
    calls = []
    t = T.get_or_create(
        fresh_store, "t", lambda: calls.append(1) or pdf, n_partitions=2
    )
    assert calls == [1]
    assert t.widths == T.read_stored_table(fresh_store, "t").widths


def test_avg_row_bytes(fresh_store, pdf):
    t = T.write_table(fresh_store, "t", pdf, n_partitions=1)
    assert 10 < t.avg_row_bytes < 60


_LAND_WITHOUT_PYSPARK = """
import sys
sys.modules["pyspark"] = None  # importing pyspark now raises ImportError
from repro import synth_data
from repro.core.tables import get_or_create, load_tpch
from repro.s3sim import ObjectStore

store = ObjectStore(sys.argv[1])
tabs = load_tpch(store, sf=0.002, n_partitions=2)
for name, build, kw in (
    ("filter", lambda: synth_data.filter_table_frame(n=1000),
     {"index_columns": ("u",)}),
    ("groups", lambda: synth_data.groups_table_frame(n=1000, kind="zipf"), {}),
    ("wide", lambda: synth_data.wide_table_frame(n=1000, n_cols=3),
     {"parquet": True}),
):
    tabs[name] = get_or_create(store, name, build, n_partitions=2, **kw)
print({name: t.n_rows for name, t in tabs.items()})
"""


def test_tables_land_without_pyspark(tmp_path):
    src = str(Path(T.__file__).parents[2])
    proc = subprocess.run(
        [sys.executable, "-c", _LAND_WITHOUT_PYSPARK, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]
        )},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({
        "lineitem": 12_000, "orders": 3000, "customer": 300, "part": 400,
        "filter": 1000, "groups": 1000, "wide": 1000,
    })
