"""Unit tests for repro.s3sim.csvio (wire format + the byte offsets landing stores)."""
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.tables import write_table
from repro.s3sim import csvio


@pytest.fixture()
def frame():
    return pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})


def test_roundtrip_is_stringly(frame):
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(frame))
    assert out.column_names == ["a", "b"]
    assert out["a"].to_pylist() == ["1", "2", "3"]  # untyped, like S3 Select CSV


def test_empty_cells_become_empty_strings():
    df = pd.DataFrame({"a": ["1", "", "3"]})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["a"].to_pylist() == ["1", "", "3"]


def test_headerless_roundtrip(frame):
    data = csvio.to_csv_bytes(frame, header=False)
    out = csvio.from_csv_bytes(data, header=False, columns=["a", "b"])
    assert out["b"].to_pylist() == ["x", "y", "z"]


def _landed(store, frame) -> tuple[bytes, list]:
    """One object of ``frame``, and the ``(offset, length)`` its index stores per row."""
    t = write_table(store, "t", frame, n_partitions=1, index_columns=("a",))
    index = csvio.from_csv_bytes(store.storage_read(t.index_key("a", 0)))
    offsets = [(int(o), int(ln)) for o, ln in zip(
        index["_offset"].to_pylist(), index["_length"].to_pylist()
    )]
    return store.storage_read(t.keys[0]), offsets


def test_row_byte_offsets_cover_all_rows(fresh_store, frame):
    _, offs = _landed(fresh_store, frame)
    assert len(offs) == 3


def test_row_byte_offsets_slice_to_rows(fresh_store, frame):
    data, offs = _landed(fresh_store, frame)
    for i, (off, ln) in enumerate(offs):
        row = data[off:off + ln]
        assert row.decode().strip() == f"{frame.a[i]},{frame.b[i]}"


def test_offsets_are_contiguous(fresh_store, frame):
    data, offs = _landed(fresh_store, frame)
    header_end = data.index(b"\n") + 1
    assert offs[0][0] == header_end
    for (o1, l1), (o2, _) in zip(offs, offs[1:]):
        assert o1 + l1 == o2
    assert offs[-1][0] + offs[-1][1] == len(data)


def test_parse_rows_concatenated(fresh_store, frame):
    data, offs = _landed(fresh_store, frame)
    chunk = data[offs[0][0]:offs[0][0] + offs[0][1]] + data[offs[2][0]:offs[2][0] + offs[2][1]]
    out = csvio.parse_rows(chunk, ["a", "b"])
    assert out["a"].to_pylist() == ["1", "3"]


def test_parse_rows_empty():
    out = csvio.parse_rows(b"", ["a", "b"])
    assert len(out) == 0
    assert out.column_names == ["a", "b"]
    assert all(pa.types.is_string(t) for t in out.schema.types)


def test_values_with_commas_quoted():
    df = pd.DataFrame({"a": ["x,y", 'say "hi"', "two\nlines", "z"], "b": list("1234")})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["a"].to_pylist() == ["x,y", 'say "hi"', "two\nlines", "z"]
    assert out["b"].to_pylist() == ["1", "2", "3", "4"]


def test_float_rendering_stable():
    df = pd.DataFrame({"v": [0.5, 1.25]})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["v"].to_pylist() == ["0.5", "1.25"]


# -- decoder contract: S3 Select CSV fields are untyped strings ------------

def test_null_like_tokens_stay_literal():
    data = b"a,b\nNA,null\nNaN,N/A\n"
    out = csvio.from_csv_bytes(data)
    assert out["a"].to_pylist() == ["NA", "NaN"]
    assert out["b"].to_pylist() == ["null", "N/A"]


def test_leading_zeros_and_spaces_kept():
    data = b"a,b\n007, x \n-0.50,  \n"
    out = csvio.from_csv_bytes(data)
    assert out["a"].to_pylist() == ["007", "-0.50"]
    assert out["b"].to_pylist() == [" x ", "  "]


def test_quoted_empty_cell_is_empty_string():
    out = csvio.from_csv_bytes(b'a,b\n"",x\n,""\n')
    assert out["a"].to_pylist() == ["", ""]
    assert out["b"].to_pylist() == ["x", ""]


def test_header_only_object_has_columns_and_no_rows():
    out = csvio.from_csv_bytes(b"a,b,c\n")
    assert out.column_names == ["a", "b", "c"]
    assert len(out) == 0


def test_every_column_is_str():
    data = b"i,f,s,e\n1,2.5,x,\n3,-0.0,y,NA\n"
    table = csvio.from_csv_bytes(data)
    assert all(pa.types.is_string(t) for t in table.schema.types)
    assert all(table[c].null_count == 0 for c in table.column_names)
    for out in (
        table.to_pandas(),
        csvio.parse_rows(data.split(b"\n", 1)[1], ["i", "f", "s", "e"]).to_pandas(),
    ):
        assert all(out[c].dtype == object for c in out.columns)
        assert all(isinstance(v, str) for c in out.columns for v in out[c])
        assert out["f"].tolist() == ["2.5", "-0.0"]
        assert out["e"].tolist() == ["", "NA"]


def test_select_keeps_named_columns_case_insensitively():
    data = b"Aa,b,c\n1,x,p\n2,y,q\n"
    out = csvio.from_csv_bytes(data, select=["c", "aa"])
    assert out.column_names == ["c", "Aa"]
    assert out["Aa"].to_pylist() == ["1", "2"]


def test_select_unknown_or_empty_keeps_every_column():
    data = b"a,b\n1,x\n"
    assert csvio.from_csv_bytes(data, select=["a", "nope"]).column_names == ["a", "b"]
    assert csvio.from_csv_bytes(data, select=[]).column_names == ["a", "b"]
