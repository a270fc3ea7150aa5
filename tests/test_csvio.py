"""Unit tests for repro.s3sim.csvio (wire format + byte offsets)."""
import pandas as pd
import pytest

from repro.s3sim import csvio


@pytest.fixture()
def frame():
    return pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})


def test_roundtrip_is_stringly(frame):
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(frame))
    assert list(out.columns) == ["a", "b"]
    assert out["a"].tolist() == ["1", "2", "3"]  # untyped, like S3 Select CSV


def test_empty_cells_become_empty_strings():
    df = pd.DataFrame({"a": ["1", "", "3"]})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["a"].tolist() == ["1", "", "3"]


def test_headerless_roundtrip(frame):
    data = csvio.to_csv_bytes(frame, header=False)
    out = csvio.from_csv_bytes(data, header=False, columns=["a", "b"])
    assert out["b"].tolist() == ["x", "y", "z"]


def test_row_byte_offsets_cover_all_rows(frame):
    data = csvio.to_csv_bytes(frame)
    offs = csvio.row_byte_offsets(data)
    assert len(offs) == 3


def test_row_byte_offsets_slice_to_rows(frame):
    data = csvio.to_csv_bytes(frame)
    for i, (off, ln) in enumerate(csvio.row_byte_offsets(data)):
        row = data[off:off + ln]
        assert row.decode().strip() == f"{frame.a[i]},{frame.b[i]}"


def test_row_byte_offsets_no_trailing_newline():
    data = b"h\n1,a\n2,b"  # last row unterminated
    offs = csvio.row_byte_offsets(data)
    assert len(offs) == 2
    off, ln = offs[1]
    assert data[off:off + ln] == b"2,b"


def test_offsets_are_contiguous(frame):
    data = csvio.to_csv_bytes(frame)
    offs = csvio.row_byte_offsets(data)
    header_end = data.index(b"\n") + 1
    assert offs[0][0] == header_end
    for (o1, l1), (o2, _) in zip(offs, offs[1:]):
        assert o1 + l1 == o2


def test_parse_rows_concatenated(frame):
    data = csvio.to_csv_bytes(frame)
    offs = csvio.row_byte_offsets(data)
    chunk = data[offs[0][0]:offs[0][0] + offs[0][1]] + data[offs[2][0]:offs[2][0] + offs[2][1]]
    out = csvio.parse_rows(chunk, ["a", "b"])
    assert out["a"].tolist() == ["1", "3"]


def test_parse_rows_empty():
    out = csvio.parse_rows(b"", ["a", "b"])
    assert len(out) == 0
    assert list(out.columns) == ["a", "b"]


def test_values_with_commas_quoted():
    df = pd.DataFrame({"a": ["x,y", 'say "hi"', "two\nlines", "z"], "b": list("1234")})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["a"].tolist() == ["x,y", 'say "hi"', "two\nlines", "z"]
    assert out["b"].tolist() == ["1", "2", "3", "4"]


def test_float_rendering_stable():
    df = pd.DataFrame({"v": [0.5, 1.25]})
    out = csvio.from_csv_bytes(csvio.to_csv_bytes(df))
    assert out["v"].tolist() == ["0.5", "1.25"]


# -- decoder contract: S3 Select CSV fields are untyped strings ------------

def test_null_like_tokens_stay_literal():
    data = b"a,b\nNA,null\nNaN,N/A\n"
    out = csvio.from_csv_bytes(data)
    assert out["a"].tolist() == ["NA", "NaN"]
    assert out["b"].tolist() == ["null", "N/A"]


def test_leading_zeros_and_spaces_kept():
    data = b"a,b\n007, x \n-0.50,  \n"
    out = csvio.from_csv_bytes(data)
    assert out["a"].tolist() == ["007", "-0.50"]
    assert out["b"].tolist() == [" x ", "  "]


def test_quoted_empty_cell_is_empty_string():
    out = csvio.from_csv_bytes(b'a,b\n"",x\n,""\n')
    assert out["a"].tolist() == ["", ""]
    assert out["b"].tolist() == ["x", ""]


def test_header_only_object_has_columns_and_no_rows():
    out = csvio.from_csv_bytes(b"a,b,c\n")
    assert list(out.columns) == ["a", "b", "c"]
    assert len(out) == 0


def test_every_column_is_str():
    data = b"i,f,s,e\n1,2.5,x,\n3,-0.0,y,NA\n"
    for out in (
        csvio.from_csv_bytes(data),
        csvio.parse_rows(data.split(b"\n", 1)[1], ["i", "f", "s", "e"]),
    ):
        assert all(out[c].dtype == object for c in out.columns)
        assert all(isinstance(v, str) for c in out.columns for v in out[c])
        assert out["f"].tolist() == ["2.5", "-0.0"]
        assert out["e"].tolist() == ["", "NA"]


def test_select_keeps_named_columns_case_insensitively():
    data = b"Aa,b,c\n1,x,p\n2,y,q\n"
    out = csvio.from_csv_bytes(data, select=["c", "aa"])
    assert list(out.columns) == ["c", "Aa"]
    assert out["Aa"].tolist() == ["1", "2"]


def test_select_unknown_or_empty_keeps_every_column():
    data = b"a,b\n1,x\n"
    assert list(csvio.from_csv_bytes(data, select=["a", "nope"]).columns) == ["a", "b"]
    assert list(csvio.from_csv_bytes(data, select=[]).columns) == ["a", "b"]
