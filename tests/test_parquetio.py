"""Unit tests for repro.s3sim.parquetio (column-chunk scan accounting)."""
import numpy as np
import pandas as pd
import pytest

from repro.s3sim import parquetio
from repro.schema import typed_array


@pytest.fixture(scope="module")
def frame():
    g = np.random.default_rng(0)
    return pd.DataFrame(
        {"a": g.random(5000).round(4), "b": g.random(5000).round(4),
         "c": g.integers(0, 100, 5000)}
    )


@pytest.fixture(scope="module")
def blob(frame):
    return parquetio.to_parquet_bytes(frame)


def test_roundtrip(frame, blob):
    out = parquetio.read_columns(blob)
    pd.testing.assert_frame_equal(out.to_pandas(), frame)


def test_projection(frame, blob):
    out = parquetio.read_columns(blob, ["b"])
    assert out.column_names == ["b"]
    assert out["b"].to_pylist() == frame["b"].tolist()


def test_projection_case_insensitive(blob):
    out = parquetio.read_columns(blob, ["B"])
    assert out.column_names == ["b"]


def test_projection_missing_column(blob):
    with pytest.raises(KeyError):
        parquetio.read_columns(blob, ["nope"])


def test_scanned_bytes_prunes_columns(blob):
    all_cols = parquetio.scanned_bytes(blob)
    one_col = parquetio.scanned_bytes(blob, ["a"])
    assert one_col < all_cols
    assert one_col > 0


def test_scanned_bytes_additive_across_columns(blob):
    a = parquetio.scanned_bytes(blob, ["a"])
    ab = parquetio.scanned_bytes(blob, ["a", "b"])
    assert ab > a


def test_scanned_bytes_at_most_object_size(frame, blob):
    # Compressed column chunks + footer cannot exceed the object itself.
    assert parquetio.scanned_bytes(blob) <= len(blob)


def test_compression_shrinks(frame):
    snappy = parquetio.to_parquet_bytes(frame, compression="snappy")
    none = parquetio.to_parquet_bytes(frame, compression="none")
    assert len(snappy) < len(none)


def test_row_groups(frame):
    blob = parquetio.to_parquet_bytes(frame, row_group_rows=1000)
    out = parquetio.read_columns(blob)
    assert len(out) == len(frame)


def test_null_string_cells_stay_null_when_typed():
    blob = parquetio.to_parquet_bytes(pd.DataFrame({"s": ["a", None, ""]}))
    cells = parquetio.read_columns(blob)["s"]
    assert typed_array(cells, "STRING").to_pylist() == ["a", None, None]
