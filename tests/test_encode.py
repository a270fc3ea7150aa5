"""Landing's encoder against pandas: ``csvio.render``/``csvio.encode``.

Every object ``write_table`` lands is ``csvio.encode`` of its rendered
cells, and must be ``csvio.to_csv_bytes`` of the same rows byte for
byte; each row's byte range (what an index table stores) must be that
row's CSV line. The manifest statistics are taken from the same cells,
and must equal what decoding the object gives. Frames are generated
normalized (``tables.normalize``): int64 and float64 columns, strings
with NULLs and the cells that decide quoting, and dates with NaT; they
are split into objects as ``write_table`` splits them, including more
objects than rows.
"""
import datetime

import numpy as np
import pandas as pd
import pyarrow.compute as pc
from hypothesis import example, given, settings, strategies as hst

from repro.core import tables as T
from repro.s3sim import csvio

FLOATS = hst.one_of(
    hst.sampled_from([np.nan, -0.0, 1e16, 1e-05, 5e-324, 1.7976931348623157e308,
                      0.1, 2.5, np.inf]),
    hst.floats(allow_nan=True, allow_infinity=True),
)
INTS = hst.integers(-(2**63), 2**63 - 1)
TEXTS = hst.one_of(
    hst.sampled_from(["", ",", '"', "\n", "\r", "é", "日本", " s", "s ", "a,b",
                      'say "hi"', "two\nlines", "x\ry"]),
    hst.text(max_size=6),
)
DATES = hst.datetimes(datetime.datetime(1970, 1, 1), datetime.datetime(2030, 12, 31))


def _column(kind: str, n: int, texts):
    """A strategy for one column of ``n`` rows, before ``normalize``."""
    if kind == "int":
        return hst.lists(INTS, min_size=n, max_size=n).map(
            lambda v: pd.Series(v, dtype=np.int64))
    if kind == "float":
        return hst.lists(FLOATS, min_size=n, max_size=n).map(
            lambda v: pd.Series(v, dtype=np.float64))
    if kind == "date":
        return hst.lists(hst.one_of(DATES, hst.none()), min_size=n, max_size=n).map(
            lambda v: pd.Series(v, dtype="datetime64[ns]"))
    return hst.lists(hst.one_of(texts, hst.none()), min_size=n, max_size=n).map(
        lambda v: pd.Series(v, dtype=object))


@hst.composite
def frames(draw, texts=TEXTS):
    """``(normalized frame, objects)``: a frame and how many objects it lands as."""
    n = draw(hst.integers(0, 20))
    kinds = draw(hst.lists(
        hst.sampled_from(["int", "float", "date", "string"]), min_size=1, max_size=4
    ))
    pdf = pd.DataFrame({f"c{i}": draw(_column(k, n, texts)) for i, k in enumerate(kinds)})
    return T.normalize(pdf), draw(hst.integers(1, 8))


def _objects(pdf: pd.DataFrame, n_objects: int) -> list:
    """The frames ``write_table`` lands as objects."""
    return [pdf.iloc[idx] for idx in np.array_split(np.arange(len(pdf)), n_objects)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=frames())
@example(case=(pd.DataFrame({"c0": ["", None, "x", '"']}), 1))
@example(case=(pd.DataFrame({"c0": [np.nan, -0.0, 1e16]}), 2))
@example(case=(pd.DataFrame({"c0": pd.Series([], dtype=np.int64),
                             "c1": pd.Series([], dtype=object)}), 3))
def test_objects_are_pandas_csv_and_ranges_are_its_lines(case):
    pdf, n_objects = case
    for part in _objects(pdf, n_objects):
        data, bounds = csvio.encode({c: csvio.render(part[c]) for c in part.columns})
        assert data == csvio.to_csv_bytes(part)
        assert bounds[0] == len(csvio.to_csv_bytes(part.iloc[:0]))
        assert [data[a:b] for a, b in zip(bounds, bounds[1:])] == [
            csvio.to_csv_bytes(part.iloc[[i]], header=False) for i in range(len(part))
        ]


def test_header_names_are_quoted_as_cells():
    for pdf in (pd.DataFrame({"a,b": [1], 'say "x"': [2.5], "": ["s"]}),
                pd.DataFrame({"": ["", "t"]})):
        data, _ = csvio.encode({c: csvio.render(pdf[c]) for c in pdf.columns})
        assert data == csvio.to_csv_bytes(pdf)


def _decoded_stats(data: bytes) -> dict:
    """Per column of a decoded object: ``(sum of cell widths, distinct non-empty cells)``,
    the distinct cells None when there are more than ``DOMAIN_CAP``."""
    out = {}
    table = csvio.from_csv_bytes(data)
    for c, col in zip(table.column_names, table.columns):
        values = set(pc.unique(col).to_pylist()) - {""}
        out[c] = (pc.sum(pc.utf8_length(col)).as_py() or 0,
                  values if len(values) <= T.DOMAIN_CAP else None)
    return out


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=frames(texts=TEXTS.filter(lambda s: "\r" not in s)))
@example(case=(pd.DataFrame({"c0": [str(i % 17) for i in range(20)], "c1": ["a"] * 20}), 1))
def test_cell_statistics_equal_the_decoded_objects(case):
    """Without a bare ``\\r``, which pandas leaves unquoted and the decoder reads as a row end."""
    pdf, n_objects = case
    for part in _objects(pdf, n_objects):
        cells = {c: csvio.render(part[c]) for c in part.columns}
        stats = {}
        for c, col in cells.items():
            T._add_cell_stats(stats, c, col)
        assert stats == _decoded_stats(csvio.encode(cells)[0])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(dates=hst.lists(hst.one_of(DATES, hst.none()), max_size=8))
def test_normalize_formats_dates_as_strftime(dates):
    d = pd.Series(dates, dtype="datetime64[ns]", name="d")
    got = T.normalize(d.to_frame())["d"]
    pd.testing.assert_series_equal(got, d.dt.strftime("%Y-%m-%d"))
