"""``bytes_returned`` is counted from a result's columns, never rendered.

``csvio.csv_size`` must give ``len(csvio.to_csv_bytes(frame,
header=False))`` for the frame a result becomes (``Result.to_pandas``),
which is how the usage log billed it when the CSV text was built. The
generated columns take every form an evaluator value can: numpy int64
and float64 vectors (NaN as NULL), Arrow strings and booleans with
NULLs, and scalars that every row holds; strings hold the cells that
decide quoting (a comma, a quote, a newline, an empty cell).
"""
import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings, strategies as hst

from repro.s3sim import csvio, parquetio
from repro.s3sim.sql_eval import Result

FLOATS = hst.one_of(
    hst.sampled_from([0.0, -0.0, 1e-05, 1e-4, 1e16, 1e15, 0.1, 2.5, np.nan, np.inf, -np.inf,
                      123456789012345.6, 5e-324]),
    hst.floats(allow_nan=True, allow_infinity=True),
)
INTS = hst.integers(-(2**63), 2**63 - 1)
TEXTS = hst.one_of(
    hst.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "\r", "x\ry", " s ", '"', ",", "é"]),
    hst.text(max_size=6),
)


def _vector(kind: str, n: int):
    """A strategy for one evaluator value of ``n`` rows."""
    if kind == "float":
        return hst.lists(FLOATS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "int":
        return hst.lists(INTS, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    if kind == "bool":
        return hst.lists(hst.sampled_from([True, False, None]), min_size=n, max_size=n).map(
            lambda v: pa.array(v, pa.bool_()))
    if kind == "string":
        return hst.lists(hst.one_of(TEXTS, hst.none()), min_size=n, max_size=n).map(
            lambda v: pa.array(v, pa.string()))
    return hst.one_of(hst.none(), FLOATS, INTS, TEXTS, hst.booleans())  # a scalar


@hst.composite
def results(draw):
    n = draw(hst.integers(0, 5))
    kinds = draw(hst.lists(
        hst.sampled_from(["float", "int", "bool", "string", "scalar"]), min_size=1, max_size=4
    ))
    return Result({f"c{i}": draw(_vector(k, n)) for i, k in enumerate(kinds)}, n)


def _rendered(result: Result) -> int:
    return len(csvio.to_csv_bytes(result.to_pandas(), header=False))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(result=results())
@example(result=Result({"c0": pa.array(["", None, "x"], pa.string())}, 3))
@example(result=Result({"c0": np.array([-0.0, 1e-05, 1e16, np.nan])}, 4))
@example(result=Result({"c0": None}, 2))
@example(result=Result({"c0": ""}, 2))
def test_projection_size_is_its_csv_length(result):
    assert result.csv_size() == _rendered(result)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(values=hst.lists(
    hst.one_of(hst.none(), FLOATS, INTS, TEXTS, hst.booleans(),
               FLOATS.map(np.float64), INTS.map(np.int64)),
    min_size=1, max_size=5,
))
def test_aggregate_size_is_its_csv_length(values):
    result = Result({f"c{i}": v for i, v in enumerate(values)}, 1, aggregate=True)
    assert result.csv_size() == _rendered(result)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    text=hst.lists(hst.one_of(TEXTS, hst.none()), min_size=3, max_size=3),
    ints=hst.lists(hst.one_of(INTS, hst.none()), min_size=3, max_size=3),
    floats=hst.lists(hst.one_of(FLOATS, hst.none()), min_size=3, max_size=3),
    flags=hst.lists(hst.sampled_from([True, False, None]), min_size=3, max_size=3),
)
def test_star_size_is_its_csv_length(text, ints, floats, flags):
    """``SELECT *`` keeps the table: CSV strings, or Parquet's typed columns.

    An int column with a NULL renders as floats, unless pandas metadata
    makes it a nullable-int column again.
    """
    frame = pd.DataFrame({
        "s": text, "i": pd.array(ints, dtype="Int64"), "f": floats,
        "b": pd.array(flags, dtype="boolean"),
    })
    table = parquetio.read_columns(parquetio.to_parquet_bytes(frame), None)
    bare = table.replace_schema_metadata()
    for t in (table, bare, table.select(["s"]), table.select(["i"]), bare.select(["i"]),
              table.slice(1)):
        result = Result({}, t.num_rows, table=t)
        assert result.csv_size() == _rendered(result)
