"""``select_all`` evaluates a batch of objects at once; it must answer as
one ``s3_select`` per object does.

Generated all-string objects mix the cells that decide a numeric
vector's dtype -- integers, an empty cell, a decimal, junk -- and empty
objects, so that an object alone can type a value otherwise than the
batch (``a + 1`` renders ``2`` over ``['1', '2']`` but ``2.0`` in a
batch with ``['3', '']``). Frames (values and dtypes), their CSV bytes
and the usage records must all be those of the per-object requests.
"""
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings, strategies as hst

from repro import synth_data
from repro.core.bloom import build_from_keys
from repro.s3sim import ObjectStore, csvio, parquetio, s3_select, select_all
from repro.s3sim.sql_eval import SqlEvalError, _Evaluator

BLOOM = build_from_keys([1, 4, 9, 16, 25], fpr=0.3).to_predicate("k")

SQLS = [
    "SELECT a + 1, CAST(a AS INT), CAST(a AS FLOAT) * 2 FROM S3Object",
    "SELECT a % k, k - a FROM S3Object",
    "SELECT MIN(a), MAX(a), MIN(a + 0), MAX(CAST(a AS FLOAT)), MAX(s) FROM S3Object",
    "SELECT SUM(a), AVG(a), COUNT(a), COUNT(*), SUM(a + 1) FROM S3Object",
    "SELECT CASE WHEN a > 2 THEN a + 1 WHEN s = '' THEN NULL ELSE s END FROM S3Object",
    "SELECT SUM(CASE WHEN s LIKE 'a%' THEN a ELSE 0 END) AS t FROM S3Object",
    "SELECT a + 1, s FROM S3Object LIMIT 2",
    "SELECT a * 2 FROM S3Object WHERE k > '3' LIMIT 1",
    "SELECT * FROM S3Object",
    "SELECT * FROM S3Object LIMIT 1",
    "SELECT k, a + 0 FROM S3Object WHERE s LIKE 'a%'",
    f"SELECT k, a FROM S3Object WHERE {BLOOM}",
]

# Cells of column ``a`` by the kind of object they make.
INTS = hst.sampled_from(["0", "1", "2", "-3", "17", "007"])
SPECIAL = {
    "integers": INTS,
    "empty cell": hst.just(""),
    "decimal": hst.sampled_from(["2.5", "1.0", "-0.25", "1e3"]),
    "junk": hst.sampled_from(["x", " 4", "+5", "nan", "--1"]),
}


@hst.composite
def objects(draw):
    """1-5 objects of rows ``(k, a, s)``; each object integers plus one kind of cell."""
    out = []
    for _ in range(draw(hst.integers(1, 5))):
        kind = draw(hst.sampled_from(sorted(SPECIAL) + ["empty object"]))
        if kind == "empty object":
            out.append([])
            continue
        a = draw(hst.lists(INTS, max_size=4))
        a.insert(draw(hst.integers(0, len(a))), draw(SPECIAL[kind]))
        out.append([
            (str(draw(hst.integers(0, 30))), cell, draw(hst.sampled_from(["ab", "ba", "", "a%"])))
            for cell in a
        ])
    return out


def _csv(rows) -> bytes:
    return csvio.to_csv_bytes(pd.DataFrame(rows, columns=["k", "a", "s"], dtype=str))


def _records(store, fn):
    pos = store.log.position()
    out = fn()
    return out, store.log.path.read_bytes()[pos:].splitlines()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(objs=objects(), sql=hst.sampled_from(SQLS))
@example(objs=[[("1", "1", "ab"), ("2", "2", "ab")], [("3", "3", "ab"), ("4", "", "ab")]],
         sql="SELECT a + 1 FROM S3Object")
@example(objs=[[("1", "1", "ab")], [], [("2", "2.5", "ba")]],
         sql="SELECT a + 1, s FROM S3Object LIMIT 2")
def test_batch_answers_as_one_request_per_object(objs, sql):
    with tempfile.TemporaryDirectory() as tmp:
        store = ObjectStore(Path(tmp))
        keys = [f"t/part{i}.csv" for i in range(len(objs))]
        for key, rows in zip(keys, objs):
            store.put(key, _csv(rows))
        want, want_usage = _records(store, lambda: [s3_select(store, k, sql) for k in keys])
        got, got_usage = _records(store, lambda: select_all(store, keys, sql))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        pd.testing.assert_frame_equal(g, w, check_exact=True)
        assert csvio.to_csv_bytes(g) == csvio.to_csv_bytes(w)
    assert got_usage == want_usage


def test_parquet_batch_types_each_object_alone(tmp_path):
    """An integer column is int64 in an object without NULLs, float64 in one with."""
    store = ObjectStore(tmp_path)
    parts = [pd.array([1, 2], dtype="Int64"), pd.array([3, None], dtype="Int64")]
    keys = [f"t/part{i}.parquet" for i in range(len(parts))]
    for key, a in zip(keys, parts):
        store.put(key, parquetio.to_parquet_bytes(pd.DataFrame({"a": a})))
    sql = "SELECT a, a + 1 FROM S3Object"
    want = [s3_select(store, k, sql, input_format="parquet") for k in keys]
    got = select_all(store, keys, sql, input_format="parquet")
    assert [str(w["a"].dtype) for w in want] == ["int64", "float64"]
    for g, w in zip(got, want):
        pd.testing.assert_frame_equal(g, w, check_exact=True)


def test_objects_with_other_columns_are_evaluated_alone(tmp_path):
    store = ObjectStore(tmp_path)
    store.put("t/part0.csv", b"a,b\n1,x\n")
    store.put("t/part1.csv", b"a\n2\n")
    keys = ["t/part0.csv", "t/part1.csv"]
    for got, key in zip(select_all(store, keys, "SELECT * FROM S3Object"), keys):
        pd.testing.assert_frame_equal(got, s3_select(store, key, "SELECT * FROM S3Object"))
    with pytest.raises(SqlEvalError, match="no such column"):
        select_all(store, keys, "SELECT b FROM S3Object")


def _q1_items() -> list:
    """Q1's 36 ``SUM(CASE ...)`` items: 6 groups x 6 sums, over 6 conditions and 4 CASTs."""
    price = "CAST(l_extendedprice AS FLOAT)"
    disc_price = f"{price} * (1 - CAST(l_discount AS FLOAT))"
    sums = [
        "CAST(l_quantity AS FLOAT)", price, disc_price,
        f"{disc_price} * (1 + CAST(l_tax AS FLOAT))", "CAST(l_discount AS FLOAT)", "1",
    ]
    return [
        f"SUM(CASE WHEN l_returnflag = '{flag}' AND l_linestatus = '{status}' "
        f"THEN {expr} ELSE 0 END) AS s{i}_{g}"
        for g, (flag, status) in enumerate((f, s) for f in "ANR" for s in "FO")
        for i, expr in enumerate(sums)
    ]


def test_q1_batch_answers_as_one_request_per_object_and_frees_each_case_vector(
    tmp_path, monkeypatch
):
    store = ObjectStore(tmp_path)
    lineitem = synth_data.lineitem_frame(sf=0.0005)
    lineitem["l_shipdate"] = lineitem["l_shipdate"].dt.strftime("%Y-%m-%d")
    keys = [f"lineitem/part{i}.csv" for i in range(4)]
    for key, rows in zip(keys, np.array_split(np.arange(len(lineitem)), 4)):
        store.put(key, csvio.to_csv_bytes(lineitem.iloc[rows]))
    sql = (
        "SELECT " + ", ".join(_q1_items()) + " FROM S3Object"
        " WHERE l_shipdate <= '1998-09-02'"
    )
    want, want_usage = _records(store, lambda: [s3_select(store, k, sql) for k in keys])

    case_vectors = {}  # CASE node -> a weak reference to its batch vector
    eval_case, eval_aggregate = _Evaluator._eval_case, _Evaluator._eval_aggregate

    def recorded_case(self, e):
        v = eval_case(self, e)
        case_vectors[e] = weakref.ref(v)
        return v

    def checked_aggregate(self, e):
        held = [node for node, v in case_vectors.items() if v() is not None]
        assert held in ([], [e.args[0]])  # only this item's vector, if any
        return eval_aggregate(self, e)

    monkeypatch.setattr(_Evaluator, "_eval_case", recorded_case)
    monkeypatch.setattr(_Evaluator, "_eval_aggregate", checked_aggregate)
    got, got_usage = _records(store, lambda: select_all(store, keys, sql))
    assert len(case_vectors) == 36
    for g, w in zip(got, want, strict=True):
        pd.testing.assert_frame_equal(g, w, check_exact=True)
        assert csvio.to_csv_bytes(g) == csvio.to_csv_bytes(w)
    assert got_usage == want_usage
