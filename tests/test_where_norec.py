"""A WHERE's AND chain keeps the rows its CASE WHEN twin says are TRUE.

The evaluator decides an AND chain one conjunct at a time, each only on
the rows the earlier ones kept; a ``CASE WHEN`` evaluates the same chain
as one predicate over every row. The two must agree: this is the NoREC
check (Rigger & Su, "Detecting Optimization Bugs in Database Engines via
Non-Optimizing Reference Engine Construction", ESEC/FSE 2020), with the
projection's CASE as the non-optimizing reference.

For generated all-string objects (integers, decimals, empty cells, junk
and integers near 2**53) and generated chains of comparisons, IN, LIKE,
IS NULL, CAST arithmetic, ``%`` and Bloom probes, ``SELECT k ... WHERE
p1 AND ... AND pn`` must return exactly the rows where ``CASE WHEN p1
AND ... AND pn THEN 1 ELSE 0 END`` is 1, for each object alone and for
the objects as one batch.
"""
import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as hst

from repro.core.bloom import build_from_keys
from repro.s3sim.sql_eval import eval_query
from repro.s3sim.sql_parser import parse

BIG = 2**53
NUMBERS = ["0", "1", "2", "3", "7", "12", "-3", "1.5", "-0.25", "2.50", " 7", "1e1",
           str(BIG), str(BIG + 1), str(-BIG - 1)]
OTHERS = ["", "abc", "n/a"]
STRINGS = ["a", "b", "ab", "a%", "B", ""]

CELLS = hst.sampled_from(NUMBERS + OTHERS)
OBJECT = hst.lists(hst.tuples(CELLS, CELLS, hst.sampled_from(STRINGS)), max_size=8)

NUMBER = hst.sampled_from(["0", "1", "2", "2.5", "-3", "7", str(BIG), "1e1"])
TEXT = hst.sampled_from(["'a'", "'b'", "''", "'1'", "'abc'"])
OP = hst.sampled_from(["=", "!=", "<", "<=", ">", ">="])
NUMERIC = hst.sampled_from([
    "x", "y", "CAST(x AS INT)", "CAST(y AS FLOAT)", "x + y", "x * 2",
    "CAST(x AS INT) % 3", "x % y", "CAST(x AS FLOAT) - CAST(y AS INT)",
])


@hst.composite
def _conjunct(draw, keys: list) -> str:
    kind = draw(hst.sampled_from(
        ["numeric", "text", "in", "like", "null", "not", "or", "bloom"]
    ))
    if kind == "numeric":
        return f"{draw(NUMERIC)} {draw(OP)} {draw(hst.one_of(NUMBER, NUMERIC))}"
    if kind == "text":
        return f"{draw(hst.sampled_from(['x', 's']))} {draw(OP)} {draw(TEXT)}"
    if kind == "in":
        items = draw(hst.lists(hst.one_of(NUMBER, TEXT), min_size=1, max_size=3))
        return f"{draw(hst.sampled_from(['x', 's', 'y']))} IN ({', '.join(items)})"
    if kind == "like":
        pattern = draw(hst.sampled_from(["a%", "%b", "_", "a\\%"]))
        return f"s LIKE '{pattern}'"
    if kind == "null":
        return f"{draw(hst.sampled_from(['x', 'y', 's', 'x + 1']))} IS " \
               f"{draw(hst.sampled_from(['', 'NOT ']))}NULL"
    if kind == "not":
        return f"NOT {draw(NUMERIC)} {draw(OP)} {draw(NUMBER)}"
    if kind == "or":
        return f"({draw(NUMERIC)} {draw(OP)} {draw(NUMBER)} OR s {draw(OP)} {draw(TEXT)})"
    members = draw(hst.lists(hst.sampled_from(keys), max_size=4))
    fpr = draw(hst.sampled_from([0.5, 0.2, 0.05]))
    return build_from_keys(members, fpr).to_predicate(draw(hst.sampled_from(["x", "y"])))


def _table(rows: list, first: int) -> pa.Table:
    x, y, s = zip(*rows) if rows else ((), (), ())
    return pa.table({
        "k": pa.array([str(first + i) for i in range(len(rows))], pa.string()),
        "x": pa.array(x, pa.string()), "y": pa.array(y, pa.string()),
        "s": pa.array(s, pa.string()),
    })


def _kept(sql_where: str, table: pa.Table, bounds: list) -> list:
    """Per object, the ``k`` of the rows the WHERE keeps."""
    results = eval_query(parse(f"SELECT k FROM S3Object WHERE {sql_where}"), table, bounds)
    return [r.to_pandas()["k"].tolist() for r in results]


def _true(chain: str, table: pa.Table, bounds: list) -> list:
    """Per object, the ``k`` of the rows where ``CASE WHEN chain`` is 1."""
    sql = f"SELECT k, CASE WHEN {chain} THEN 1 ELSE 0 END AS t FROM S3Object"
    out = []
    for r in eval_query(parse(sql), table, bounds):
        df = r.to_pandas()
        out.append(df["k"][df["t"] == 1].tolist())
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=hst.data(), objects=hst.lists(OBJECT, min_size=1, max_size=3))
def test_where_chain_keeps_the_rows_its_case_when_calls_true(data, objects):
    keys = [int(c) for c in NUMBERS if c.strip().lstrip("-").isdigit()
            and 0 <= int(c) < 2**31] or [0]
    chain = " AND ".join(data.draw(hst.lists(_conjunct(keys), min_size=1, max_size=4)))
    tables, first = [], 0
    for rows in objects:
        tables.append(_table(rows, first))
        first += len(rows)
    for table in tables:  # each object alone
        bounds = [0, table.num_rows]
        assert _kept(chain, table, bounds) == _true(chain, table, bounds), chain
    batch = pa.concat_tables(tables)
    bounds = np.cumsum([0] + [t.num_rows for t in tables]).tolist()
    assert _kept(chain, batch, bounds) == _true(chain, batch, bounds), chain


def test_a_conjunct_types_numbers_by_the_objects_rows_not_the_survivors():
    """A numeric vector is typed by every row of its object, also in a
    conjunct that runs after an earlier one dropped rows.

    Here ``'abc'`` makes ``x`` float64 over the object, so 2**53 + 1
    reads as 2**53 and equals it; the first conjunct drops ``'abc'``, and
    typed by the survivors alone ``x`` would be int64, which tells the
    two apart. The survivors' own type is the projection's: ``x + 0``
    over the kept row is the int64 2**53 + 1.
    """
    table = _table([(str(BIG + 1), "", "a"), ("abc", "", "b")], 0)
    chain = f"x != 'abc' AND x = {BIG}"
    assert _kept(chain, table, [0, 2]) == [["0"]] == _true(chain, table, [0, 2])
    sql = f"SELECT x + 0 AS v FROM S3Object WHERE {chain}"
    [result] = eval_query(parse(sql), table, [0, 2])
    assert result.to_pandas()["v"].tolist() == [BIG + 1]
