"""Unit tests for the S3 Select evaluator.

Projection/filter semantics are checked against expected values and,
for a batch of queries, cross-checked against DuckDB evaluating an
equivalent (typed) query over the same rows.
"""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from repro.core.bloom import build_from_keys
from repro.s3sim import sql_eval
from repro.s3sim.csvio import to_csv_bytes
from repro.s3sim.sql_ast import Column
from repro.s3sim.sql_eval import SqlEvalError
from tests.reference import eval_frame


@pytest.fixture()
def df():
    # All-string frame, as CSV objects arrive.
    return pd.DataFrame(
        {
            "a": ["1", "2", "3", "4", ""],
            "b": ["x", "y", "x", "z", "y"],
            "d": ["1992-01-01", "1993-06-15", "1994-01-01", "1992-12-31", "1995-05-05"],
            "v": ["1.5", "2.5", "-1.0", "0.25", "10.0"],
        }
    )


def run(sql, df):
    return eval_frame(sql, df)


# -- projection ------------------------------------------------------------

def test_star(df):
    out = run("SELECT * FROM S3Object", df)
    assert out.shape == df.shape


def test_projection_order(df):
    out = run("SELECT b, a FROM S3Object", df)
    assert list(out.columns) == ["b", "a"]


def test_alias(df):
    out = run("SELECT a AS q FROM S3Object", df)
    assert list(out.columns) == ["q"]


def test_expression_column_autoname(df):
    out = run("SELECT a, CAST(a AS INT) + 1 FROM S3Object", df)
    assert list(out.columns) == ["a", "_2"]


def test_case_insensitive_column_lookup(df):
    out = run("SELECT A FROM S3Object", df)
    assert list(out.columns) == ["a"]


def test_unknown_column_raises(df):
    with pytest.raises(SqlEvalError, match="no such column"):
        run("SELECT nope FROM S3Object", df)


# -- filtering -------------------------------------------------------------

def test_numeric_coercion_on_compare(df):
    out = run("SELECT a FROM S3Object WHERE a >= 2", df)
    assert out["a"].tolist() == ["2", "3", "4"]


def test_cast_compare(df):
    out = run("SELECT a FROM S3Object WHERE CAST(a AS INT) = 3", df)
    assert out["a"].tolist() == ["3"]


def test_string_compare_lexicographic(df):
    out = run("SELECT d FROM S3Object WHERE d < '1993-01-01'", df)
    assert out["d"].tolist() == ["1992-01-01", "1992-12-31"]


def test_and_or_not(df):
    out = run(
        "SELECT a FROM S3Object WHERE (b = 'x' OR b = 'y') AND NOT a = 1", df
    )
    # The last row's a is '' (NULL): NOT (NULL = 1) is NULL, so it drops.
    assert out["a"].tolist() == ["2", "3"]


def test_null_cell_drops_from_numeric_compare(df):
    out = run("SELECT a FROM S3Object WHERE a > 0", df)
    assert "" not in out["a"].tolist()


def test_is_null(df):
    assert run("SELECT b FROM S3Object WHERE a IS NULL", df)["b"].tolist() == ["y"]


def test_is_not_null(df):
    assert len(run("SELECT a FROM S3Object WHERE a IS NOT NULL", df)) == 4


def test_between(df):
    out = run("SELECT a FROM S3Object WHERE a BETWEEN 2 AND 3", df)
    assert out["a"].tolist() == ["2", "3"]


def test_not_between(df):
    out = run("SELECT a FROM S3Object WHERE a NOT BETWEEN 2 AND 3", df)
    assert out["a"].tolist() == ["1", "4"]


def test_in_list_numeric(df):
    out = run("SELECT a FROM S3Object WHERE a IN (1, 4)", df)
    assert out["a"].tolist() == ["1", "4"]


def test_in_list_string(df):
    out = run("SELECT b FROM S3Object WHERE b IN ('x', 'z')", df)
    assert out["b"].tolist() == ["x", "x", "z"]


def test_not_in(df):
    out = run("SELECT b FROM S3Object WHERE b NOT IN ('x')", df)
    assert set(out["b"]) == {"y", "z"}


def test_like_prefix(df):
    out = run("SELECT d FROM S3Object WHERE d LIKE '1992%'", df)
    assert len(out) == 2


def test_like_underscore():
    df = pd.DataFrame({"s": ["cat", "cut", "cart"]})
    out = run("SELECT s FROM S3Object WHERE s LIKE 'c_t'", df)
    assert out["s"].tolist() == ["cat", "cut"]


def test_not_like(df):
    out = run("SELECT d FROM S3Object WHERE d NOT LIKE '1992%'", df)
    assert len(out) == 3


def test_limit(df):
    assert len(run("SELECT a FROM S3Object LIMIT 2", df)) == 2


def test_limit_after_where(df):
    out = run("SELECT a FROM S3Object WHERE a >= 2 LIMIT 1", df)
    assert out["a"].tolist() == ["2"]


# -- scalar expressions ------------------------------------------------------

def test_arithmetic(df):
    out = run("SELECT CAST(v AS FLOAT) * 2 + 1 AS r FROM S3Object", df)
    assert out["r"].tolist() == [4.0, 6.0, -1.0, 1.5, 21.0]


def test_modulo_chain(df):
    out = run("SELECT ((3 * CAST(a AS INT) + 1) % 7) % 5 AS h FROM S3Object", df)
    assert out["h"].tolist()[:4] == [4.0, 0.0, 3.0, 1.0]


def test_unary_minus(df):
    out = run("SELECT -CAST(a AS INT) AS n FROM S3Object WHERE a = 2", df)
    assert out["n"].tolist() == [-2.0]


def test_cast_to_string(df):
    out = run("SELECT CAST(v AS STRING) AS s FROM S3Object LIMIT 1", df)
    assert out["s"].tolist() == ["1.5"]


def test_substring_literal_scalar(df):
    out = run("SELECT SUBSTRING('abcdef', 2, 3) AS s FROM S3Object LIMIT 1", df)
    assert out["s"].tolist() == ["bcd"]


def test_substring_literal_vector_position(df):
    out = run(
        "SELECT SUBSTRING('10110', CAST(a AS INT), 1) AS bit FROM S3Object "
        "WHERE a IS NOT NULL",
        df,
    )
    assert out["bit"].tolist() == ["1", "0", "1", "1"]


def test_substring_out_of_range_is_empty(df):
    out = run(
        "SELECT SUBSTRING('ab', CAST(a AS INT) * 10, 1) AS s FROM S3Object "
        "WHERE a = 1",
        df,
    )
    assert out["s"].tolist() == [""]


def test_substring_column(df):
    out = run("SELECT SUBSTRING(d, 1, 4) AS y FROM S3Object LIMIT 2", df)
    assert out["y"].tolist() == ["1992", "1993"]


def test_case_when(df):
    out = run(
        "SELECT CASE WHEN b = 'x' THEN 1 ELSE 0 END AS f FROM S3Object", df
    )
    assert out["f"].tolist() == [1, 0, 1, 0, 0]


def test_case_when_no_else_defaults_zero(df):
    out = run("SELECT CASE WHEN b = 'x' THEN 5 END AS f FROM S3Object", df)
    assert out["f"].tolist() == [5, 0, 5, 0, 0]


def test_upper_lower(df):
    out = run("SELECT UPPER(b) AS u FROM S3Object LIMIT 1", df)
    assert out["u"].tolist() == ["X"]


def test_abs(df):
    out = run("SELECT ABS(CAST(v AS FLOAT)) AS r FROM S3Object WHERE v < 0", df)
    assert out["r"].tolist() == [1.0]


# -- aggregates --------------------------------------------------------------

def test_count_star(df):
    assert run("SELECT COUNT(*) AS c FROM S3Object", df)["c"].iloc[0] == 5


def test_count_skips_nulls(df):
    assert run("SELECT COUNT(a) AS c FROM S3Object", df)["c"].iloc[0] == 4


def test_sum(df):
    assert run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object", df)["s"].iloc[0] == 10


def test_sum_implicit_numeric(df):
    assert run("SELECT SUM(v) AS s FROM S3Object", df)["s"].iloc[0] == 13.25


def test_avg(df):
    assert run("SELECT AVG(CAST(a AS INT)) AS m FROM S3Object", df)["m"].iloc[0] == 2.5


def test_min_max_strings(df):
    out = run("SELECT MIN(d) AS lo, MAX(d) AS hi FROM S3Object", df)
    assert out["lo"].iloc[0] == "1992-01-01"
    assert out["hi"].iloc[0] == "1995-05-05"


def test_aggregate_with_where(df):
    out = run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object WHERE b = 'x'", df)
    assert out["s"].iloc[0] == 4


def test_sum_case_groupby_encoding(df):
    out = run(
        "SELECT SUM(CASE WHEN b = 'x' THEN CAST(v AS FLOAT) ELSE 0 END) AS sx, "
        "SUM(CASE WHEN b = 'y' THEN CAST(v AS FLOAT) ELSE 0 END) AS sy "
        "FROM S3Object",
        df,
    )
    assert out["sx"].iloc[0] == 0.5
    assert out["sy"].iloc[0] == 12.5


def test_sum_empty_is_null(df):
    out = run("SELECT SUM(CAST(a AS INT)) AS s FROM S3Object WHERE b = 'nope'", df)
    assert out["s"].iloc[0] is None


def test_count_empty_is_zero(df):
    out = run("SELECT COUNT(*) AS c FROM S3Object WHERE b = 'nope'", df)
    assert out["c"].iloc[0] == 0


def test_mixed_agg_and_column_rejected(df):
    with pytest.raises(SqlEvalError, match="mix aggregates"):
        run("SELECT a, SUM(v) FROM S3Object", df)


def test_aggregate_in_where_rejected(df):
    with pytest.raises(SqlEvalError, match="WHERE"):
        run("SELECT a FROM S3Object WHERE SUM(v) > 1", df)


def test_nested_aggregate_rejected(df):
    with pytest.raises(SqlEvalError, match="nested"):
        run("SELECT SUM(SUM(v)) FROM S3Object", df)


# -- cross-check against DuckDB ---------------------------------------------

@pytest.mark.parametrize(
    "ours,duck",
    [
        (
            "SELECT a FROM S3Object WHERE CAST(a AS FLOAT) > 2",
            "SELECT a FROM t WHERE TRY_CAST(a AS DOUBLE) > 2",
        ),
        (
            "SELECT SUM(CAST(v AS FLOAT)) AS s FROM S3Object WHERE b != 'y'",
            "SELECT SUM(CAST(v AS DOUBLE)) AS s FROM t WHERE b != 'y'",
        ),
        (
            "SELECT d FROM S3Object WHERE d BETWEEN '1992-06-01' AND '1994-06-01'",
            "SELECT d FROM t WHERE d BETWEEN '1992-06-01' AND '1994-06-01'",
        ),
        (
            "SELECT b, d FROM S3Object WHERE b IN ('x', 'y') AND d < '1994-01-01'",
            "SELECT b, d FROM t WHERE b IN ('x', 'y') AND d < '1994-01-01'",
        ),
        (
            "SELECT COUNT(*) AS c, MIN(d) AS lo FROM S3Object WHERE b LIKE '_'",
            "SELECT COUNT(*) AS c, MIN(d) AS lo FROM t WHERE b LIKE '_'",
        ),
    ],
)
def test_matches_duckdb(df, ours, duck):
    got = run(ours, df).reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", df)
    expected = con.execute(duck).fetchdf()
    con.close()
    got = got.astype(object)
    expected = expected.astype(object)
    pd.testing.assert_frame_equal(
        got.sort_values(list(got.columns)).reset_index(drop=True),
        expected.sort_values(list(expected.columns)).reset_index(drop=True),
        check_dtype=False,
    )


def test_large_frame_vectorized_substring_speed():
    """The Bloom-probe fast path handles 100k rows without blowing up."""
    n = 100_000
    df = pd.DataFrame({"k": np.arange(n).astype(str)})
    bits = "10" * 500
    out = run(
        f"SELECT k FROM S3Object WHERE "
        f"SUBSTRING('{bits}', ((7 * CAST(k AS INT) + 3) % 1009) % 1000 + 1, 1) = '1'",
        df,
    )
    assert 0 < len(out) < n


# -- per-request memo: shared subexpressions are evaluated once -------------
#
# The reference needs no second evaluator: a single-item query shares
# nothing, so a multi-item query must equal the concatenation of its
# items run one at a time -- values, dtypes and CSV rendering alike.

def _generated(seed: int, n: int = 400) -> pd.DataFrame:
    """A lineitem-like all-string frame with empty and junk cells."""
    g = np.random.default_rng(seed)

    def dirty(vals):
        vals = np.asarray(vals, dtype=object)
        r = g.random(len(vals))
        vals[r < 0.05] = ""
        vals[(r >= 0.05) & (r < 0.07)] = "n/a"
        return vals

    days = pd.to_datetime(g.integers(8000, 10500, n), unit="D")
    return pd.DataFrame(
        {
            "k": g.integers(1, 5000, n).astype(str),
            "l_quantity": dirty(g.integers(1, 51, n).astype(str)),
            "l_extendedprice": dirty((g.random(n) * 90000).round(2).astype(str)),
            "l_discount": dirty((g.random(n) * 0.1).round(2).astype(str)),
            "l_tax": dirty((g.random(n) * 0.08).round(2).astype(str)),
            "l_returnflag": g.choice(list("ANR"), n).astype(object),
            "l_linestatus": g.choice(list("OF"), n).astype(object),
            "l_shipdate": days.strftime("%Y-%m-%d").to_numpy(dtype=object),
            "g1": dirty((g.zipf(1.5, n) % 12).astype(str)),
            "v1": dirty(g.random(n).round(6).astype(str)),
            "v2": dirty(g.integers(0, 100, n).astype(str)),
        }
    )


def _q1_items() -> list:
    sums = {
        "qty": "CAST(l_quantity AS FLOAT)",
        "base": "CAST(l_extendedprice AS FLOAT)",
        "disc_price": (
            "CAST(l_extendedprice AS FLOAT) * (1 - CAST(l_discount AS FLOAT))"
        ),
        "charge": (
            "CAST(l_extendedprice AS FLOAT) * (1 - CAST(l_discount AS FLOAT))"
            " * (1 + CAST(l_tax AS FLOAT))"
        ),
        "disc": "CAST(l_discount AS FLOAT)",
        "cnt": "1",
    }
    combos = [(rf, ls) for rf in "ANR" for ls in "FO"]
    return [
        f"SUM(CASE WHEN l_returnflag = '{rf}' AND l_linestatus = '{ls}' "
        f"THEN {expr} ELSE 0 END) AS {name}_{gi}"
        for gi, (rf, ls) in enumerate(combos)
        for name, expr in sums.items()
    ]


def _bloom_items() -> list:
    bf = build_from_keys(np.arange(1, 5000, 3), 0.05, seed=2)
    probes = bf.to_predicate("k").split(" AND ")
    return ["k", "CAST(k AS INT) AS ik"] + [
        p.removesuffix(" = '1'") + f" AS p{i}" for i, p in enumerate(probes)
    ]


_MULTI_ITEM = {
    "q1": (_q1_items(), "l_shipdate <= '1998-09-02'"),
    "q6": (
        [
            "SUM(CAST(l_extendedprice AS FLOAT) * CAST(l_discount AS FLOAT)) AS rev",
            "SUM(CAST(l_extendedprice AS FLOAT)) AS price",
            "COUNT(l_discount) AS n",
            "AVG(CAST(l_discount AS FLOAT)) AS d",
            "MIN(l_shipdate) AS lo",
        ],
        "l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'"
        " AND CAST(l_discount AS FLOAT) BETWEEN 0.05 AND 0.07"
        " AND CAST(l_quantity AS FLOAT) < 24",
    ),
    "bloom": (_bloom_items(), "l_shipdate > '1995-03-15'"),
    "hybrid": (
        [
            f"SUM(CASE WHEN g1 = {g} THEN CAST(v{j} AS FLOAT) ELSE 0 END) AS s_{g}_{j}"
            for g in range(1, 9)
            for j in (1, 2)
        ],
        None,
    ),
    "projection": (
        [
            "l_quantity",
            "CAST(l_quantity AS INT) + 1 AS a",
            "CAST(l_quantity AS INT) + 1.0 AS b",
            "CASE WHEN g1 IN (1, 2) THEN l_quantity ELSE 0 END AS c",
            "CAST(l_extendedprice AS FLOAT) * (1 - CAST(l_discount AS FLOAT)) AS d",
        ],
        "g1 NOT IN (3, 4) AND l_tax IS NOT NULL",
    ),
}


def _select(items, where) -> str:
    sql = "SELECT " + ", ".join(items) + " FROM S3Object"
    return sql if where is None else sql + " WHERE " + where


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(_MULTI_ITEM))
def test_multi_item_equals_items_run_alone(kind, seed):
    df = _generated(seed)
    items, where = _MULTI_ITEM[kind]
    got = run(_select(items, where), df)
    alone = pd.concat(
        [run(_select([it], where), df) for it in items], axis=1
    )
    alone.columns = got.columns
    pd.testing.assert_frame_equal(got, alone)
    assert to_csv_bytes(got, header=False) == to_csv_bytes(alone, header=False)
    assert len(got) > 0


def test_bloom_where_equals_probe_columns():
    df = _generated(3)
    items, _ = _MULTI_ITEM["bloom"]
    probes = items[2:]
    cols = run(_select(probes, None), df)
    pred = " AND ".join(p.rsplit(" AS ", 1)[0] + " = '1'" for p in probes)
    got = run(f"SELECT k FROM S3Object WHERE {pred}", df)
    expected = df["k"][(cols == "1").all(axis=1)].tolist()
    assert got["k"].tolist() == expected
    assert 0 < len(expected) < len(df)


def test_int_and_float_literals_are_not_shared():
    df = pd.DataFrame({"c": ["1", "2"]})
    out = run("SELECT c + 1, c + 1.0, c + 1 FROM S3Object", df)
    assert out.dtypes.tolist() == [np.int64, np.float64, np.int64]
    assert to_csv_bytes(out, header=False) == b"2,2.0,2\n3,3.0,3\n"


@pytest.fixture()
def coerced(monkeypatch):
    """Names of the string columns the evaluator parses as numbers."""
    names = []
    real = sql_eval._Evaluator.num

    def counting(self, e):
        v = self.eval(e)
        if e not in self._numbers and isinstance(v, pa.Array) and pa.types.is_string(v.type):
            names.append(e.name if isinstance(e, Column) else None)
        return real(self, e)

    monkeypatch.setattr(sql_eval._Evaluator, "num", counting)
    return names


def test_q1_request_coerces_each_column_once(coerced):
    items, where = _MULTI_ITEM["q1"]
    assert len(items) == 36
    run(_select(items, where), _generated(0))
    assert sorted(coerced) == [
        "l_discount", "l_extendedprice", "l_quantity", "l_tax"
    ]


def test_hybrid_request_coerces_group_column_once(coerced):
    items, where = _MULTI_ITEM["hybrid"]
    run(_select(items, where), _generated(0))
    assert sorted(coerced) == ["g1", "v1", "v2"]


# -- CAST AS INT: round half away from zero, as DuckDB ---------------------

def test_cast_int_rounds_half_away_from_zero():
    df = pd.DataFrame({"x": ["2.5", "-1.5", "", "-0.3", "0.49", "7"]})
    out = run("SELECT CAST(x AS INT) AS i FROM S3Object", df)["i"]
    assert out.tolist()[:2] == [3.0, -2.0]
    assert np.isnan(out.iloc[2])  # '' is NULL
    assert out.tolist()[3:] == [0.0, 0.0, 7.0]
    assert str(out.iloc[3]) == "0.0"  # no negative zero


def test_cast_int_scalar_literals():
    df = pd.DataFrame({"x": ["1"]})
    out = run(
        "SELECT CAST('2.5' AS INT) AS a, CAST('-1.5' AS INT) AS b, "
        "CAST('' AS INT) AS c FROM S3Object",
        df,
    )
    assert out["a"].tolist() == [3]
    assert out["b"].tolist() == [-2]
    assert out["c"].isna().all()


def test_cast_int_matches_duckdb():
    con = duckdb.connect()
    got = [
        con.execute(f"SELECT CAST({v} AS INTEGER)").fetchone()[0]
        for v in ("2.5", "-1.5", "0.5", "-0.5", "3.49")
    ]
    con.close()
    df = pd.DataFrame({"x": ["2.5", "-1.5", "0.5", "-0.5", "3.49"]})
    ours = run("SELECT CAST(x AS INT) AS i FROM S3Object", df)["i"].tolist()
    assert ours == [float(v) for v in got]


# -- three-valued logic -----------------------------------------------------

@pytest.fixture()
def nulls_df():
    """Empty ('' = NULL) and non-numeric cells next to numbers."""
    return pd.DataFrame(
        {
            "i": [str(n) for n in range(9)],
            "x": ["1", "2", "", "abc", "-3", "0", "2.5", "3", ""],
            "y": ["a", "", "b", "a", "c", "", "a", "b", "a"],
        }
    )


# (our predicate, DuckDB's over the same rows with '' as NULL)
PREDICATES = [
    ("CAST(x AS FLOAT) > 0", "TRY_CAST(x AS DOUBLE) > 0"),
    ("x IN ('1', '3')", "x IN ('1', '3')"),
    ("CAST(x AS FLOAT) > 0 AND y = 'a'", "TRY_CAST(x AS DOUBLE) > 0 AND y = 'a'"),
    ("CAST(x AS FLOAT) > 0 OR y = 'a'", "TRY_CAST(x AS DOUBLE) > 0 OR y = 'a'"),
    ("CAST(x AS FLOAT) BETWEEN 0 AND 2", "TRY_CAST(x AS DOUBLE) BETWEEN 0 AND 2"),
    ("x LIKE '%'", "x LIKE '%'"),
]


def _duck_rows(df: pd.DataFrame, where: str) -> list:
    con = duckdb.connect()
    con.register("raw", df)
    con.execute(
        "CREATE VIEW t AS SELECT i, NULLIF(x, '') AS x, NULLIF(y, '') AS y FROM raw"
    )
    rows = con.execute(f"SELECT i FROM t WHERE {where}").fetchall()
    con.close()
    return sorted(r[0] for r in rows)


@pytest.mark.parametrize("ours,duck", PREDICATES)
@pytest.mark.parametrize("negate", [False, True])
def test_predicate_over_null_matches_duckdb(nulls_df, ours, duck, negate):
    if negate:
        ours, duck = f"NOT ({ours})", f"NOT ({duck})"
    got = run(f"SELECT i FROM S3Object WHERE {ours}", nulls_df)["i"].tolist()
    assert sorted(got) == _duck_rows(nulls_df, duck)


def test_not_over_null_returns_no_null_rows(nulls_df):
    """The two predicates that used to return '' and 'abc' rows under NOT."""
    got = run(
        "SELECT x FROM S3Object WHERE NOT (CAST(x AS FLOAT) > 0)", nulls_df
    )["x"].tolist()
    assert sorted(got) == ["-3", "0"]
    got = run("SELECT x FROM S3Object WHERE NOT (x IN ('1','3'))", nulls_df)
    assert "" not in got["x"].tolist()


@pytest.mark.parametrize("p", [ours for ours, _ in PREDICATES])
def test_ternary_logic_partitions_cover_every_row(nulls_df, p):
    """|p| + |NOT p| + |p IS NULL| = |rows| (Rigger & Su's TLP)."""
    def count(where):
        return len(run(f"SELECT i FROM S3Object WHERE {where}", nulls_df))

    parts = [count(p), count(f"NOT ({p})"), count(f"({p}) IS NULL")]
    assert sum(parts) == len(nulls_df)
    assert parts[2] > 0  # each predicate is NULL somewhere in this frame


# -- numeric coercion follows pandas.to_numeric(errors="coerce") ----------

def _cell(g) -> str:
    """A short cell: an integer, a decimal, an exponent, a special or junk."""
    kind = g.integers(0, 8)
    i = int(g.integers(-999, 99_999))
    if kind == 0:
        return str(i)
    if kind == 1:
        return f"{i / 100:.2f}"
    if kind == 2:
        return f"{g.integers(1, 99)}e{g.integers(-3, 4)}"
    if kind == 3:
        return str(g.choice(["nan", "NaN", "inf", "-Infinity", "+inf", "", "-0", "+0"]))
    if kind == 4:
        return str(g.choice([" ", "\t", ""])) + str(i) + str(g.choice([" ", ""]))
    if kind == 5:
        return "+" + str(abs(i))
    if kind == 6:
        return "".join(g.choice(list("0123456789.-+eExa "), g.integers(1, 6)))
    return str(g.choice(["abc", "n/a", "1,000", "0x1F", "1e400", ".", "-", "1.", ".5"]))


@pytest.mark.parametrize("seed", range(4))
def test_numeric_coercion_matches_pandas_to_numeric(seed):
    """pandas's dtype and NULLs; values correctly rounded, as ``float()`` gives.

    (pandas's own parser can be an ulp off, e.g. for ``'39E63'``.)
    """
    g = np.random.default_rng(seed)
    for _ in range(150):
        kinds = g.integers(1, 4)  # few kinds per column, so some are all-integer
        pool = [_cell(g) for _ in range(kinds)]
        cells = [pool[j] if g.random() < 0.8 else _cell(g)
                 for j in g.integers(0, kinds, g.integers(1, 12))]
        s = pd.Series(cells, dtype=object)
        want = pd.to_numeric(s.mask(s == ""), errors="coerce").to_numpy()
        if want.dtype == np.float64:
            want = np.array([w if np.isnan(w) else float(c) for c, w in zip(cells, want)])
        got = sql_eval._parse_numbers(sql_eval._nulled(pa.array(cells)))
        assert got.dtype == want.dtype, cells
        assert np.array_equal(got, want, equal_nan=True), cells
        assert np.array_equal(np.signbit(got), np.signbit(want)), cells


def test_sliced_table_evaluates_like_a_copy():
    table = pa.table({"a": ["9", "1", "", "3", "x"], "b": ["p", "q", "r", "", "t"]})
    sql = "SELECT a + 1 AS n, b FROM S3Object WHERE b <> 'q'"
    sliced = table.slice(1, 4)
    copied = pa.table({c: sliced[c].to_pylist() for c in sliced.column_names})
    pd.testing.assert_frame_equal(run(sql, sliced), run(sql, copied))


@pytest.mark.parametrize("op", ["=", "!="])
def test_bit_test_is_the_picked_character_compared(op):
    """``SUBSTRING('<bits>', pos, 1) = '1'`` (the Bloom probe's bit test) is
    read from the literal's bytes, with the three-valued result of comparing
    the picked character: NULL where ``pos`` is NULL or out of range."""
    bits = "0110"
    cells = ["1", "2", "3", "4", "0", "5", "-1", "2.5", "", "abc", "1e30", " 3"]
    test = f"SUBSTRING('{bits}', p, 1) {op} '1'"
    out = run(f"SELECT {test} AS hit, NOT ({test}) AS miss FROM S3Object",
              pd.DataFrame({"p": cells}))
    pos = sql_eval._parse_numbers(sql_eval._nulled(pa.array(cells)))
    picked = sql_eval._nulled(sql_eval._picked_chars(bits, pos.astype(np.float64)))
    want = (pc.equal if op == "=" else pc.not_equal)(picked, "1")
    assert [None if v is pd.NA else v for v in out["hit"]] == want.to_pylist()
    assert [None if v is pd.NA else v for v in out["miss"]] == pc.invert(want).to_pylist()
    assert want.null_count == 6


def test_a_where_chain_frees_its_evaluators_without_the_collector(monkeypatch):
    """The evaluators of a WHERE chain's later conjuncts hold no reference
    cycle, so the batch's arrays go when the request ends, not when the
    garbage collector next runs."""
    import gc
    import weakref

    made, init = [], sql_eval._Kept.__init__

    def tracked(self, *args):
        made.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(sql_eval._Kept, "__init__", tracked)
    df = pd.DataFrame({"a": [str(i) for i in range(20)], "b": ["x", "y"] * 10})
    gc.disable()
    try:
        out = run("SELECT a FROM S3Object WHERE b = 'x' AND a > 4 AND a < 15", df)
    finally:
        gc.enable()
    assert out["a"].tolist() == ["6", "8", "10", "12", "14"]
    assert len(made) == 2 and all(ref() is None for ref in made)
