"""Pinned evaluator outputs: exact result bytes and dtypes of S3 Select requests.

``eval_outputs.json`` records, for a corpus of requests, the CSV text
(header included) and the column dtypes of the frame each one returns,
plus the ``bytes_returned`` it bills. Each request runs three ways:

* ``csv``     -- ``s3_select`` on a CSV object (decode + evaluate);
* ``parquet`` -- ``s3_select`` on a Parquet object of the typed frame;
* ``frame``   -- ``eval_query`` on the in-memory pandas frame (``eval_frame``).

The corpus covers the traps of evaluating untyped CSV fields: whether
a column parses as ``int64`` or ``float64`` (which decides how values
render), non-numeric strings becoming NULL, ``''`` being NULL, and
cells such as ``' 7'``, ``'1e3'``, ``'-0'``, ``'NaN'`` and ``'inf'``.

An evaluator change that is meant to move these outputs regenerates
the file with::

    REPRO_REGEN_EVAL=1 python -m pytest tests/test_eval_outputs.py

and says why in CHANGES.md.
"""
import json
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.s3sim import ObjectStore, csvio, parquetio
from repro.s3sim.select_engine import s3_select
from tests.reference import eval_frame
from tests.test_sql_eval import _MULTI_ITEM, _generated, _select

FIXTURE = Path(__file__).with_name("eval_outputs.json")

# Cells that parse differently as int, as float, or not at all.
EDGE = pd.DataFrame(
    {
        "s": ["", " 7", "1e3", "-0", "NaN", "inf", "1.50", "007", "abc", "x,y"],
        "i": [str(n) for n in range(1, 11)],
        "f": ["1.5", "-2.25", "0.1", "3", "-0", "7", "0.5", "2.5", "-1.5", "100"],
        "n": ["1", "", "3", "-0", "5", "", "7", "8", "9", "10"],
        "t": ["a", "b", "", "a", "B", "ab", "b%", "a_c", "x,y", "Zz"],
        "d": ["1992-01-01", "1993-06-15", "1994-01-01", "1992-12-31",
              "1995-05-05", "", "1996-02-29", "1992-01-01", "1998-12-01",
              "1994-07-04"],
    }
)

EDGE_SQL = [
    "SELECT * FROM S3Object",
    "SELECT s, i, t FROM S3Object",
    "SELECT i FROM S3Object LIMIT 3",
    "SELECT CAST(s AS FLOAT) AS a, CAST(s AS INT) AS b, s + 0 AS c, "
    "s * 1.0 AS d FROM S3Object",
    "SELECT i + 1, i + 1.0, i * 2, i / 2, i % 3, -i FROM S3Object",
    "SELECT n + 1, n + 1.0, CAST(n AS INT), CAST(n AS FLOAT), n - 1 FROM S3Object",
    "SELECT f + 1, CAST(f AS INT), CAST(f AS FLOAT), f % 2, f * f FROM S3Object",
    "SELECT CAST(i AS STRING), CAST(f AS STRING), CAST(t AS STRING) FROM S3Object",
    "SELECT SUM(CASE WHEN t = 'a' THEN CAST(i AS INT) ELSE 0 END) AS ci, "
    "SUM(CASE WHEN t = 'a' THEN i ELSE 0 END) AS ri, "
    "SUM(CASE WHEN t = 'b' THEN CAST(f AS FLOAT) ELSE 0 END) AS cf, "
    "SUM(CASE WHEN t >= 'a' THEN f ELSE 0 END) AS rf, "
    "SUM(CASE WHEN t = 'a' THEN 1 ELSE 0 END) AS cnt, "
    "SUM(CASE WHEN n > 3 THEN n ELSE 0 END) AS cn FROM S3Object",
    "SELECT i FROM S3Object WHERE NOT (i BETWEEN 3 AND 6)",
    "SELECT i FROM S3Object WHERE NOT (n IN (1, 3, 5))",
    "SELECT i FROM S3Object WHERE NOT (t IN ('a', 'b'))",
    "SELECT i FROM S3Object WHERE NOT (t LIKE 'a%')",
    "SELECT i FROM S3Object WHERE t NOT LIKE '_'",
    "SELECT i FROM S3Object WHERE NOT (n IS NULL)",
    "SELECT i FROM S3Object WHERE NOT (s IS NOT NULL)",
    "SELECT i FROM S3Object WHERE NOT (d BETWEEN '1993-01-01' AND '1995-12-31')",
    "SELECT s FROM S3Object WHERE s = 7",
    "SELECT s FROM S3Object WHERE s > 0",
    "SELECT s FROM S3Object WHERE s = '007'",
    "SELECT s, t FROM S3Object WHERE s < 'a' OR t = 'x,y'",
    "SELECT i, n FROM S3Object WHERE i > n",
    "SELECT i, f FROM S3Object WHERE CAST(f AS FLOAT) < i",
    "SELECT MIN(t) AS a, MAX(t) AS b, MIN(s) AS c, MAX(s) AS d, MIN(d) AS e, "
    "MAX(d) AS f, COUNT(s) AS g, COUNT(n) AS h, COUNT(*) AS k FROM S3Object",
    "SELECT SUM(s) AS a, AVG(s) AS b, SUM(n) AS c, AVG(n) AS d, MIN(n + 0) AS e, "
    "MAX(n + 0) AS f, MIN(CAST(f AS FLOAT)) AS g, MAX(f + 0) AS h FROM S3Object",
    "SELECT SUM(i) AS a, MIN(t) AS b, COUNT(*) AS c, AVG(f) AS d "
    "FROM S3Object WHERE t = 'nope'",
    "SELECT CASE WHEN n > 3 THEN t ELSE 0 END AS a, "
    "CASE WHEN n > 3 THEN n END AS b, "
    "CASE WHEN t = 'a' THEN 1.5 WHEN t = 'b' THEN 2 ELSE NULL END AS c "
    "FROM S3Object",
    "SELECT SUBSTRING(t, 1, 1) AS a, SUBSTRING('abcdef', CAST(i AS INT), 1) AS b, "
    "SUBSTRING('abcdef', CAST(i AS INT)) AS c, UPPER(t) AS u, LOWER(t) AS l, "
    "ABS(CAST(f AS FLOAT)) AS m FROM S3Object",
    "SELECT 1, 'x', 2.5, 1 + 2, CAST('2.5' AS INT) FROM S3Object LIMIT 2",
]

# A typed frame: a Parquet object keeps these dtypes, a CSV object does not.
TYPED = pd.DataFrame(
    {
        "k": np.arange(1, 13, dtype="int64"),
        "v": np.array([0.5, -1.25, 3.0, 0.1, 2.5, -0.0, 7.75, 1e-5, 0.3, 12.0,
                       -3.5, 0.7]),
        "s": ["a", "b", "c", "", "a", "b", "x,y", "d", "a", "e", "f", "g"],
    }
)

TYPED_SQL = [
    "SELECT * FROM S3Object",
    "SELECT k, v FROM S3Object WHERE v > 0.5",
    "SELECT SUM(k) AS a, SUM(v) AS b, MIN(s) AS c, MAX(v) AS d, AVG(k) AS e, "
    "COUNT(*) AS f FROM S3Object",
    "SELECT k + 1, k / 2, CAST(v AS INT), k % 5, v * 2, -k FROM S3Object",
    "SELECT s FROM S3Object WHERE k IN (1, 2, 3) OR s = 'x,y'",
    "SELECT SUM(CASE WHEN s = 'a' THEN v ELSE 0 END) AS a, "
    "SUM(CASE WHEN s = 'a' THEN k ELSE 0 END) AS b FROM S3Object",
]


def _corpus() -> list:
    cases = [
        (f"{kind}-seed{seed}", f"gen{seed}", _select(*_MULTI_ITEM[kind]))
        for kind in sorted(_MULTI_ITEM)
        for seed in (0, 1, 2)
    ]
    cases += [(f"edge-{i:02d}", "edge", sql) for i, sql in enumerate(EDGE_SQL)]
    cases += [(f"typed-{i:02d}", "typed", sql) for i, sql in enumerate(TYPED_SQL)]
    return cases


def _frames() -> dict:
    out = {f"gen{seed}": _generated(seed) for seed in (0, 1, 2)}
    out["edge"] = EDGE
    out["typed"] = TYPED
    return out


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    s = ObjectStore(tmp_path_factory.mktemp("eval_outputs"))
    for name, df in _frames().items():
        s.put(f"{name}.csv", csvio.to_csv_bytes(df))
        if name == "typed":
            s.put(f"{name}.parquet", parquetio.to_parquet_bytes(df))
    return s


def _record(out: pd.DataFrame) -> dict:
    return {
        "csv": csvio.to_csv_bytes(out).decode(),
        "dtypes": [str(t) for t in out.dtypes],
    }


def _outputs(store, frame: str, sql: str) -> dict:
    got = {}
    for via, fmt in (("csv", "csv"), ("parquet", "parquet")):
        if fmt == "parquet" and frame != "typed":
            continue
        mark = store.log.position()
        out = s3_select(store, f"{frame}.{fmt}", sql, input_format=fmt)
        got[via] = {
            **_record(out),
            "bytes_returned": store.log.read_since(mark).bytes_returned,
        }
    got["frame"] = _record(eval_frame(sql, _frames()[frame]))
    return got


CORPUS = _corpus()


@pytest.mark.parametrize("case,frame,sql", CORPUS, ids=[c[0] for c in CORPUS])
def test_eval_outputs_are_pinned(store, case, frame, sql):
    got = _outputs(store, frame, sql)
    pinned = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if os.environ.get("REPRO_REGEN_EVAL"):
        pinned[case] = {"sql": sql, **got}
        FIXTURE.write_text(
            "{\n"
            + ",\n".join(
                f" {json.dumps(k)}: {json.dumps(pinned[k], sort_keys=True)}"
                for k in sorted(pinned)
            )
            + "\n}\n"
        )
    assert case in pinned, f"{case} missing from {FIXTURE.name}"
    assert pinned[case]["sql"] == sql
    assert got == {k: v for k, v in pinned[case].items() if k != "sql"}
