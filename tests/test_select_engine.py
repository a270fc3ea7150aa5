"""Unit tests for the S3 Select request engine (usage + limits)."""
import pandas as pd
import pytest

from repro.s3sim import ObjectStore, csvio, parquetio, s3_select, select_all
from repro.s3sim.errors import MalformedCSVError
from repro.s3sim.select_engine import MAX_SQL_BYTES, S3SelectError


@pytest.fixture()
def st(tmp_path):
    store = ObjectStore(tmp_path / "s")
    df = pd.DataFrame(
        {"a": range(100), "b": [f"s{i % 7}" for i in range(100)],
         "v": [i / 10 for i in range(100)]}
    )
    store.put("t.csv", csvio.to_csv_bytes(df))
    store.put("t.parquet", parquetio.to_parquet_bytes(df))
    return store


def test_select_returns_rows(st):
    out = s3_select(st, "t.csv", "SELECT a FROM S3Object WHERE a < 3")
    assert out["a"].tolist() == ["0", "1", "2"]


def test_select_records_one_request(st):
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT a FROM S3Object")
    assert st.log.read_since(pos).select_requests == 1


def test_scan_bytes_whole_object_for_filter(st):
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT a FROM S3Object WHERE a < 0")
    u = st.log.read_since(pos)
    assert u.bytes_scanned == st.size("t.csv")


def test_returned_bytes_track_result_size(st):
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT a FROM S3Object WHERE a < 0")
    empty = st.log.read_since(pos).bytes_returned
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT * FROM S3Object")
    full = st.log.read_since(pos).bytes_returned
    assert empty == 0
    assert full >= st.size("t.csv") - 100  # roughly the object minus header


def test_limit_without_where_scans_prefix(st):
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT a FROM S3Object LIMIT 10")
    u = st.log.read_since(pos)
    assert 0 < u.bytes_scanned < st.size("t.csv") / 2


def test_limit_with_where_scans_everything(st):
    pos = st.log.position()
    s3_select(st, "t.csv", "SELECT a FROM S3Object WHERE a >= 0 LIMIT 1")
    assert st.log.read_since(pos).bytes_scanned == st.size("t.csv")


def test_aggregate_query(st):
    out = s3_select(st, "t.csv", "SELECT SUM(a) AS s, COUNT(*) AS c FROM S3Object")
    assert out["s"].iloc[0] == sum(range(100))
    assert out["c"].iloc[0] == 100


def test_sql_size_limit_enforced(st):
    bits = "1" * (MAX_SQL_BYTES + 10)
    sql = f"SELECT a FROM S3Object WHERE SUBSTRING('{bits}', 1, 1) = '1'"
    with pytest.raises(S3SelectError, match="256"):
        s3_select(st, "t.csv", sql)


def _probe_of_size(n_bytes: int) -> str:
    """A Bloom-probe-shaped query of exactly ``n_bytes`` bytes."""
    head, tail = "SELECT a FROM S3Object WHERE SUBSTRING('", "', 1, 1) = '1'"
    return head + "1" * (n_bytes - len(head) - len(tail)) + tail


def test_sql_exactly_at_the_limit_is_accepted(st):
    sql = _probe_of_size(MAX_SQL_BYTES)
    assert len(sql.encode()) == MAX_SQL_BYTES
    assert len(s3_select(st, "t.csv", sql)) == 100
    assert [len(f) for f in select_all(st, ["t.csv", "t.csv"], sql)] == [100, 100]


@pytest.mark.parametrize("send", [
    lambda st, sql: s3_select(st, "t.csv", sql),
    lambda st, sql: select_all(st, ["t.csv", "t.csv"], sql),
], ids=["s3_select", "select_all"])
def test_sql_one_byte_over_the_limit_is_rejected_unbilled(st, send):
    sql = _probe_of_size(MAX_SQL_BYTES + 1)
    pos = st.log.position()
    with pytest.raises(S3SelectError, match="256"):
        send(st, sql)
    assert st.log.position() == pos


def test_select_all_of_no_objects_sends_nothing(st):
    assert select_all(st, [], _probe_of_size(MAX_SQL_BYTES + 1)) == []


def test_missing_object(st):
    with pytest.raises(KeyError):
        s3_select(st, "nope.csv", "SELECT a FROM S3Object")


def test_batch_with_a_deleted_object_fails_unrecorded(st):
    for key in ("t0.csv", "t1.csv", "t2.csv"):
        st.put(key, st.get("t.csv"))
    st.delete("t1.csv")
    pos = st.log.position()
    with pytest.raises(KeyError, match="t1.csv"):
        select_all(st, ["t0.csv", "t1.csv", "t2.csv"], "SELECT a FROM S3Object")
    assert st.log.position() == pos


def test_bad_format(st):
    with pytest.raises(S3SelectError, match="format"):
        s3_select(st, "t.csv", "SELECT a FROM S3Object", input_format="orc")


def test_parquet_matches_csv_result(st):
    sql = "SELECT a, b FROM S3Object WHERE b = 's3' AND a < 50"
    csv_out = s3_select(st, "t.csv", sql)
    pq_out = s3_select(st, "t.parquet", sql, input_format="parquet")
    assert pq_out["a"].astype(int).tolist() == csv_out["a"].astype(int).tolist()


def test_parquet_scans_only_referenced_columns(st):
    pos = st.log.position()
    s3_select(st, "t.parquet", "SELECT a FROM S3Object", input_format="parquet")
    narrow = st.log.read_since(pos).bytes_scanned
    pos = st.log.position()
    s3_select(st, "t.parquet", "SELECT * FROM S3Object", input_format="parquet")
    wide = st.log.read_since(pos).bytes_scanned
    assert narrow < wide


def test_parquet_returns_csv_sized_payload(st):
    """Responses are CSV even for Parquet input (paper SIX)."""
    pos = st.log.position()
    out = s3_select(st, "t.parquet", "SELECT v FROM S3Object", input_format="parquet")
    u = st.log.read_since(pos)
    assert u.bytes_returned == len(csvio.to_csv_bytes(out, header=False))


OBJECTS = {
    "plain": b"a,b\n1,x\n2,y\n3,z\n",
    "no final newline": b"a,b\n1,x\n2,y\n3,z",
    "quoted newline": b'a,b\n1,"x\ny"\n2,"q ""r"""\n3,z\n',
    "blank lines": b"a,b\n1,x\n\n2,y\n\n3,z\n\n",
    "crlf": b"a,b\r\n1,x\r\n2,y\r\n3,z\r\n",
}


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_limit_prefix_answers_as_a_full_decode(tmp_path, name, limit):
    """A LIMIT with no WHERE decodes only its prefix; rows and usage are a full decode's."""
    store = ObjectStore(tmp_path)
    data = OBJECTS[name]
    store.put("t.csv", data)
    full = csvio.from_csv_bytes(data).to_pandas()
    assert len(full) == 3
    pos = store.log.position()
    out = s3_select(store, "t.csv", f"SELECT b, a FROM S3Object LIMIT {limit}")
    u = store.log.read_since(pos)
    pd.testing.assert_frame_equal(out, full[["b", "a"]].head(limit), check_index_type=False)
    assert u.bytes_scanned == int(len(data) * min(1.0, limit / 3))
    assert u.bytes_returned == len(csvio.to_csv_bytes(out, header=False))


@pytest.mark.parametrize("limit", [0, 1, 2, 5])
@pytest.mark.parametrize("name", sorted(OBJECTS))
@pytest.mark.parametrize("select, want", [
    ("COUNT(*)", 3), ("SUM(CAST(a AS INT))", 6), ("MAX(b)", "z"),
])
def test_limit_of_an_aggregate_still_reads_every_row(tmp_path, name, limit, select, want):
    """An aggregate's LIMIT caps its one result row, not the rows it reads."""
    store = ObjectStore(tmp_path)
    data = OBJECTS[name]
    store.put("t.csv", data)
    pos = store.log.position()
    out = s3_select(store, "t.csv", f"SELECT {select} FROM S3Object LIMIT {limit}")
    u = store.log.read_since(pos)
    assert out.shape == (1, 1) and out.iloc[0, 0] == want
    assert u.bytes_scanned == int(len(data) * min(1.0, limit / 3))
    assert u.bytes_returned == len(csvio.to_csv_bytes(out, header=False))


def test_head_cuts_lines_only_where_lines_are_rows():
    assert csvio.head(OBJECTS["plain"], 1) == (b"a,b\n1,x\n", 3)
    assert csvio.head(OBJECTS["plain"], 0) == (b"a,b\n", 3)
    assert csvio.head(OBJECTS["no final newline"], 2) == (b"a,b\n1,x\n2,y\n", 3)
    assert csvio.head(OBJECTS["no final newline"], 3) == (OBJECTS["no final newline"], 3)
    assert csvio.head(b"a,b\n", 1) == (b"a,b\n", 0)
    for name in ("quoted newline", "blank lines", "crlf"):
        assert csvio.head(OBJECTS[name], 1) is None
    assert csvio.head(b"a,b", 1) is None  # no line ends, not even the header's


# -- malformed CSV -----------------------------------------------------------

MALFORMED = {
    "short row": (b"a,b\n1,x\n2\n3,z\n", 2, "expected 2 columns, got 1"),
    "long row": (b"a,b\n1,x\n2,y\n3,z,w\n", 3, "expected 2 columns, got 3"),
    "unterminated quote": (b'a,b\n1,"x\n2,y\n3,z\n', 1, "unterminated quote"),
    "quote past a quoted newline": (b'a,b\n1,"x\ny"\n2,"y\n3,z\n', 2, "unterminated quote"),
}


@pytest.mark.parametrize("sql", [
    "SELECT a FROM S3Object", "SELECT COUNT(*) FROM S3Object",
    "SELECT b FROM S3Object WHERE a = '1'",
])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_csv_fails_the_request_unrecorded(tmp_path, name, sql):
    """A short or long row, or an unterminated quote, is one named error
    that gives the object's key and the data row, and no usage is recorded."""
    store = ObjectStore(tmp_path)
    data, row, problem = MALFORMED[name]
    store.put("t/part0.csv", data)
    pos = store.log.position()
    with pytest.raises(MalformedCSVError, match=problem) as err:
        s3_select(store, "t/part0.csv", sql)
    assert isinstance(err.value, S3SelectError)
    assert (err.value.key, err.value.row) == ("t/part0.csv", row)
    assert f"t/part0.csv: data row {row}" in str(err.value)
    assert store.log.position() == pos


def test_malformed_object_fails_its_batch_unrecorded(st):
    st.put("bad.csv", MALFORMED["short row"][0])
    pos = st.log.position()
    with pytest.raises(MalformedCSVError, match="bad.csv"):
        select_all(st, ["t.csv", "bad.csv"], "SELECT a FROM S3Object")
    assert st.log.position() == pos


@pytest.mark.parametrize("name", ["short row", "long row"])
def test_limit_answers_when_the_bad_row_is_past_its_prefix(tmp_path, name):
    """A LIMIT with no WHERE and no aggregate decodes only its prefix of a
    quote-free object, so a bad row after the prefix does not fail it."""
    store = ObjectStore(tmp_path)
    data, row, _ = MALFORMED[name]
    store.put("t.csv", data)
    out = s3_select(store, "t.csv", f"SELECT a, b FROM S3Object LIMIT {row - 1}")
    assert out.values.tolist() == [["1", "x"], ["2", "y"]][: row - 1]
    with pytest.raises(MalformedCSVError):
        s3_select(store, "t.csv", f"SELECT a, b FROM S3Object LIMIT {row}")
