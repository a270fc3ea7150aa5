"""Unit tests for repro.s3sim.store (the S3 request surface)."""
import pytest

from repro.s3sim.store import ObjectStore


@pytest.fixture()
def st(tmp_path):
    return ObjectStore(tmp_path / "s")


def test_put_get_roundtrip(st):
    st.put("a/b.csv", b"hello")
    assert st.get("a/b.csv") == b"hello"


def test_put_records_usage(st):
    st.put("k", b"x")
    assert st.log.total().put_requests == 1


def test_get_records_transfer_bytes(st):
    st.put("k", b"abcdef")
    pos = st.log.position()
    st.get("k")
    u = st.log.read_since(pos)
    assert u.get_requests == 1
    assert u.bytes_transferred == 6


def test_ranged_get(st):
    st.put("k", b"0123456789")
    assert st.get("k", (2, 3)) == b"234"


def test_ranged_get_bills_only_range(st):
    st.put("k", b"0123456789")
    pos = st.log.position()
    st.get("k", (0, 4))
    assert st.log.read_since(pos).bytes_transferred == 4


def test_ranged_get_past_end_truncates(st):
    st.put("k", b"01234")
    assert st.get("k", (3, 100)) == b"34"


def test_ranged_get_negative_rejected(st):
    st.put("k", b"0123")
    with pytest.raises(ValueError):
        st.get("k", (-1, 2))


def test_get_missing_raises(st):
    with pytest.raises(KeyError):
        st.get("nope")


def test_size(st):
    st.put("k", b"abc")
    assert st.size("k") == 3


def test_size_missing_raises(st):
    with pytest.raises(KeyError):
        st.size("nope")


def test_exists_and_delete(st):
    st.put("k", b"x")
    assert st.exists("k")
    st.delete("k")
    assert not st.exists("k")


def test_list_keys_prefix(st):
    st.put("t/part0.csv", b"a")
    st.put("t/part1.csv", b"b")
    st.put("other/x.csv", b"c")
    assert st.list_keys("t/") == ["t/part0.csv", "t/part1.csv"]


def test_storage_read_not_billed(st):
    st.put("k", b"abc")
    pos = st.log.position()
    assert st.storage_read("k") == b"abc"
    u = st.log.read_since(pos)
    assert u.get_requests == 0
    assert u.bytes_transferred == 0


def test_invalid_keys_rejected(st):
    for bad in ("", "/abs", "a/../b"):
        with pytest.raises(KeyError):
            st.get(bad)


def test_meta_roundtrip(st):
    st.put_meta("t/schema.ddl", "a BIGINT")
    assert st.get_meta("t/schema.ddl") == "a BIGINT"


def test_meta_not_billed(st):
    pos = st.log.position()
    st.put_meta("m", "x")
    st.get_meta("m")
    assert st.log.read_since(pos).total_requests == 0


def _log_lines(st, fn):
    pos = st.log.position()
    out = fn()
    return out, st.log.path.read_bytes()[pos:]


def test_get_ranges_bills_as_one_get_per_range(st):
    """The log bytes, line for line, of one GET record per range, as ``get`` bills one."""
    st.put("k", b"0123456789")
    ranges = [(0, 4), (2, 3), (8, 100), (20, 5), (5, 0)]
    got, got_log = _log_lines(st, lambda: st.get_ranges("k", ranges))
    assert got == [b"0123", b"234", b"89", b"", b""]
    _, want_log = _log_lines(st, lambda: [
        st.log.record(get_requests=1, bytes_transferred=len(c)) for c in got
    ])
    assert got_log == want_log
    assert len(got_log.splitlines()) == len(ranges)
    one, one_log = _log_lines(st, lambda: [st.get("k", rng) for rng in ranges])
    assert (one, one_log) == (got, got_log)


def test_get_ranges_of_no_range_records_nothing(st):
    st.put("k", b"0123")
    assert _log_lines(st, lambda: st.get_ranges("k", [])) == ([], b"")


def test_get_ranges_missing_object_names_it_and_records_nothing(st):
    pos = st.log.position()
    with pytest.raises(KeyError, match="no such object: 'nope'"):
        st.get_ranges("nope", [(0, 1)])
    assert st.log.position() == pos


@pytest.mark.parametrize("bad", [(-1, 2), (0, -1)])
def test_get_ranges_bad_range_raises_and_records_nothing(st, bad):
    st.put("k", b"0123")
    pos = st.log.position()
    with pytest.raises(ValueError, match="invalid byte range"):
        st.get_ranges("k", [(0, 1), bad])
    assert st.log.position() == pos
