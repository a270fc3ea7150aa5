"""Unit tests for repro.s3sim.usage (counters + JSONL log)."""
import threading

import pytest

from repro.s3sim.usage import Usage, UsageLog


def test_default_zero():
    u = Usage()
    assert u.total_requests == 0
    assert u.bytes_over_network == 0


def test_add():
    a = Usage(select_requests=1, bytes_scanned=100, bytes_returned=10)
    b = Usage(get_requests=2, bytes_transferred=5, bytes_scanned=1)
    c = a + b
    assert c.select_requests == 1
    assert c.get_requests == 2
    assert c.bytes_scanned == 101
    assert c.bytes_returned == 10
    assert c.bytes_transferred == 5


def test_iadd():
    a = Usage(select_requests=1)
    a += Usage(select_requests=2, bytes_scanned=7)
    assert a.select_requests == 3
    assert a.bytes_scanned == 7


def test_add_does_not_mutate():
    a = Usage(get_requests=1)
    _ = a + Usage(get_requests=5)
    assert a.get_requests == 1


def test_total_requests_sums_all_kinds():
    u = Usage(select_requests=1, get_requests=2, put_requests=3)
    assert u.total_requests == 6


def test_bytes_over_network():
    u = Usage(bytes_returned=3, bytes_transferred=4, bytes_scanned=1000)
    assert u.bytes_over_network == 7  # scanned bytes never cross the wire


def test_scaled():
    u = Usage(select_requests=2, bytes_scanned=100)
    s = u.scaled(2.5)
    assert s.select_requests == 5
    assert s.bytes_scanned == 250


def test_scaled_rounds():
    assert Usage(get_requests=1).scaled(0.4).get_requests == 0


def test_to_dict_roundtrip():
    u = Usage(select_requests=1, bytes_returned=9)
    assert Usage(**u.to_dict()) == u


def test_log_record_and_read(tmp_path):
    log = UsageLog(tmp_path / "u.jsonl")
    log.record(select_requests=1, bytes_scanned=10)
    log.record(get_requests=2, bytes_transferred=4)
    total = log.total()
    assert total.select_requests == 1
    assert total.get_requests == 2
    assert total.bytes_scanned == 10
    assert total.bytes_transferred == 4


def test_log_read_since_position(tmp_path):
    log = UsageLog(tmp_path / "u.jsonl")
    log.record(select_requests=1)
    pos = log.position()
    log.record(select_requests=1, bytes_returned=3)
    diff = log.read_since(pos)
    assert diff.select_requests == 1
    assert diff.bytes_returned == 3


def test_log_rejects_unknown_counter(tmp_path):
    log = UsageLog(tmp_path / "u.jsonl")
    with pytest.raises(ValueError, match="unknown usage counters"):
        log.record(bogus=1)


def test_log_empty(tmp_path):
    log = UsageLog(tmp_path / "u.jsonl")
    assert log.total() == Usage()


def test_log_concurrent_appends(tmp_path):
    """O_APPEND single-line writes from many threads stay parseable."""
    log = UsageLog(tmp_path / "u.jsonl")

    def work():
        for _ in range(50):
            log.record(select_requests=1, bytes_scanned=3)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = log.total()
    assert total.select_requests == 400
    assert total.bytes_scanned == 1200


def test_record_all_writes_the_lines_record_writes(tmp_path):
    records = [
        {"get_requests": 1, "bytes_transferred": 40},
        {"select_requests": 1, "bytes_scanned": 7, "bytes_returned": 0},
        {"put_requests": 1},
    ]
    one, batch = UsageLog(tmp_path / "one.jsonl"), UsageLog(tmp_path / "batch.jsonl")
    for counters in records:
        one.record(**counters)
    batch.record_all(records)
    assert batch.path.read_bytes() == one.path.read_bytes()
    assert batch.path.read_bytes().splitlines()[0] == b'{"get_requests":1,"bytes_transferred":40}'


def test_record_all_rejects_a_batch_with_an_unknown_counter(tmp_path):
    log = UsageLog(tmp_path / "u.jsonl")
    with pytest.raises(ValueError, match="unknown usage counters"):
        log.record_all([{"get_requests": 1}, {"bogus": 1}])
    assert log.position() == 0


def test_read_since_sums_as_usage_addition(tmp_path):
    """The summing fast path equals adding one ``Usage`` per line, blank lines skipped."""
    log = UsageLog(tmp_path / "u.jsonl")
    records = [
        {"select_requests": 1, "bytes_scanned": 10, "bytes_returned": 3},
        {"get_requests": 1, "bytes_transferred": 5},
        {"put_requests": 1},
    ] * 5
    log.record_all(records)
    with open(log.path, "ab") as f:
        f.write(b"\n  \n")
    want = Usage()
    for counters in records:
        want += Usage(**counters)
    assert log.total() == want
    pos = log.position()
    log.record(get_requests=2)
    assert log.read_since(pos) == Usage(get_requests=2)
