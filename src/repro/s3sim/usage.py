"""Usage accounting for the simulated S3 service.

Every S3 request (GET, ranged GET, S3 Select, PUT) appends one short
JSON line to ``<root>/_usage.jsonl``. A request's line, or a batch's
lines (``record_all``: a phase's S3 Select batch, an object's ranged
GETs), is one ``O_APPEND`` write to a local file, which Linux does not
interleave with another process's write, so Spark executor processes
and the driver can append concurrently. The driver attributes usage to
a query by snapshotting the log position before the query and reading
the suffix afterwards.

The counter names mirror the billing dimensions of the paper's SII-B
cost model: request counts, bytes scanned by S3 Select, bytes returned
by S3 Select, and bytes transferred by plain GETs.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass
class Usage:
    """Additive S3 usage counters for one or more requests."""

    select_requests: int = 0
    get_requests: int = 0
    put_requests: int = 0
    bytes_scanned: int = 0      # S3 Select: bytes read by the storage-side scan
    bytes_returned: int = 0     # S3 Select: bytes of the (CSV) response payload
    bytes_transferred: int = 0  # plain GET: bytes of object data shipped

    @property
    def total_requests(self) -> int:
        """All billable HTTP requests (GET requests in the paper's model)."""
        return self.select_requests + self.get_requests + self.put_requests

    @property
    def bytes_over_network(self) -> int:
        """Bytes that crossed the storage-to-compute network."""
        return self.bytes_returned + self.bytes_transferred

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(Usage)
            }
        )

    def __iadd__(self, other: "Usage") -> "Usage":
        for f in fields(Usage):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def scaled(self, factor: float) -> "Usage":
        """Linearly scale byte counters and request counts by ``factor``.

        Used to project usage measured at our benchmark scale (SF=0.1)
        to the paper's 10 GB dataset for side-by-side cost numbers.
        """
        return Usage(
            **{
                f.name: int(round(getattr(self, f.name) * factor))
                for f in fields(Usage)
            }
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(Usage)}


_COUNTERS = frozenset(f.name for f in fields(Usage))
# ``json.dumps(counters, separators=(",", ":"))``, without a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class UsageLog:
    """Append-only JSONL usage log shared by driver and executors."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)

    def record(self, **counters: int) -> None:
        """Append one usage record; unknown counter names are rejected."""
        self.record_all([counters])

    def record_all(self, records: list) -> None:
        """Append one line per ``{counter: value}`` record, in order, in one write.

        The lines are those :meth:`record` writes for each record; an
        unknown counter name rejects the batch before anything is written.
        """
        for counters in records:
            unknown = counters.keys() - _COUNTERS
            if unknown:
                raise ValueError(f"unknown usage counters: {sorted(unknown)}")
        if not records:
            return
        data = "".join(_encode(counters) + "\n" for counters in records).encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def position(self) -> int:
        """Current end-of-log offset; pass to :meth:`read_since` later."""
        return self.path.stat().st_size

    def read_since(self, pos: int = 0) -> Usage:
        """Sum all records appended after byte offset ``pos``."""
        with open(self.path, "rb") as f:
            f.seek(pos)
            lines = [raw for raw in f.read().split(b"\n") if raw.strip()]
        total = dict.fromkeys(_COUNTERS, 0)
        for counters in json.loads(b"[" + b",".join(lines) + b"]"):
            for name, value in counters.items():
                total[name] += value
        return Usage(**total)

    def total(self) -> Usage:
        return self.read_since(0)
