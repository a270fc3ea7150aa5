"""Local-filesystem object store with the S3 request interface.

Objects are immutable byte blobs addressed by string keys (slashes
allowed). The store exposes exactly the operations the paper's
algorithms rely on:

* ``put(key, data)``           -- upload an object
* ``get(key)``                 -- whole-object GET
* ``get(key, rng=(off, len))`` -- single-byte-range GET (the S3 API only
  supports one range per request -- paper SX, Suggestion 1 -- so the
  index algorithm must issue one request per selected row, which is the
  behaviour Figure 1 measures)
* ``get_ranges(key, ranges)``  -- those single-range GETs of one object,
  sent together: still one request (and one usage record) per range
* ``size`` / ``list_keys`` / ``exists`` / ``delete``

Every data-path request is recorded in the shared :class:`UsageLog`
(``_usage.jsonl`` under the store root), which works from Spark executor
processes because they share the filesystem with the driver.
"""
from __future__ import annotations

import os
from pathlib import Path

from repro.s3sim.usage import UsageLog


class ObjectStore:
    """A miniature S3: filesystem-backed objects + usage accounting."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.log = UsageLog(self.root / "_usage.jsonl")

    # -- internal ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or key.startswith("/") or ".." in key.split("/"):
            raise KeyError(f"invalid object key: {key!r}")
        return self.objects_dir / key

    # -- S3 request surface ----------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Upload ``data`` as object ``key`` (parent 'folders' implicit)."""
        p = self._path(key)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)
        self.log.record(put_requests=1)

    def get(self, key: str, rng: tuple[int, int] | None = None) -> bytes:
        """GET an object, optionally a single byte range ``(offset, length)``.

        Like S3, a range GET transfers only the requested bytes but still
        costs one HTTP request -- this request-per-row overhead is what
        makes the paper's index algorithm collapse at low selectivity.
        """
        if rng is not None:
            return self.get_ranges(key, [rng])[0]
        p = self._path(key)
        if not p.exists():
            raise KeyError(f"no such object: {key!r}")
        data = p.read_bytes()
        self.log.record(get_requests=1, bytes_transferred=len(data))
        return data

    def get_ranges(self, key: str, ranges: list) -> list[bytes]:
        """One single-range GET of object ``key`` per ``(offset, length)`` of ``ranges``.

        Each GET is billed as a whole-object :meth:`get` is (one request
        and the bytes it transfers), one usage record per range in order,
        but the object is opened once and the records are appended in one
        write. A ranged :meth:`get` is a call with one range. A missing
        object or a negative range fails before anything is read or
        recorded.
        """
        p = self._path(key)
        if not p.exists():
            raise KeyError(f"no such object: {key!r}")
        for rng in ranges:
            if rng[0] < 0 or rng[1] < 0:
                raise ValueError(f"invalid byte range: {rng!r}")
        fd = os.open(p, os.O_RDONLY)
        try:
            chunks = [os.pread(fd, length, offset) for offset, length in ranges]
        finally:
            os.close(fd)
        self.log.record_all(
            [{"get_requests": 1, "bytes_transferred": len(c)} for c in chunks]
        )
        return chunks

    def storage_read(self, key: str) -> bytes:
        """Read object bytes *inside* the storage service (no billing).

        Used by the S3 Select engine: the storage-side scan is billed as
        ``bytes_scanned`` by the engine itself, not as a network GET.
        """
        p = self._path(key)
        if not p.exists():
            raise KeyError(f"no such object: {key!r}")
        return p.read_bytes()

    def size(self, key: str) -> int:
        """Object size in bytes (HEAD request -- not billed in the paper)."""
        p = self._path(key)
        if not p.exists():
            raise KeyError(f"no such object: {key!r}")
        return p.stat().st_size

    def exists(self, key: str) -> bool:
        return self._path(key).exists()

    def delete(self, key: str) -> None:
        p = self._path(key)
        if p.exists():
            p.unlink()

    def list_keys(self, prefix: str = "") -> list[str]:
        """All object keys under ``prefix``, sorted (like LIST requests)."""
        keys = [
            str(p.relative_to(self.objects_dir))
            for p in self.objects_dir.rglob("*")
            if p.is_file()
        ]
        return sorted(k for k in keys if k.startswith(prefix))

    # -- convenience (not billed; metadata, like bucket config) -----------

    def put_meta(self, key: str, text: str) -> None:
        """Store non-billed metadata (e.g. a table's schema DDL)."""
        p = self.root / "meta" / key
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)

    def get_meta(self, key: str) -> str:
        return (self.root / "meta" / key).read_text()
