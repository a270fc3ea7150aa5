"""The errors a simulated S3 Select request names."""
from __future__ import annotations


class S3SelectError(ValueError):
    """Request rejected by the (simulated) S3 Select service."""


class MalformedCSVError(S3SelectError):
    """An object's CSV text has a row of the wrong width or an unterminated quote.

    ``key`` names the object (None for bytes of no object) and ``row``
    the bad data row, 1-based, the header not counted.
    """

    def __init__(self, key: str | None, row: int, problem: str):
        super().__init__(f"{key or 'CSV data'}: data row {row}: {problem}")
        self.key, self.row = key, row
