"""Table schemas as Spark DDL text (``"k BIGINT, v DOUBLE, s STRING"``).

``core.tables`` stores each table's schema so; ``repro.schema`` types
result columns by it. These functions read the text alone and import
neither pandas nor pyarrow, so that the ``s3select`` DataSource's
planner calls (``schema``, ``pushFilters``, ``partitions``) load neither.
"""
from __future__ import annotations


def parse_ddl(ddl: str) -> dict:
    """``{lower-case name: (name, upper-case type)}``, in DDL order."""
    out = {}
    for part in ddl.split(","):
        name, typ = part.strip().split(" ", 1)
        out[name.lower()] = (name, typ.strip().upper())
    return out


def project_ddl(ddl: str, columns: list) -> str:
    """The DDL of ``columns`` (matched case-insensitively), in their order."""
    fields = parse_ddl(ddl)
    missing = [c for c in columns if c.lower() not in fields]
    if missing:
        raise ValueError(f"columns not in schema: {missing}")
    return ", ".join(" ".join(fields[c.lower()]) for c in columns)
