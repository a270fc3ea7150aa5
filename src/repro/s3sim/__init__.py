"""S3 + S3 Select simulator substrate.

The paper's storage layer is AWS S3 with the 2018 "S3 Select" feature:
objects support whole/ranged GET, and a restricted SQL dialect
(selection, projection, aggregation without group-by) evaluated inside
the storage service. This package reproduces that interface over the
local filesystem with faithful usage accounting (requests, bytes
scanned, bytes returned, bytes transferred) so the paper's cost and
performance models can be driven by *measured* quantities.

Modules:
    store          -- ObjectStore: put / get / ranged get + usage log
    usage          -- Usage counters and the JSONL usage log
    csvio          -- CSV (de)serialization with per-row byte offsets
    parquetio      -- Parquet objects with column-chunk scan accounting
    sql_ast        -- AST for the S3 Select SQL subset
    sql_parser     -- tokenizer + recursive-descent parser
    sql_eval       -- vectorized evaluator over Arrow columns
    select_engine  -- ties it together: run one S3 Select request
"""
import importlib

from repro.s3sim.errors import S3SelectError
from repro.s3sim.store import ObjectStore
from repro.s3sim.usage import Usage, UsageLog

# Loaded on first use: the request path imports pandas and pyarrow, which
# a caller that only opens the store (the DataSource's planner) never needs.
_SELECT_ENGINE = ("s3_select", "select_all", "select_results", "MAX_SQL_BYTES")

__all__ = [
    "ObjectStore",
    "Usage",
    "UsageLog",
    "s3_select",
    "select_all",
    "select_results",
    "S3SelectError",
    "MAX_SQL_BYTES",
]


def __getattr__(name: str):
    if name in _SELECT_ENGINE:
        return getattr(importlib.import_module("repro.s3sim.select_engine"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
