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
    sql_eval       -- vectorized evaluator over pandas frames
    select_engine  -- ties it together: run one S3 Select request
"""
from repro.s3sim.store import ObjectStore
from repro.s3sim.usage import Usage, UsageLog
from repro.s3sim.select_engine import (
    s3_select, select_all, S3SelectError, MAX_SQL_BYTES,
)

__all__ = [
    "ObjectStore",
    "Usage",
    "UsageLog",
    "s3_select",
    "select_all",
    "S3SelectError",
    "MAX_SQL_BYTES",
]
