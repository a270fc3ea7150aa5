"""Reference forms the tests share: a request evaluated over in-memory rows."""
import pandas as pd
import pyarrow as pa

from repro.s3sim.sql_eval import eval_query
from repro.s3sim.sql_parser import parse


def eval_frame(sql: str, rows: pd.DataFrame | pa.Table) -> pd.DataFrame:
    """The frame that ``sql`` returns over ``rows`` (a frame or an Arrow table) as one object."""
    table = rows if isinstance(rows, pa.Table) else pa.Table.from_pandas(rows, preserve_index=False)
    return eval_query(parse(sql), table, [0, table.num_rows])[0].to_pandas()
