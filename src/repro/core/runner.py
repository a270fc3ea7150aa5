"""Query execution bookkeeping: phases -> usage -> modeled runtime -> cost.

Operators declare their phases with the :class:`Runner.phase` context
manager; S3 usage inside the block is attributed to that phase by
diffing the store's usage log. :meth:`Runner.scan` is the phase of one
driver-sent ``select_table``: its server rows are the rows it received.
``finish`` assembles a :class:`QueryResult` with the modeled runtime
(the calibrated ``PERF`` over phases) and the dollar cost (paper SII-B
``PRICING`` over total usage + modeled compute time).

``QueryResult.project(factor)`` linearly scales usage and server-side
row counts to another data scale -- used to report numbers at the
paper's 10 GB alongside our measured SF.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import pandas as pd

from repro.core.tables import StoredTable, select_table
from repro.costmodel.perf import PerfModel, Phase
from repro.costmodel.pricing import CostBreakdown, Pricing
from repro.s3sim.store import ObjectStore
from repro.s3sim.usage import Usage

# The calibrated runtime model (DESIGN.md S6) and the paper's prices.
PERF = PerfModel()
PRICING = Pricing()


@dataclass
class QueryResult:
    """Outcome of one query: result rows + accounting."""

    name: str
    df: pd.DataFrame
    usage: Usage
    phases: list
    runtime_s: float
    cost: CostBreakdown

    @classmethod
    def of(cls, name: str, df: pd.DataFrame, phases: list) -> "QueryResult":
        """Total usage, modeled runtime and cost of ``phases``."""
        total = sum((p.usage for p in phases), Usage())
        runtime = PERF.runtime(phases)
        return cls(name, df, total, phases, runtime, PRICING.cost(total, runtime))

    def project(self, factor: float) -> "QueryResult":
        """Recompute runtime/cost as if data were ``factor``x larger.

        Bytes and server row counts scale linearly with table size.
        Request counts are per-*object* (S3 Select scans, PUTs, baseline
        whole-object GETs) and stay fixed under a partition-preserving
        scale-up -- except row-granular GET storms (the index
        algorithm's phase 2, recognizable as get_requests far above the
        object count), which do grow with the data.
        """

        def scale_usage(p):
            u = p.usage.scaled(factor)
            u.select_requests = p.usage.select_requests
            u.put_requests = p.usage.put_requests
            if p.usage.get_requests <= 2 * p.n_objects:
                u.get_requests = p.usage.get_requests
            return u

        phases = [
            replace(
                p,
                usage=scale_usage(p),
                hash_rows=int(p.hash_rows * factor),
                agg_rows=int(p.agg_rows * factor),
                heap_rows=int(p.heap_rows * factor),
            )
            for p in self.phases
        ]
        return QueryResult.of(self.name, self.df, phases)


class Runner:
    """Phase-scoped usage attribution for one query execution."""

    def __init__(self, store: ObjectStore):
        self.store = store
        self.phases: list[Phase] = []

    @contextmanager
    def phase(self, name: str, **kwargs):
        """Attribute S3 usage inside the block to a named phase.

        Extra kwargs land on :class:`Phase` (n_objects, hash_rows,
        heap_rows, case_columns, parallel_group...). Server row counts
        discovered only inside the block can be set on the yielded
        phase object.
        """
        pos = self.store.log.position()
        p = Phase(name=name, **kwargs)
        try:
            yield p
        finally:
            p.usage = self.store.log.read_since(pos)
            self.phases.append(p)

    def scan(
        self,
        name: str,
        table: StoredTable,
        columns: list,
        where: str | None = None,
        *,
        limit: int | None = None,
        rows: str | None = "hash_rows",
        **phase_kw,
    ) -> pd.DataFrame:
        """``select_table(store, table, columns, where, limit)`` as phase ``name``.

        The phase scans every object of ``table``, and its ``rows``
        field (``hash_rows``, ``agg_rows`` or ``heap_rows``) is the
        number of rows received: a pushed-down phase's server work is
        what it fetched. ``rows=None`` charges none (a sample, whose
        rows the model does not count). ``phase_kw`` land on the
        :class:`Phase` (``case_columns``, ``parallel_group``).
        """
        with self.phase(name, n_objects=len(table.keys), **phase_kw) as p:
            out = select_table(self.store, table, columns, where, limit=limit)
            if rows is not None:
                setattr(p, rows, len(out))
        return out

    def finish(self, name: str, df: pd.DataFrame) -> QueryResult:
        """Build the QueryResult for the recorded phases."""
        return QueryResult.of(name, df, self.phases)
