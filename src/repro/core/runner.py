"""Query execution bookkeeping: phases -> usage -> modeled runtime -> cost.

Operators declare their phases with the :class:`Runner.phase` context
manager; S3 usage inside the block is attributed to that phase by
diffing the store's usage log. ``finish`` assembles a
:class:`QueryResult` with the modeled runtime (PerfModel over phases)
and the dollar cost (paper SII-B pricing over total usage + modeled
compute time).

``QueryResult.project(factor)`` linearly scales usage and server-side
row counts to another data scale -- used to report numbers at the
paper's 10 GB alongside our measured SF.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import pandas as pd

from repro.costmodel.perf import PerfModel, Phase
from repro.costmodel.pricing import CostBreakdown, Pricing
from repro.s3sim.store import ObjectStore
from repro.s3sim.usage import Usage


@dataclass
class QueryResult:
    """Outcome of one query: result rows + accounting."""

    name: str
    df: pd.DataFrame
    usage: Usage
    phases: list
    runtime_s: float
    cost: CostBreakdown

    def project(self, factor: float, perf: PerfModel, pricing: Pricing) -> "QueryResult":
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
        runtime = perf.runtime(phases)
        total = Usage()
        for p in phases:
            total += p.usage
        return QueryResult(
            name=self.name,
            df=self.df,
            usage=total,
            phases=phases,
            runtime_s=runtime,
            cost=pricing.cost(total, runtime),
        )


class Runner:
    """Phase-scoped usage attribution for one query execution."""

    def __init__(
        self,
        store: ObjectStore,
        perf: PerfModel | None = None,
        pricing: Pricing | None = None,
    ):
        self.store = store
        self.perf = perf or PerfModel()
        self.pricing = pricing or Pricing()
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

    def finish(self, name: str, df: pd.DataFrame) -> QueryResult:
        """Build the QueryResult for the recorded phases."""
        total = Usage()
        for p in self.phases:
            total += p.usage
        runtime = self.perf.runtime(self.phases)
        return QueryResult(
            name=name,
            df=df,
            usage=total,
            phases=self.phases,
            runtime_s=runtime,
            cost=self.pricing.cost(total, runtime),
        )
