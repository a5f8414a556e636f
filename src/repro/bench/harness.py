"""The benchmark harness: run Discover queries, collect the paper's metrics.

One :func:`run_query` call = one demo-scenario execution: traversal +
streaming query over the simulated pods, traced so the waterfall can be
built from the span tree, and the oracle answer computed for completeness
checking.  :func:`run_suite` drives whole query suites (bench E6/E7).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..ltqp.engine import EngineConfig, QueryExecution
from ..ltqp.extractors import LinkExtractor
from ..net.latency import LatencyModel, NoLatency
from ..obs import Tracer
from ..sparql.bindings import Binding
from ..sparql.eval import SnapshotEvaluator
from ..sparql.parser import parse_query
from ..solidbench.queries import NamedQuery
from ..solidbench.universe import SolidBenchUniverse
from .waterfall import Waterfall, build_waterfall

__all__ = ["QueryRunReport", "run_query", "run_suite", "oracle_bindings"]


@dataclass(slots=True)
class QueryRunReport:
    """Everything measured for one query execution."""

    query: NamedQuery
    result_count: int
    oracle_count: Optional[int]
    complete: Optional[bool]
    total_time: float
    time_to_first_result: Optional[float]
    documents_fetched: int
    documents_failed: int
    links_queued: int
    links_by_extractor: dict[str, int]
    waterfall: Waterfall
    streaming: bool
    result_times: list[float] = field(default_factory=list)
    #: The span tree recorded for this run (the waterfall's source).
    trace: Optional[Tracer] = None
    #: The finished execution: its bindings and full ``ExecutionStats``.
    execution: Optional[QueryExecution] = None

    def row(self) -> dict:
        """A flat dict for table rendering."""
        return {
            "query": self.query.name,
            "results": self.result_count,
            "oracle": self.oracle_count if self.oracle_count is not None else "-",
            "complete": {True: "yes", False: "NO", None: "-"}[self.complete],
            "ttfr_s": (
                f"{self.time_to_first_result:.3f}"
                if self.time_to_first_result is not None
                else "-"
            ),
            "total_s": f"{self.total_time:.3f}",
            "requests": self.waterfall.request_count,
            "depth": self.waterfall.max_depth,
            "streaming": "yes" if self.streaming else "no",
        }


def oracle_bindings(universe: SolidBenchUniverse, query: NamedQuery) -> set[Binding]:
    """Ground-truth answer: the query over the union of all documents."""
    evaluator = SnapshotEvaluator(universe.oracle_dataset())
    return set(evaluator.select(parse_query(query.text)))


def run_query(
    universe: SolidBenchUniverse,
    query: NamedQuery,
    extractors: Optional[list[LinkExtractor]] = None,
    engine_config: Optional[EngineConfig] = None,
    latency: Optional[LatencyModel] = None,
    check_oracle: bool = True,
    auth_headers: Optional[dict[str, str]] = None,
    tracer: Optional[Tracer] = None,
) -> QueryRunReport:
    """Execute one Discover query by link traversal and measure it.

    Every run is traced: the report's waterfall is built from the span
    tree, which is returned on the report as ``trace``.  Pass a ``tracer``
    on a :class:`~repro.obs.TickClock` to make every time an event count.
    """
    engine = universe.engine(
        extractors=extractors,
        config=engine_config,
        latency=latency if latency is not None else NoLatency(),
        auth_headers=auth_headers,
    )
    tracer = tracer if tracer is not None else Tracer()
    execution = engine.query(query.text, seeds=query.seeds, tracer=tracer).run_sync()
    stats = execution.stats

    oracle_count: Optional[int] = None
    complete: Optional[bool] = None
    if check_oracle:
        expected = oracle_bindings(universe, query)
        oracle_count = len(expected)
        complete = set(execution.bindings) == expected

    return QueryRunReport(
        query=query,
        result_count=len(execution),
        oracle_count=oracle_count,
        complete=complete,
        total_time=stats.total_time,
        time_to_first_result=stats.time_to_first_result,
        documents_fetched=stats.documents_fetched,
        documents_failed=stats.documents_failed,
        links_queued=stats.links_queued,
        links_by_extractor=dict(stats.links_by_extractor),
        waterfall=build_waterfall(tracer),
        streaming=stats.streaming,
        result_times=[timed.elapsed for timed in execution.results],
        trace=tracer,
        execution=execution,
    )


def run_suite(
    universe: SolidBenchUniverse,
    queries: Sequence[NamedQuery],
    check_oracle: bool = True,
    **run_kwargs,
) -> list[QueryRunReport]:
    """Run a sequence of queries, returning one report each."""
    return [
        run_query(universe, query, check_oracle=check_oracle, **run_kwargs)
        for query in queries
    ]
