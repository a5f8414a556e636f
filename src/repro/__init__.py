"""repro — Link Traversal SPARQL Query Processing over the Decentralized
Solid Environment (EDBT 2024 demonstration, Python reproduction).

Subpackages
-----------

``repro.rdf``
    RDF 1.1 stack: terms, triples/quads, indexed stores, Turtle and
    N-Triples parsing/serialization.
``repro.sparql``
    SPARQL 1.1: parser → algebra → zero-knowledge planner → snapshot
    evaluator (expressions, paths, aggregates, result formats).
``repro.net``
    Simulated async HTTP: origins/apps, latency models, request logging,
    plus a real-socket adapter.
``repro.solid``
    Solid pods: LDP containers, WebID profiles, Type Indexes, WAC access
    control, OIDC-style auth, and the pod server.
``repro.solidbench``
    Deterministic SolidBench dataset generator and the 37-query Discover
    suite.
``repro.ltqp``
    The paper's engine: link queue + dereferencer + extractors feeding a
    growing triple source, with pipelined incremental query execution.
``repro.obs``
    Structured tracing (span trees, Chrome trace-event export, a text
    summary).
``repro.bench``
    Benchmark harness: suite runners, resource waterfalls, tables.

Quickstart
----------

>>> from repro.solidbench import build_universe, SolidBenchConfig, discover_query
>>> universe = build_universe(SolidBenchConfig(scale=0.01))
>>> query = discover_query(universe, 1, 5)
>>> engine = universe.fast_engine()
>>> result = engine.query(query.text, seeds=query.seeds).run_sync()
>>> result.stats.result_count == len(result.bindings)
True
"""

from .ltqp.engine import (
    EngineConfig,
    ExecutionResult,
    LinkTraversalEngine,
    QueryExecution,
    TraversalPolicy,
)
from .net.faults import FaultPlan, FaultRule
from .net.resilience import NetworkPolicy, RetryPolicy, BreakerPolicy
from .obs import Tracer

__version__ = "1.0.0"

__all__ = [
    "LinkTraversalEngine",
    "EngineConfig",
    "TraversalPolicy",
    "NetworkPolicy",
    "RetryPolicy",
    "BreakerPolicy",
    "FaultPlan",
    "FaultRule",
    "QueryExecution",
    "ExecutionResult",
    "Tracer",
    "__version__",
]
