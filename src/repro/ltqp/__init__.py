"""Link Traversal Query Processing — the paper's primary contribution.

The engine (:class:`LinkTraversalEngine`) executes SPARQL queries over
decentralized environments by recursively dereferencing links from seed
URLs (link queue + dereferencer + extractors feeding a growing triple
source) while a pipelined query plan streams results in parallel —
the architecture of the paper's Fig. 1.
"""

from .dereference import DereferenceError, DereferenceResult, Dereferencer
from .engine import (
    EngineConfig,
    ExecutionResult,
    LinkTraversalEngine,
    QueryExecution,
    TraversalPolicy,
)
from ..net.resilience import NetworkPolicy
from .explain import explain_algebra, explain_physical, explain_plan
from .extractors import (
    AllIriExtractor,
    LdpContainerExtractor,
    LinkExtractor,
    MatchIriExtractor,
    QueryContext,
    ScopedLdpContainerExtractor,
    SOLID_AWARE_EXTRACTORS,
    StorageExtractor,
    TypeIndexExtractor,
    build_query_context,
    default_extractors,
)
from .guided import (
    CardinalityHints,
    HintDiscoveryExtractor,
    SourceSelector,
    SubwebRule,
    SubwebSpecification,
)
from .links import (
    EXTRACTOR_RANK,
    Link,
    LinkProvenance,
    LinkQueue,
    QUEUE_POLICIES,
    QueuePolicyContext,
    QueueSample,
    build_queue,
    provenance_rank,
    queue_factory_for,
)
from .pipeline import (
    DescribeNode,
    ExistsFilterNode,
    GroupAggregateNode,
    LeftJoinNode,
    MinusNode,
    NotStreamable,
    OrderSliceNode,
    Pipeline,
    compile_pipeline,
    compile_query_pipeline,
    total_work,
)
from .live import LiveQuery, ResultChange
from .source import GrowingTripleSource
from .stats import ExecutionStats, TimedResult

__all__ = [
    "LinkTraversalEngine",
    "EngineConfig",
    "TraversalPolicy",
    "NetworkPolicy",
    "QueryExecution",
    "ExecutionResult",
    "ExecutionStats",
    "TimedResult",
    "Link",
    "LinkProvenance",
    "LinkQueue",
    "QUEUE_POLICIES",
    "QueuePolicyContext",
    "queue_factory_for",
    "build_queue",
    "provenance_rank",
    "EXTRACTOR_RANK",
    "QueueSample",
    "SourceSelector",
    "SubwebRule",
    "SubwebSpecification",
    "CardinalityHints",
    "HintDiscoveryExtractor",
    "GrowingTripleSource",
    "Dereferencer",
    "DereferenceResult",
    "DereferenceError",
    "LinkExtractor",
    "AllIriExtractor",
    "MatchIriExtractor",
    "LdpContainerExtractor",
    "ScopedLdpContainerExtractor",
    "StorageExtractor",
    "TypeIndexExtractor",
    "SOLID_AWARE_EXTRACTORS",
    "default_extractors",
    "build_query_context",
    "QueryContext",
    "Pipeline",
    "explain_algebra",
    "explain_physical",
    "explain_plan",
    "compile_pipeline",
    "compile_query_pipeline",
    "LeftJoinNode",
    "MinusNode",
    "ExistsFilterNode",
    "GroupAggregateNode",
    "OrderSliceNode",
    "DescribeNode",
    "total_work",
    "NotStreamable",
    "LiveQuery",
    "ResultChange",
]
