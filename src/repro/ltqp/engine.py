"""The link-traversal SPARQL query engine (the paper's core system).

Architecture (paper Fig. 1): a link queue seeded with URLs; a pool of
dereferencer workers draining it and feeding triples into the growing
triple source; link extractors appending newly discovered links; and — in
parallel — a pipelined query plan over the growing source that streams
results to the caller while traversal is still running.

Usage::

    engine = LinkTraversalEngine(client)
    execution = engine.query(query_text)            # a QueryExecution handle
    async for binding in execution:                  # stream results, or
        ...
    await execution.gather()                         # run to completion
    execution.stats.summary()                        # live statistics

    engine.query(query_text).run_sync()              # blocking convenience

Seed URLs come from the caller or, following the demo UI's fallback, from
the IRIs mentioned in the query itself.  Every query — any form, any
operator mix — compiles into one incremental pipeline.  Monotonic
subtrees stream results during traversal (the paper's "pipelined
implementations of all *monotonic* SPARQL operators"); non-monotonic
operators (OPTIONAL, MINUS, ORDER BY, GROUP BY, …) become blocking
physical nodes that fold deltas into running state and release their
held-back output in one O(result) finalize pass at traversal quiescence.

Configuration is split by layer: :class:`TraversalPolicy` bounds the
crawl (depth, documents, duration, results), while
:class:`~repro.net.resilience.NetworkPolicy` governs fault handling
(timeouts, retries, circuit breakers).  :class:`EngineConfig` nests both.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterable, Optional, Union as TypingUnion

from ..net.client import HttpClient
from ..net.message import split_url
from ..net.resilience import NetworkPolicy
from ..rdf.terms import NamedNode
from ..rdf.triples import Triple
from ..sparql.algebra import Query
from ..sparql.bindings import Binding
from ..sparql.parser import parse_query
from .dereference import Dereferencer
from .extractors import (
    LinkExtractor,
    QueryContext,
    build_query_context,
    default_extractors,
)
from .links import Link, LinkQueue, QueuePolicyContext, build_queue, queue_factory_for
from .pipeline import compile_query_pipeline
from .source import GrowingTripleSource
from .stats import ExecutionStats, TimedResult

__all__ = [
    "TraversalPolicy",
    "NetworkPolicy",
    "EngineConfig",
    "ExecutionResult",
    "QueryExecution",
    "LinkTraversalEngine",
]


@dataclass(slots=True)
class TraversalPolicy:
    """Bounds and behaviour of the traversal itself.

    ``worker_count`` parallel dereferencers (the browser demo fetches with
    ~6-way parallelism per origin; the client enforces the per-origin cap,
    this caps global parallelism).  ``max_documents``/``max_depth`` bound
    traversal on the open Web; ``0`` disables the bound.
    """

    worker_count: int = 8
    max_documents: int = 0
    max_depth: int = 0
    max_duration: float = 0.0
    max_results: int = 0
    #: Per-origin dereference budget: at most this many documents are
    #: taken from any single origin per execution; further links from
    #: that origin are *refused* (kind ``origin-derefs``) and attributed
    #: in ``ExecutionStats.completeness()``.  A link-trap origin spinning
    #: an infinite container chain therefore costs a bounded number of
    #: requests.  ``0`` disables.
    max_origin_derefs: int = 0
    #: Per-origin byte budget: once an origin has served this many body
    #: bytes, further links from it are refused (kind ``origin-bytes``).
    #: Bounds growing-document origins whose individual documents stay
    #: under the per-document caps.  ``0`` disables.
    max_origin_bytes: int = 0
    #: Global parse-size cap, installed on the dereferencer: a body over
    #: this many bytes is refused before decode/tokenize work (kind
    #: ``parse-bytes``).  The network-side counterpart — aborting the
    #: transfer itself — is ``NetworkPolicy.max_response_bytes``.
    #: ``0`` disables.
    max_parse_bytes: int = 0
    lenient: bool = True
    adaptive: bool = False
    #: Link-queue discipline: ``"fifo"`` (breadth-first, the paper's
    #: default), ``"lifo"`` (depth-first), ``"priority"`` (shallow +
    #: Solid-metadata links first), ``"fair"`` (round-robin across
    #: origins), or ``"guided"`` (provenance/hint scoring with
    #: result-contribution feedback; see
    #: :class:`~repro.ltqp.guided.GuidedLinkQueue`) — the registry is
    #: :data:`~repro.ltqp.links.QUEUE_POLICIES`.  An explicit
    #: ``queue_factory`` passed to the engine overrides this.
    queue_policy: str = "fifo"
    #: Subweb specification governing source selection (DESIGN.md §4g):
    #: a :class:`~repro.ltqp.guided.SubwebSpecification`, a dict in its
    #: JSON shape, or a path to a JSON spec file (the CLI's ``--subweb``).
    #: Installing one activates the :class:`~repro.ltqp.guided
    #: .SourceSelector` — links outside the declared subweb are pruned
    #: *before* they cost a dereference, attributed in
    #: ``ExecutionStats.completeness()``.  ``None`` plus a non-guided
    #: queue policy leaves traversal exactly as before.
    subweb: Optional[object] = None
    #: Micro-batching of pipeline advancement: documents accumulate in the
    #: growing source until at least this many new quads are pending, then
    #: one ``advance`` feeds them all — tiny documents coalesce instead of
    #: each paying a full pipeline pass.  Until the first result is emitted
    #: the engine flushes per document, so time-to-first-result is not
    #: traded away.  ``<= 1`` restores strict per-document advancement.
    advance_batch_quads: int = 192
    #: Upper bound on how long a partial batch may sit before a timer
    #: flushes it (seconds; ``0`` disables the timer).  Quiescence always
    #: flushes regardless.
    advance_flush_interval: float = 0.02


def _origin_of(url: str) -> str:
    try:
        origin, _, _ = split_url(url)
    except ValueError:
        return ""
    return origin


def _resolve_subweb(value):
    """Normalize ``TraversalPolicy.subweb`` to a SubwebSpecification."""
    if value is None:
        return None
    from .guided import SubwebSpecification

    if isinstance(value, SubwebSpecification):
        return value
    if isinstance(value, dict):
        return SubwebSpecification.from_json(value)
    if isinstance(value, str):
        return SubwebSpecification.from_file(value)
    raise TypeError(f"subweb must be a SubwebSpecification, dict, or path; got {value!r}")


class _OriginBudgets:
    """Per-execution ledger of what each origin has cost so far.

    ``admit`` is the gate :meth:`LinkTraversalEngine._process_link` asks
    before dereferencing: it returns the budget kind that refuses the
    link (``"origin-derefs"`` / ``"origin-bytes"``) or ``""`` to admit,
    charging the dereference on admission.  Body bytes are charged after
    the fetch via ``charge_bytes``.
    """

    __slots__ = ("_derefs", "_bytes")

    def __init__(self) -> None:
        self._derefs: dict[str, int] = {}
        self._bytes: dict[str, int] = {}

    def admit(self, origin: str, traversal: TraversalPolicy) -> str:
        cap = traversal.max_origin_derefs
        if cap and self._derefs.get(origin, 0) >= cap:
            return "origin-derefs"
        cap = traversal.max_origin_bytes
        if cap and self._bytes.get(origin, 0) >= cap:
            return "origin-bytes"
        self._derefs[origin] = self._derefs.get(origin, 0) + 1
        return ""

    def charge_bytes(self, origin: str, count: int) -> None:
        if count:
            self._bytes[origin] = self._bytes.get(origin, 0) + count


@dataclass(slots=True)
class EngineConfig:
    """Tunables for one engine instance, split into two nested policies.

    ``traversal`` (a :class:`TraversalPolicy`) bounds the crawl;
    ``network`` (a :class:`~repro.net.resilience.NetworkPolicy`) governs
    timeouts, retries, and circuit breaking::

        EngineConfig(traversal=TraversalPolicy(max_depth=2))
        config.traversal.worker_count
    """

    traversal: TraversalPolicy = field(default_factory=TraversalPolicy)
    network: NetworkPolicy = field(default_factory=NetworkPolicy)


@dataclass(slots=True)
class ExecutionResult:
    """Everything one query execution produced."""

    query: Query
    results: list[TimedResult] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    seeds: list[str] = field(default_factory=list)
    #: Live executions keep their pipeline, triple source, and
    #: dereferencer past quiescence so
    #: :class:`~repro.ltqp.live.LiveQuery` can maintain the result
    #: multiset under signed deltas.  The dereferencer matters for diff
    #: minimality: its per-URL blank-node namespaces make a refresh
    #: re-parse label-stable against the traversal's parse.  ``None``
    #: for ordinary runs.
    live: bool = False
    pipeline: Optional[object] = None
    source: Optional[object] = None
    dereferencer: Optional[object] = None

    @property
    def bindings(self) -> list[Binding]:
        return [timed.binding for timed in self.results]

    def __len__(self) -> int:
        return len(self.results)


class QueryExecution:
    """Handle for one query execution — the unified entry point.

    Created by :meth:`LinkTraversalEngine.query`; nothing runs until the
    handle is driven.  Supports four consumption styles::

        async for binding in execution: ...     # stream
        await execution.gather()                # run to completion
        execution.run_sync()                    # blocking gather
        await execution.cancel()                # stop traversal, keep stats

    ``stats``/``results``/``bindings`` are live views — they update while
    the execution streams and are final once ``done`` is true.
    """

    def __init__(
        self,
        engine: "LinkTraversalEngine",
        query: Query,
        seeds: Optional[Iterable[str]],
        tracer=None,
        metrics=None,
        extractors: Optional[list[LinkExtractor]] = None,
        traversal: Optional[TraversalPolicy] = None,
        live: bool = False,
    ) -> None:
        self._result = ExecutionResult(query=query, live=live)
        self._tracer = tracer
        self._metrics = metrics
        self._generator = engine._run(
            self._result,
            seeds,
            tracer,
            metrics,
            extractors=extractors,
            traversal=traversal,
            live=live,
        )
        self._finished = False
        self._cancelled = False

    # -- live views ----------------------------------------------------

    @property
    def query(self) -> Query:
        return self._result.query

    @property
    def result(self) -> ExecutionResult:
        """The underlying :class:`ExecutionResult` container."""
        return self._result

    @property
    def stats(self) -> ExecutionStats:
        return self._result.stats

    @property
    def results(self) -> list[TimedResult]:
        return self._result.results

    @property
    def bindings(self) -> list[Binding]:
        return self._result.bindings

    @property
    def seeds(self) -> list[str]:
        return self._result.seeds

    @property
    def tracer(self):
        """The :class:`~repro.obs.trace.Tracer` recording this execution (or None)."""
        return self._tracer

    @property
    def metrics(self):
        """The :class:`~repro.obs.metrics.Metrics` registry in use (or None)."""
        return self._metrics

    @property
    def done(self) -> bool:
        return self._finished

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __len__(self) -> int:
        return len(self._result)

    # -- consumption ---------------------------------------------------

    def __aiter__(self) -> "QueryExecution":
        return self

    async def __anext__(self) -> Binding:
        if self._finished:
            raise StopAsyncIteration
        try:
            return await self._generator.__anext__()
        except StopAsyncIteration:
            self._finished = True
            raise

    async def gather(self) -> "QueryExecution":
        """Drain the execution to completion; returns this handle."""
        async for _ in self:
            pass
        return self

    async def cancel(self) -> "QueryExecution":
        """Stop traversal and finalize statistics for what was produced."""
        if not self._finished:
            self._cancelled = True
            self._finished = True
            await self._generator.aclose()
        return self

    def run_sync(self) -> "QueryExecution":
        """Blocking convenience: run the execution on a fresh event loop."""
        return asyncio.run(self.gather())


class LinkTraversalEngine:
    """Executes SPARQL queries over the Web by link traversal."""

    def __init__(
        self,
        client: HttpClient,
        extractors: Optional[list[LinkExtractor]] = None,
        config: Optional[EngineConfig] = None,
        queue_factory=None,
        auth_headers: Optional[dict[str, str]] = None,
        dereferencer: Optional[Dereferencer] = None,
    ) -> None:
        self._client = client
        self._extractors = extractors if extractors is not None else default_extractors()
        self._config = config if config is not None else EngineConfig()
        # ``None`` defers to the traversal policy's ``queue_policy`` at
        # execution time; an explicit factory always wins.
        self._queue_factory = queue_factory
        self._auth_headers = dict(auth_headers or {})
        # A shared (service-owned) dereferencer may be injected so many
        # engines/executions reuse one parsed-document store; when set, it
        # supersedes the per-run default and its own leniency/header
        # settings apply instead of this engine's.
        self._dereferencer = dereferencer
        # The engine's network policy governs its client, unless the
        # caller constructed the client with an explicit policy of its own.
        if not client.has_explicit_policy:
            client.apply_policy(self._config.network)

    @property
    def client(self) -> HttpClient:
        return self._client

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def extractors(self) -> list[LinkExtractor]:
        return list(self._extractors)

    @property
    def dereferencer(self) -> Optional[Dereferencer]:
        """The injected shared dereferencer, if any (else one is built per run)."""
        return self._dereferencer

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def query(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        tracer=None,
        metrics=None,
        extractors: Optional[list[LinkExtractor]] = None,
        traversal: Optional[TraversalPolicy] = None,
        live: bool = False,
    ) -> QueryExecution:
        """Begin a query execution and return its :class:`QueryExecution`.

        The single entry point: iterate the handle to stream, ``await
        .gather()`` (or ``.run_sync()``) to collect everything, ``await
        .cancel()`` to stop early — ``.stats`` is live throughout.

        Pass a :class:`~repro.obs.trace.Tracer` to record the execution's
        span tree and/or a :class:`~repro.obs.metrics.Metrics` registry
        for counters/gauges/histograms; with neither, no instrumentation
        code runs (the observability layer is strictly opt-in).

        ``extractors`` and ``traversal`` override the engine's defaults
        for this execution only — the :class:`~repro.service.QueryService`
        uses them to give every concurrent query fresh extractor state and
        its own link/time budgets while the engine (client, dereferencer,
        caches) stays shared.

        ``live=True`` compiles the pipeline for *standing* execution: the
        run proceeds to true quiescence (no LIMIT short-circuit), every
        operator retains signed-maintenance state, and after completion
        ``execution.result.pipeline`` / ``.source`` stay usable so a
        :class:`~repro.ltqp.live.LiveQuery` can keep the result multiset
        current as documents change.  Live runs never use the adaptive
        re-planner (its replay is additive-only).
        """
        return QueryExecution(
            self,
            self._parse(query),
            seeds,
            tracer=tracer,
            metrics=metrics,
            extractors=extractors,
            traversal=traversal,
            live=live,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _parse(query: TypingUnion[str, Query]) -> Query:
        if isinstance(query, Query):
            return query
        return parse_query(query)

    @staticmethod
    def seeds_from_query(query: Query) -> list[str]:
        """The demo UI's fallback: IRIs mentioned in the query are seeds.

        Only entity IRIs (subject/object positions) count — vocabulary IRIs
        (predicates, classes) are not dereferenceable data anchors.
        """
        context = build_query_context(query.where)
        seeds = {
            iri for iri in context.entity_iris if iri.startswith(("http://", "https://"))
        }
        for target in query.describe_targets:
            if isinstance(target, NamedNode) and target.value.startswith(("http://", "https://")):
                seeds.add(target.value)
        return sorted(seeds)

    async def _run(
        self,
        execution: ExecutionResult,
        seeds: Optional[Iterable[str]],
        tracer=None,
        metrics=None,
        extractors: Optional[list[LinkExtractor]] = None,
        traversal: Optional[TraversalPolicy] = None,
        live: bool = False,
    ) -> AsyncIterator[Binding]:
        # Per-execution view of the configuration: shared engine state
        # (client, dereferencer, network policy) stays engine-level, while
        # traversal bounds and extractor state may vary query by query.
        config = (
            self._config
            if traversal is None
            else EngineConfig(network=self._config.network, traversal=traversal)
        )
        policy = config.traversal
        run_extractors = extractors if extractors is not None else self._extractors
        query = execution.query
        context = build_query_context(query.where)
        seed_list = list(seeds) if seeds is not None else self.seeds_from_query(query)
        execution.seeds = seed_list
        stats = execution.stats
        # Guided source selection: a subweb spec and/or the guided queue
        # policy installs a per-execution SourceSelector, and the hint
        # extractor so pods' source indexes and published specs are
        # discovered and absorbed during traversal.
        selector = None
        spec = _resolve_subweb(policy.subweb)
        if spec is not None or policy.queue_policy == "guided":
            from .guided import HintDiscoveryExtractor, SourceSelector

            selector = SourceSelector(spec=spec, where=query.where, seeds=seed_list)
            run_extractors = [HintDiscoveryExtractor(selector)] + list(run_extractors)
        # Every timestamp in a traced execution (stats, queue samples,
        # request log, spans) comes from the tracer's clock, so a seeded
        # TickClock makes the whole run a deterministic artifact.
        clock = tracer.clock if tracer is not None else time.monotonic
        stats.started_at = clock()
        resilience_before = self._client.resilience_snapshot()

        query_span = traversal_span = None
        client_tracer_before = self._client.tracer
        client_metrics_before = self._client.metrics
        if tracer is not None:
            query_span = tracer.begin(
                "query", start=stats.started_at, form=query.form, seeds=len(seed_list)
            )
            # Opened before the seeds enqueue so their stamps nest inside.
            traversal_span = tracer.begin("traversal", parent=query_span)
            self._client.tracer = tracer
        if metrics is not None:
            self._client.metrics = metrics

        source = GrowingTripleSource()
        queue_factory = (
            self._queue_factory
            if self._queue_factory is not None
            else queue_factory_for(policy.queue_policy)
        )
        policy_context = QueuePolicyContext(
            query=context, hints=selector.hints if selector is not None else None
        )
        queue: LinkQueue = build_queue(queue_factory, policy_context)
        queue.clock = clock
        if metrics is not None:
            depth_gauge = metrics.gauge("queue.depth")
            queue.observer = lambda sample: depth_gauge.set(sample.queue_length)
        for seed in seed_list:
            if queue.push(Link(url=seed, via="seed")):
                stats.links_queued += 1
                stats.links_by_extractor["seed"] = stats.links_by_extractor.get("seed", 0) + 1

        # One compiler for every query form: ASK wraps in LIMIT 1 over an
        # empty projection, DESCRIBE streams CBD triples, CONSTRUCT streams
        # its WHERE bindings and instantiates the template per new solution.
        # Non-monotonic operators become blocking physical nodes that flush
        # at quiescence via Pipeline.finalize.
        plan_started = clock() if tracer is not None else 0.0
        if live:
            # Signed maintenance needs per-operator live state; the
            # adaptive re-planner's replay is additive-only, so live
            # executions always compile the static live pipeline.
            pipeline = compile_query_pipeline(query, seed_iris=context.iris, live=True)
        elif policy.adaptive:
            from .adaptive import AdaptivePipeline

            pipeline = AdaptivePipeline(query.where, seed_iris=context.iris, query=query)
        else:
            pipeline = compile_query_pipeline(query, seed_iris=context.iris)
        # "Streaming" now means the plan holds nothing back: no blocking
        # operators, so every result can reach the caller mid-traversal.
        stats.streaming = not pipeline.blocking_nodes
        if tracer is not None:
            tracer.add(
                "plan",
                plan_started,
                clock(),
                parent=query_span,
                streaming=stats.streaming,
                blocking=len(pipeline.blocking_nodes),
                adaptive=policy.adaptive,
            )
            pipeline.enable_tracing(tracer, query_span)

        constructed: set = set()

        def transform_results(bindings):
            """Map raw pipeline bindings to what the query form returns."""
            if query.form != "CONSTRUCT":
                return bindings
            from ..rdf.terms import Variable
            from ..sparql.eval import construct_triples

            output = []
            for binding in bindings:
                for triple in construct_triples(
                    query.construct_template, binding, len(constructed)
                ):
                    if triple not in constructed:
                        constructed.add(triple)
                        output.append(
                            Binding(
                                {
                                    Variable("subject"): triple.subject,
                                    Variable("predicate"): triple.predicate,
                                    Variable("object"): triple.object,
                                }
                            )
                        )
            return output

        result_queue: asyncio.Queue[Optional[Binding]] = asyncio.Queue()
        stop_traversal = asyncio.Event()
        # Result-contribution feedback (guided queue only): the documents
        # whose entities appear in an emitted binding get their pending
        # sibling links promoted.
        note_contribution = getattr(queue, "note_result_contribution", None)

        def feed_contribution(binding: Binding) -> None:
            for _var, term in binding.items():
                value = getattr(term, "value", None)
                if isinstance(value, str) and value.startswith(("http://", "https://")):
                    note_contribution(value.split("#", 1)[0])

        def emit(binding: Binding) -> None:
            # Single limit check against the pre-increment count decides both
            # acceptance and traversal stop: the binding that lands exactly on
            # the limit is counted *and* triggers the stop — it is never
            # silently dropped, and anything past the limit is ignored.
            limit = policy.max_results
            count = stats.result_count
            if limit and count >= limit:
                return
            now = clock()
            if stats.first_result_at is None:
                stats.first_result_at = now
                if tracer is not None:
                    # Same `now` as the stats field, so the trace-derived
                    # time-to-first-result reconciles exactly.
                    tracer.instant("first-result", parent=query_span, ts=now)
            stats.result_count = count + 1
            execution.results.append(TimedResult(binding=binding, elapsed=now - stats.started_at))
            if note_contribution is not None:
                feed_contribution(binding)
            result_queue.put_nowait(binding)
            if limit and count + 1 >= limit:
                stop_traversal.set()

        batch_quads = max(1, policy.advance_batch_quads)
        pending_quads = 0

        def flush_pipeline() -> None:
            nonlocal pending_quads
            if pending_quads == 0:
                return
            pending_quads = 0
            for binding in transform_results(pipeline.advance(source.dataset)):
                emit(binding)
            if pipeline.complete:
                stop_traversal.set()

        def on_document(url: str, triples: list[Triple]) -> None:
            nonlocal pending_quads
            # Hard document bound: concurrent workers may all pass the
            # pre-fetch check, but only the first max_documents results
            # are admitted into the source.
            doc_limit = policy.max_documents
            if doc_limit and source.document_count >= doc_limit:
                stop_traversal.set()
                return
            added = source.add_document(url, triples)
            stats.triples_discovered += added
            if not added:
                return
            pending_quads += added
            # Flush per document until the first result (TTFR protection),
            # then coalesce small documents up to the batch threshold.
            if stats.result_count == 0 or pending_quads >= batch_quads:
                flush_pipeline()

        async def flush_timer() -> None:
            interval = policy.advance_flush_interval
            while not stop_traversal.is_set():
                await asyncio.sleep(interval)
                flush_pipeline()

        # Resolved here (not inside _traverse) so live executions can
        # retain it: refreshes must reuse the same per-URL blank-node
        # namespaces the traversal parses established.
        dereferencer = self._resolve_dereferencer(policy, tracer)
        traversal = asyncio.create_task(
            self._traverse(
                queue,
                source,
                context,
                stats,
                on_document,
                stop_traversal,
                config,
                run_extractors,
                dereferencer,
                tracer=tracer,
                traversal_span=traversal_span,
                clock=clock,
                selector=selector,
            )
        )
        timer: Optional[asyncio.Task] = None
        if batch_quads > 1 and policy.advance_flush_interval > 0:
            timer = asyncio.create_task(flush_timer())

        drain: Optional[asyncio.Task] = None
        try:
            while True:
                drain = asyncio.create_task(result_queue.get())
                done, _ = await asyncio.wait(
                    {drain, traversal}, return_when=asyncio.FIRST_COMPLETED
                )
                if drain in done:
                    binding = drain.result()
                    if binding is not None:
                        yield binding
                    continue
                # Traversal finished; cancel the pending drain and flush.
                drain.cancel()
                break
            await traversal  # re-raise worker exceptions
            if tracer is not None:
                tracer.end(traversal_span)
            # Quiescence flush: feed whatever landed after the last batched
            # advance (the cursor makes this exact, batching or not), then
            # release everything the blocking operators held back.
            pending_quads = 0
            for binding in transform_results(pipeline.finalize(source.dataset)):
                emit(binding)
            if live:
                # Hand the (now settled) standing machinery to the caller
                # (LiveQuery) before the generator returns.
                execution.pipeline = pipeline
                execution.source = source
                execution.dereferencer = dereferencer
            while not result_queue.empty():
                binding = result_queue.get_nowait()
                if binding is not None:
                    yield binding
        finally:
            if drain is not None and not drain.done():
                drain.cancel()
            # CancelledError is a BaseException (not an Exception) on modern
            # Python, so it needs its own clause; the expected outcome of
            # cancelling is the task raising it.  Anything else is a real
            # teardown bug — shutdown must not fail the query, but the error
            # is recorded in the stats instead of being swallowed silently.
            if timer is not None and not timer.done():
                timer.cancel()
                try:
                    await timer
                except asyncio.CancelledError:
                    pass
                except Exception as error:
                    stats.note_shutdown_error("flush-timer", error)
            if not traversal.done():
                traversal.cancel()
                try:
                    await traversal
                except asyncio.CancelledError:
                    pass
                except Exception as error:
                    stats.note_shutdown_error("traversal", error)
            if selector is not None:
                # Links still deferred at quiescence: their origins were
                # never declared by any traversed document — pruned.
                for parked in selector.drain_deferred():
                    stats.note_pruned("origin:undeclared", _origin_of(parked.url))
            stats.finished_at = clock()
            stats.documents_fetched = source.document_count
            stats.queue_samples = queue.samples
            stats.links_queued = queue.pushed_total
            stats.replans = getattr(pipeline, "replans", 0)
            self._finalize_resilience(stats, resilience_before)
            if tracer is not None:
                # Idempotent for the happy path; the cancellation path
                # closes traversal (and any interrupted descendants) here.
                tracer.end(traversal_span, end=stats.finished_at)
                tracer.end(query_span, end=stats.finished_at, results=stats.result_count)
                tracer.close_open_spans(end=stats.finished_at)
            self._client.tracer = client_tracer_before
            self._client.metrics = client_metrics_before
            if metrics is not None:
                metrics.counter("documents.fetched").inc(stats.documents_fetched)
                metrics.counter("triples.discovered").inc(stats.triples_discovered)
                metrics.counter("results.emitted").inc(stats.result_count)
                if stats.total_time > 0:
                    metrics.gauge("triples.per_s").set(
                        stats.triples_discovered / stats.total_time
                    )

    def _finalize_resilience(self, stats: ExecutionStats, before: dict) -> None:
        """Fold the client's resilience counter deltas into the stats."""
        after = self._client.resilience_snapshot()
        stats.http_retries = after["retries"] - before["retries"]
        stats.http_timeouts = after["timeouts"] - before["timeouts"]
        stats.breaker_fast_fails = (
            after["breaker_fast_fails"] - before["breaker_fast_fails"]
        )
        trips_before = before["trips_by_origin"]
        stats.origins_tripped = {
            origin: trips - trips_before.get(origin, 0)
            for origin, trips in after["trips_by_origin"].items()
            if trips > trips_before.get(origin, 0)
        }

    # ------------------------------------------------------------------
    # traversal loop
    # ------------------------------------------------------------------

    def _resolve_dereferencer(
        self, policy: TraversalPolicy, tracer=None
    ) -> Dereferencer:
        """The injected shared dereferencer, or a fresh per-run one."""
        dereferencer = self._dereferencer
        if dereferencer is None:
            return Dereferencer(
                self._client,
                lenient=policy.lenient,
                extra_headers=self._auth_headers,
                tracer=tracer,
                max_parse_bytes=policy.max_parse_bytes,
            )
        if policy.max_parse_bytes and not dereferencer.max_parse_bytes:
            # A shared (service-owned) dereferencer keeps its own cap if it
            # has one; otherwise this execution's cap is installed for good
            # (the service configures all executions uniformly).
            dereferencer.max_parse_bytes = policy.max_parse_bytes
        return dereferencer

    async def _traverse(
        self,
        queue: LinkQueue,
        source: GrowingTripleSource,
        context: QueryContext,
        stats: ExecutionStats,
        on_document,
        stop_traversal: asyncio.Event,
        config: EngineConfig,
        extractors: list[LinkExtractor],
        dereferencer: Dereferencer,
        tracer=None,
        traversal_span=None,
        clock=time.monotonic,
        selector=None,
    ) -> None:
        budgets = _OriginBudgets()
        in_flight = 0
        wake = asyncio.Condition()

        async def worker(track: int) -> None:
            nonlocal in_flight
            while True:
                async with wake:
                    while queue.empty:
                        if in_flight == 0 or stop_traversal.is_set():
                            wake.notify_all()
                            return
                        await wake.wait()
                    if stop_traversal.is_set():
                        wake.notify_all()
                        return
                    link = queue.pop()
                    in_flight += 1
                try:
                    await self._process_link(
                        link,
                        dereferencer,
                        queue,
                        context,
                        stats,
                        on_document,
                        config,
                        extractors,
                        budgets,
                        tracer=tracer,
                        traversal_span=traversal_span,
                        clock=clock,
                        track=track,
                        selector=selector,
                    )
                finally:
                    async with wake:
                        in_flight -= 1
                        wake.notify_all()

        workers = [
            asyncio.create_task(worker(index + 1))
            for index in range(config.traversal.worker_count)
        ]
        try:
            await asyncio.gather(*workers)
        finally:
            for task in workers:
                if not task.done():
                    task.cancel()

    async def _process_link(
        self,
        link: Link,
        dereferencer: Dereferencer,
        queue: LinkQueue,
        context: QueryContext,
        stats: ExecutionStats,
        on_document,
        config: EngineConfig,
        extractors: list[LinkExtractor],
        budgets: _OriginBudgets,
        tracer=None,
        traversal_span=None,
        clock=time.monotonic,
        track: int = 0,
        selector=None,
    ) -> None:
        policy = config.traversal
        if policy.max_documents and stats.documents_fetched >= policy.max_documents:
            return
        if (
            policy.max_duration
            and clock() - stats.started_at > policy.max_duration
        ):
            return
        deref_span = None
        if tracer is not None:
            popped_at = clock()
            enqueued_at = link.enqueued_at or popped_at
            # The span covers the document's whole lifetime in the system,
            # queue wait included — matching the paper's waterfall bars.
            deref_span = tracer.begin(
                "dereference",
                parent=traversal_span,
                start=enqueued_at,
                track=track,
                url=link.url,
                via=link.via,
                depth=link.depth,
                attempt=link.attempts + 1,
            )
            provenance = link.provenance
            if provenance is not None:
                if provenance.predicate:
                    deref_span.args["via_predicate"] = provenance.predicate
                if provenance.pattern:
                    deref_span.args["via_pattern"] = provenance.pattern
                if provenance.for_class:
                    deref_span.args["via_class"] = provenance.for_class
            tracer.add("queue-wait", enqueued_at, popped_at, parent=deref_span)
        origin = _origin_of(link.url)
        try:
            # Source selection (pop time: origin admission needs the
            # knowledge absorbed so far).  Before the origin-budget gate —
            # a pruned link costs neither a request nor budget.
            if selector is not None:
                decision = selector.check(link)
                if decision.action == "prune":
                    stats.note_pruned(decision.rule, origin)
                    if deref_span is not None:
                        deref_span.args["outcome"] = "pruned"
                        deref_span.args["pruned"] = decision.rule
                    return
                if decision.action == "defer":
                    # Parked with the selector: re-queued the moment a
                    # traversed document declares this link's origin, or
                    # counted as pruned at quiescence.
                    selector.defer(link)
                    if deref_span is not None:
                        deref_span.args["outcome"] = "deferred"
                        deref_span.args["pruned"] = decision.rule
                    return
            # Origin-budget gate — after span creation, so every refusal
            # leaves a ``dereference`` span with ``outcome: refused`` for
            # the trace/stats reconciliation to count.
            refusal = budgets.admit(origin, policy)
            if refusal:
                stats.note_refusal(refusal, origin)
                if deref_span is not None:
                    deref_span.args["outcome"] = "refused"
                    deref_span.args["refused"] = refusal
                return
            result = await dereferencer.dereference(
                link.url,
                parent_url=link.parent_url,
                trace_parent=deref_span,
                tracer=tracer,
                provenance=link.provenance,
            )
            budgets.charge_bytes(origin, result.bytes_fetched)
            if result.refused:
                # Per-document cap (client read abort or parse cap): a
                # deliberate, attributed, never-retried refusal — not a
                # network failure.
                stats.note_refusal(result.refused, origin)
                if deref_span is not None:
                    deref_span.args["outcome"] = "refused"
                    deref_span.args["refused"] = result.refused
                    deref_span.args["error"] = result.error
                return
            if not result.ok:
                stats.documents_failed += 1
                outcome = "failed"
                if result.retryable:
                    # Transient trouble that survived client-level retries
                    # (e.g. a tripped breaker): give the link another pass
                    # through the queue instead of discarding the document.
                    # ``replace`` keeps everything but the attempt count —
                    # provenance and therefore queue rank survive the retry.
                    if link.attempts < config.network.max_link_requeues:
                        queue.requeue(dataclasses.replace(link, attempts=link.attempts + 1))
                        stats.documents_retried += 1
                        outcome = "retried"
                    else:
                        stats.documents_abandoned += 1
                        outcome = "abandoned"
                if deref_span is not None:
                    deref_span.args["outcome"] = outcome
                    deref_span.args["error"] = result.error
                return
            if selector is not None:
                # Absorb declarations (hints, specs, admitted origins)
                # *before* the pipeline and link extraction see the
                # document, so its own links are judged with its knowledge
                # already in force; newly admitted origins release their
                # parked links back into the queue.
                for released in selector.absorb_document(result.url, result.triples):
                    queue.requeue(released)
            on_document(result.url, result.triples)
            stats.documents_fetched += 1
            if result.from_store:
                stats.documents_from_store += 1
            if deref_span is not None:
                deref_span.args["outcome"] = "ok"
                deref_span.args["triples"] = len(result.triples)
                if result.from_store:
                    deref_span.args["from_store"] = True

            if policy.max_depth and link.depth >= policy.max_depth:
                # Attribution only (``document=False``): the document itself
                # was taken, but its out-links are suppressed at the depth
                # budget — the completeness report says so without marking
                # the run incomplete.
                stats.note_refusal("depth", origin, document=False)
                return
            extract_started = clock() if tracer is not None else 0.0
            links_pushed = 0
            links_pruned = 0
            # Extractors may intern one LinkProvenance for many links; the
            # parent-depth-stamped variant is cached alongside.
            stamped: dict = {}
            for extractor in extractors:
                for url, provenance in extractor.discover(result.url, result.triples, context):
                    if not url.startswith(("http://", "https://")):
                        continue
                    if provenance is not None:
                        if provenance.parent_depth != link.depth:
                            cached = stamped.get(provenance)
                            if cached is None:
                                cached = stamped[provenance] = dataclasses.replace(
                                    provenance, parent_depth=link.depth
                                )
                            provenance = cached
                        via = provenance.extractor
                    else:
                        via = extractor.name
                    candidate = Link(
                        url=url,
                        parent_url=result.url,
                        depth=link.depth + 1,
                        via=via,
                        provenance=provenance,
                    )
                    # Push-time source selection, on static grounds only
                    # (spec rules, hint relevance): these grow strictly
                    # more restrictive, so pruning here can never drop a
                    # link a later document would have justified.  Checked
                    # for fresh URLs only — duplicates are the dedup's
                    # business, not a prune.
                    if selector is not None and not queue.has_seen(url):
                        decision = selector.check_static(candidate)
                        if decision.action == "prune":
                            links_pruned += 1
                            stats.note_pruned(decision.rule, _origin_of(url))
                            continue
                    if queue.push(candidate):
                        links_pushed += 1
                        stats.links_by_extractor[via] = (
                            stats.links_by_extractor.get(via, 0) + 1
                        )
            if tracer is not None:
                tracer.add(
                    "extract",
                    extract_started,
                    clock(),
                    parent=deref_span,
                    links=links_pushed,
                    **({"pruned": links_pruned} if links_pruned else {}),
                )
        finally:
            if deref_span is not None:
                tracer.end(deref_span)
