"""The link-traversal SPARQL query engine (the paper's core system).

Architecture (paper Fig. 1): a link queue seeded with URLs; a pool of
dereferencer workers draining it and feeding triples into the growing
triple source; link extractors appending newly discovered links; and — in
parallel — a pipelined query plan over the growing source that streams
results to the caller while traversal is still running.

Usage::

    engine = LinkTraversalEngine(Dereferencer(HttpClient(internet)))
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

Each setting lives on the layer that acts on it, given at construction
(Fig. 1 is a stack — link queue → dereferencer → HTTP — and it is built
bottom-up): the :class:`~repro.net.client.HttpClient` runs the
:class:`~repro.net.resilience.NetworkPolicy` (timeouts, retries, breakers,
read cap); the :class:`~repro.ltqp.dereference.Dereferencer` owns leniency,
auth headers and the document store; the engine owns the
:class:`TraversalPolicy` (depth, documents, duration, results, queue) and
the extractor stack.  :class:`EngineConfig` is only the description a
stack builder accepts and splits between the first and the last.

State is split by lifetime: :class:`LinkTraversalEngine` is long-lived and
holds what executions share (the dereferencer it was handed, its traversal
policy, its extractors); a :class:`QueryExecution` is the one home of what
Fig. 1 draws per query, and its methods are the run itself: set-up →
worker loop → per link (admit → dereference → ingest → extract → one
outcome) → quiescence flush → tear-down.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterable, Optional, Union as TypingUnion

from ..net.client import HttpClient
from ..net.resilience import NetworkPolicy, ResilienceStats
from ..rdf.terms import NamedNode
from ..sparql.algebra import Query
from ..sparql.bindings import Binding
from ..sparql.parser import parse_query
from .dereference import DereferenceResult, Dereferencer
from .extractors import LinkExtractor, build_query_context, default_extractors
from .guided import HintDiscoveryExtractor, SourceSelector, SubwebSpecification
from .links import Link, QueuePolicyContext, build_queue, origin_of, queue_factory_for
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

    ``worker_count`` caps how many links are dereferenced at once.  ``0``
    (the default) sets no global cap: the pool grows while a link whose
    origin has a free connection slot finds every worker busy, so
    parallelism is bounded by the client's per-origin cap (the browser
    demo's ~6 per origin) times the origins in play.  ``1`` makes a
    traversal strictly serial (the waterfall goldens).
    ``max_documents``/``max_depth`` bound traversal on the open Web; ``0``
    disables the bound.  Join order is no setting: every execution's BGPs
    re-order themselves from their scans' counts
    (:class:`~repro.ltqp.pipeline.Pipeline`).  Nor is when the pipeline is
    fed: one rule that reads no clock (:meth:`QueryExecution._ingest`).
    """

    worker_count: int = 0
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
    #: Global parse-size cap, handed to the dereferencer with every call:
    #: a body over this many bytes is refused before decode/tokenize work
    #: (kind ``parse-bytes``).  The network-side counterpart — aborting the
    #: transfer itself — is ``NetworkPolicy.max_response_bytes``.
    #: ``0`` disables.
    max_parse_bytes: int = 0
    #: Link-queue discipline — the *order* links are dereferenced in, never
    #: which; each is a score the one queue takes of a link once, on
    #: admission: ``"fifo"`` (breadth-first, the paper's default),
    #: ``"lifo"`` (depth-first), ``"priority"`` (shallow + Solid-metadata
    #: links first), ``"fair"`` (an origin's n-th link before any origin's
    #: n+1-th), or ``"guided"`` (provenance tier, with links produced by a
    #: query predicate promoted).  The registry, and the extension point
    #: for further disciplines, is :data:`~repro.ltqp.links.QUEUE_POLICIES`.
    queue_policy: str = "fifo"
    #: The caller's subweb specification (DESIGN.md §4g; the CLI's
    #: ``--subweb`` reads one from a JSON file).
    #: Source selection itself is not switched on by it — every execution
    #: has a :class:`~repro.ltqp.guided.SourceSelector`, which prunes what
    #: the pods it meets declare irrelevant (their published source index)
    #: or out of scope (their published specs) *before* it costs a
    #: dereference, attributed in ``ExecutionStats.completeness()``; this
    #: adds the caller's own rules to those.  Pods that publish nothing
    #: are crawled in full, as in the paper.
    subweb: Optional[SubwebSpecification] = None


#: Pending quads at which a document feeds the pipeline itself; below
#: it (once a row is out) the feed waits for the loop's next turn.
FEED_BATCH_QUADS = 192


class _OriginBudgets:
    """Per-execution ledger of what each origin has cost so far.

    ``admit`` is the gate :meth:`QueryExecution._admit` asks before
    dereferencing: it returns the budget kind that refuses the
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
    """What a stack builder is told about the two policy-owning layers.

    Not something an engine holds: ``universe.engine(config=...)``,
    :class:`~repro.service.SharedResources` and
    :class:`~repro.service.ShardSpec` accept one and split it —
    ``network`` goes to the :class:`~repro.net.client.HttpClient` they
    construct (its one home), ``traversal`` to the engine::

        universe.engine(config=EngineConfig(traversal=TraversalPolicy(max_depth=2)))
    """

    traversal: TraversalPolicy = field(default_factory=TraversalPolicy)
    network: NetworkPolicy = field(default_factory=NetworkPolicy)


@dataclass(slots=True)
class ExecutionResult:
    """Everything one query execution produced — a plain value (it is
    what crosses the shard pipe); the machinery that produced it stays
    on the :class:`QueryExecution`."""

    query: Query
    results: list[TimedResult] = field(default_factory=list)
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    seeds: list[str] = field(default_factory=list)

    @property
    def bindings(self) -> list[Binding]:
        return [timed.binding for timed in self.results]

    def __len__(self) -> int:
        return len(self.results)


class QueryExecution:
    """Handle for one query execution — and the one home of its state.

    Created by :meth:`LinkTraversalEngine.query`; nothing runs until the
    handle is driven.  Supports four consumption styles::

        async for binding in execution: ...     # stream
        await execution.gather()                # run to completion
        execution.run_sync()                    # blocking gather
        await execution.cancel()                # stop traversal, keep stats

    ``stats``/``results``/``bindings`` are live views — they update while
    the execution streams and are final once ``done`` is true.

    Everything Fig. 1 draws once *per query* lives here and nowhere else:
    link ``queue``, growing ``source``, ``pipeline``, guided ``selector``,
    origin budgets, clock, ``tracer`` and resilience counters.  What is
    shared with other executions (the engine and its ``dereferencer``, the
    client under it) is handed this one's observers with each call (in
    :meth:`_visit`) and holds none.  Tear-down drops the machinery.  A
    ``live`` run keeps all of it, and the link edges of the documents it
    holds, until :meth:`close`: its :class:`~repro.ltqp.live.LiveQuery`
    re-opens the traversal with :meth:`refresh`.
    """

    def __init__(
        self,
        engine: "LinkTraversalEngine",
        query: Query,
        seeds: Optional[Iterable[str]] = None,
        tracer=None,
        traversal: Optional[TraversalPolicy] = None,
        live: bool = False,
    ) -> None:
        self._engine = engine
        #: What the run produces, as the plain value that outlives it; its
        #: fields are mirrored below and fill in while the execution streams.
        self.result = ExecutionResult(query=query)
        self.query = query
        self.stats: ExecutionStats = self.result.stats
        self.results: list[TimedResult] = self.result.results
        self.seeds: list[str] = self.result.seeds
        self.done = self.cancelled = False
        self._requested_seeds = seeds
        #: The :class:`~repro.obs.trace.Tracer` recording this execution (or None).
        self.tracer = tracer
        # The engine's extractors (what they remember of one execution is
        # on its context) and its traversal policy, unless this query
        # brought its own bounds.
        self._extractors = engine.extractors
        self._policy = traversal if traversal is not None else engine.traversal
        self._live = live
        # Every timestamp in a traced execution (stats, queue samples,
        # request log, spans) comes from the tracer's clock, so a seeded
        # TickClock makes the whole run a deterministic artifact.
        self._clock = tracer.clock if tracer is not None else time.monotonic
        #: Built by the first drive (``None`` until then).
        self.queue = self.source = self.pipeline = self.selector = None
        #: What the run has read, beyond the documents its ``source`` names:
        #: the fragment-free URLs its queue saw (dereferenced, queued,
        #: deferred or pruned at pop) and the source indexes it absorbed.
        self.seen = self.hints = None
        self._context = None
        self._query_span = self._traversal_span = None
        #: A live run's held documents: URL → (the link that fetched it, the
        #: URLs it links to, fragments and all).  A redirect holds its target
        #: under the link's URL too.  ``None`` for a one-shot run.
        self._documents: Optional[dict[str, tuple[Link, set[str]]]] = None
        # Set when a held document lost an out-link: the next quiescence re-marks.
        self._remark_due = False
        self._budgets = _OriginBudgets()
        self._resilience = ResilienceStats()
        # When the current traversal episode began — the run, or a refresh
        # re-opening it: ``max_duration`` bounds each episode.
        self._episode_started = 0.0
        # The feed ``_ingest`` left for the loop's next turn, and what it raised.
        self._feed: Optional[asyncio.Handle] = None
        self._feed_error: Optional[Exception] = None
        # The worker pool (see _take): links being dereferenced (the workers
        # not holding one are idle), and links popped while their origin had
        # no free slot.
        self._in_flight = 0
        self._workers: list[asyncio.Task] = []
        self._held: dict[str, deque] = {}
        self._idle = asyncio.Condition()  # workers: queue refilled / link done
        self._stop = asyncio.Event()  # bound hit, LIMIT satisfied
        # The traversal bound that stopped the run (``max-documents`` /
        # ``max-duration``), if one did: the links it left are its refusals.
        self._bound = ""
        # Why the last refresh link failed ("" when it did not).
        self._refresh_error = ""
        self._wake = asyncio.Event()  # consumer: new result / traversal over
        self._generator = self._stream()

    @property
    def bindings(self) -> list[Binding]:
        return self.result.bindings

    def __len__(self) -> int:
        return len(self.results)

    # -- consumption ---------------------------------------------------

    def __aiter__(self) -> "QueryExecution":
        return self

    async def __anext__(self) -> Binding:
        if self.done:
            raise StopAsyncIteration
        try:
            return await self._generator.__anext__()
        except StopAsyncIteration:
            self.done = True
            raise

    async def gather(self) -> "QueryExecution":
        """Drain the execution to completion; returns this handle."""
        async for _ in self:
            pass
        return self

    async def cancel(self) -> "QueryExecution":
        """Stop traversal and finalize statistics for what was produced."""
        if not self.done:
            self.done = self.cancelled = True
            await self._generator.aclose()
        return self

    def run_sync(self) -> "QueryExecution":
        """Blocking convenience: run the execution on a fresh event loop."""
        return asyncio.run(self.gather())

    # -- set-up ----------------------------------------------------------

    def _set_up(self) -> None:
        """Everything a run needs, in the order a traced run's clock reads are pinned to."""
        policy, stats, tracer = self._policy, self.stats, self.tracer
        query = self.query
        self._context = context = build_query_context(query.where)
        seeds, requested = self.seeds, self._requested_seeds
        seeds += requested if requested is not None else self._engine.seeds_from_query(query)
        # Source selection: the per-execution selector judges every link
        # by the caller's spec and by what pods publish, and the hint
        # extractor finds those source indexes and specs during traversal.
        self.selector = SourceSelector(spec=policy.subweb, where=query.where, seeds=seeds)
        self.hints = self.selector.hints
        self._extractors = [HintDiscoveryExtractor(self.selector), *self._extractors]
        stats.started_at = self._episode_started = self._clock()
        if tracer is not None:
            self._query_span = tracer.begin(
                "query", start=stats.started_at, form=query.form, seeds=len(seeds)
            )
            # Opened before the seeds enqueue so their stamps nest inside.
            self._traversal_span = tracer.begin("traversal", parent=self._query_span)

        policy_context = QueuePolicyContext(query=context)
        self.queue = queue = build_queue(queue_factory_for(policy.queue_policy), policy_context)
        queue.clock = self._clock
        self.seen = queue.seen
        for seed in seeds:
            if queue.push(Link(url=seed, via="seed")):
                stats.links_queued += 1
                stats.links_by_extractor["seed"] = stats.links_by_extractor.get("seed", 0) + 1
        self.pipeline = self._compile()
        # The source keeps what the plan can read and nothing else.
        self.source = GrowingTripleSource(self.pipeline.read_set)
        if self._live:
            self._documents = {}

    def _compile(self):
        """The query's incremental pipeline (and its ``plan`` span)."""
        # One compiler for every query form: ASK wraps in LIMIT 1 over an
        # empty projection, DESCRIBE streams CBD triples, CONSTRUCT streams
        # its template's triples per solution.
        # Non-monotonic operators become blocking physical nodes that flush
        # at quiescence via Pipeline.finalize.
        query, tracer, seed_iris = self.query, self.tracer, self._context.iris
        plan_started = self._clock() if tracer is not None else 0.0
        # Signed maintenance needs per-operator live state; either way each
        # BGP re-orders itself while the plan is open.
        pipeline = compile_query_pipeline(query, seed_iris=seed_iris, live=self._live)
        # "Streaming" now means the plan holds nothing back: no blocking
        # operators, so every result can reach the caller mid-traversal.
        self.stats.streaming = not pipeline.blocking_nodes
        if tracer is not None:
            tracer.add(
                "plan",
                plan_started,
                self._clock(),
                parent=self._query_span,
                streaming=self.stats.streaming,
                blocking=len(pipeline.blocking_nodes),
            )
            pipeline.enable_tracing(tracer, self._query_span)
        return pipeline

    # -- results ---------------------------------------------------------

    def _emit(self, binding: Binding) -> None:
        # Single limit check against the pre-increment count decides both
        # acceptance and traversal stop: the binding that lands exactly on
        # the limit is counted *and* triggers the stop — it is never
        # silently dropped, and anything past the limit is ignored.
        stats = self.stats
        limit = self._policy.max_results
        count = stats.result_count
        if limit and count >= limit:
            return
        now = self._clock()
        if stats.first_result_at is None:
            stats.first_result_at = now
            if self.tracer is not None:
                # Same `now` as the stats field, so the trace-derived
                # time-to-first-result reconciles exactly.
                self.tracer.instant("first-result", parent=self._query_span, ts=now)
        stats.result_count = count + 1
        self.results.append(TimedResult(binding=binding, elapsed=now - stats.started_at))
        self._wake.set()
        if limit and count + 1 >= limit:
            self._stop.set()

    def _flush(self) -> None:
        if not self.source.dataset.pending:
            return
        for binding in self.pipeline.advance(self.source.dataset):
            self._emit(binding)
        if self.pipeline.complete:
            self._stop.set()

    def _scheduled_flush(self) -> None:
        self._feed = None
        try:
            self._flush()
        except Exception as error:  # fails the execution, as an _ingest feed does
            self._feed_error = error
            self._wake.set()

    def _ingest(self, result: DereferenceResult, held: bool) -> Optional[int]:
        """Admit one dereferenced document into the source and pipeline:
        how many of its quads the plan reads and the source therefore
        kept, or ``None`` when the hard document bound turns it away.  A
        ``held`` document (a refresh) is no new document: it is diffed in,
        counted nowhere, and the refresh feeds its change."""
        stats, source = self.stats, self.source
        # Hard document bound: concurrent workers may all pass the pre-fetch
        # check, but only the first max_documents results are admitted.
        doc_limit = self._policy.max_documents
        if doc_limit and not held and stats.documents_fetched >= doc_limit:
            self._halt("max-documents")
            return None
        # Absorb declarations (hints, specs, admitted origins) *before* the
        # pipeline and link extraction see the document, so its own links are
        # judged with its knowledge already in force; the parked links whose
        # wait it ends go back into the queue.
        for released in self.selector.absorb_document(result.url, result.document):
            self.queue.requeue(released)
        kept = source.put_document(result.url, result.document)
        if held:
            return kept
        stats.triples_discovered = source.triples_discovered
        stats.triples_stored += kept
        stats.documents_fetched += 1
        if result.from_store:
            stats.documents_from_store += 1
        if kept and not self.done:  # after quiescence, a refresh feeds its change
            # Feed per document until the first result (TTFR protection) and
            # once a batch is full; otherwise once, before the loop next waits
            # — the documents that land until then coalesce, and a row is
            # never held while the engine waits on the network.  A document
            # that kept nothing costs no pipeline pass either way.
            if stats.result_count == 0 or source.dataset.pending >= FEED_BATCH_QUADS:
                self._flush()
            elif self._feed is None:
                self._feed = asyncio.get_running_loop().call_soon(self._scheduled_flush)
        return kept

    # -- the run -----------------------------------------------------------

    async def _stream(self) -> AsyncIterator[Binding]:
        """Set-up → worker loop → quiescence flush → tear-down; yields as results land."""
        self._set_up()
        traversal = asyncio.create_task(self._traverse())
        traversal.add_done_callback(lambda _task: self._wake.set())
        # Delivery is a cursor over the list ``_emit`` appends to, plus one
        # wake-up (a new result, or the traversal's end).
        results = self.results
        delivered = 0
        try:
            while True:
                while delivered < len(results):
                    delivered += 1
                    yield results[delivered - 1].binding
                if self._feed_error is not None:
                    raise self._feed_error
                if traversal.done():
                    break
                self._wake.clear()
                await self._wake.wait()
            await traversal  # re-raise worker exceptions
            if self.tracer is not None:
                self.tracer.end(self._traversal_span)
            # Quiescence flush: feed whatever is still pending, then release
            # everything the blocking operators held back.
            for binding in self.pipeline.finalize(self.source.dataset):
                self._emit(binding)
            for timed in results[delivered:]:
                yield timed.binding
        finally:
            await self._tear_down(traversal)

    async def _reap(self, traversal: asyncio.Task) -> None:
        # CancelledError is a BaseException (not an Exception) on modern
        # Python, so it needs its own clause; the expected outcome of
        # cancelling is the task raising it.  Anything else is a real
        # teardown bug — shutdown must not fail the query, but the error
        # is recorded in the stats instead of being swallowed silently.
        if traversal.done():
            return
        traversal.cancel()
        try:
            await traversal
        except asyncio.CancelledError:
            pass
        except Exception as error:
            self.stats.note_shutdown_error("traversal", error)

    async def _tear_down(self, traversal: asyncio.Task) -> None:
        stats, tracer = self.stats, self.tracer
        if self._feed is not None:  # it must not run against a dropped pipeline
            self._feed.cancel()
            self._feed = None
        await self._reap(traversal)
        self._quiesce()
        stats.finished_at = self._clock()
        stats.queue_samples = self.queue.samples
        stats.links_queued = self.queue.pushed_total
        stats.replans = self.pipeline.replans
        stats.http_retries = self._resilience.retries
        stats.http_timeouts = self._resilience.timeouts
        stats.breaker_fast_fails = self._resilience.breaker_fast_fails
        stats.origins_tripped = dict(self._resilience.trips_by_origin)
        if tracer is not None:
            # Idempotent for the happy path; the cancellation path
            # closes traversal (and any interrupted descendants) here.
            tracer.end(self._traversal_span, end=stats.finished_at)
            tracer.end(self._query_span, end=stats.finished_at, results=stats.result_count)
            tracer.close_open_spans(end=stats.finished_at)
        if not self._live:  # a LiveQuery closes its own
            self.close()

    def _quiesce(self) -> None:
        """What every quiescence settles: the links a bound left are its
        refusals, the links still waiting for an origin are pruned, and —
        when a held document lost an out-link — what the seeds still reach."""
        stats = self.stats
        if self._bound:
            # What the bound left unfetched: queued, held for a slot, or
            # parked for a source index.  Attribution only, like depth.
            held = [link for links in self._held.values() for _, link in links]
            for link in [*self.queue.drain(), *held, *self.selector.release_unjudged()]:
                stats.note_refusal(self._bound, link.origin, document=False)
            self._bound = ""
        self._held.clear()
        self._workers.clear()
        # Links still deferred at quiescence: their origins were never
        # declared by any traversed document — pruned.
        for parked in self.selector.drain_deferred():
            stats.note_pruned("origin:undeclared", parked.origin)
        stats.declarations_rejected = self.selector.declarations_rejected
        if self._remark_due:
            self._remark()

    def close(self) -> None:
        """Drop the machinery.  Finished handles outlive the run (a service
        registry keeps a window of them); the traversal machinery, the store,
        the operator state and the read scope must not.  A one-shot run
        closes at tear-down, a live one when its LiveQuery does."""
        self.queue = self.selector = self._extractors = self._documents = None
        self.source = self.pipeline = self.seen = self.hints = None

    # -- live refresh ------------------------------------------------------

    async def refresh(self, url: str) -> tuple[list, str]:
        """Re-open a settled live traversal at ``url`` and run it to
        quiescence again: ``(the signed result changes, why the refresh
        failed or "")``.

        A refresh is a link: it goes through the one path every link takes
        (:meth:`_visit`), with a conditional request that bypasses
        HTTP-cache freshness.  A held document bypasses the pop-time gates,
        counts as no new document and is diffed in; anything else is an
        ordinary link.  A 404/410 puts the document gone.  The links it
        newly extracts meet every gate, and when it (or a gone document)
        dropped an out-link, the held documents the seeds no longer reach
        go too.  The changes it leaves in the dataset feed the pipeline
        once, at the end.  ``max_duration`` bounds the refresh from its own
        start, as it bounded the run from the run's.
        """
        tracer, documents, dataset = self.tracer, self._documents, self.source.dataset
        span = tracer.begin("refresh", url=url) if tracer is not None else None
        unseen = url not in self.seen
        self._episode_started = self._clock()
        held = documents.get(url)
        link = held[0] if held is not None else Link(url=url)
        self._refresh_error = ""
        self._stop.clear()
        self._wake.clear()  # no consumer waits for rows after quiescence
        self.queue.requeue(
            Link(url, link.parent_url, link.depth, "refresh", provenance=link.provenance)
        )
        if span is not None:  # its dereferences and maintenance batches nest under it
            self._traversal_span = span
            self.pipeline.enable_tracing(tracer, span)
        try:
            # The refresh link first, then the pool for whatever it queued.
            await self._process_link(self.queue.pop(), 1)
            if not self.queue.empty:
                await self._traverse()
            if unseen and url not in documents:  # it widened the read scope by nothing
                self.queue.forget((url,))
            self._quiesce()
            runs, error = dataset.take_changes(), self._refresh_error
            changes = self.pipeline.feed(runs, dataset)
            if span is not None:
                added = sum(len(quads) for sign, quads in runs if sign > 0)
                removed = sum(len(quads) for sign, quads in runs if sign < 0)
                span.args.update(
                    outcome="failed" if error else "changed" if runs else "unchanged",
                    added=added,
                    removed=removed,
                    changes=len(changes),
                    **({"error": error} if error else {}),
                )
            return changes, error
        finally:
            if span is not None:
                tracer.end(span)

    # -- traversal ---------------------------------------------------------

    async def _traverse(self) -> None:
        """The dereferencer pool: long-lived workers, one to start with and
        more as :meth:`_take` finds them all busy; over when all are."""
        workers = self._workers
        self._spawn()
        try:
            while running := [task for task in workers if not task.done()]:
                done, _ = await asyncio.wait(running, return_when=asyncio.FIRST_EXCEPTION)
                for task in done:
                    task.result()  # re-raise a worker's exception
        finally:
            for task in workers:
                if not task.done():
                    task.cancel()

    def _spawn(self) -> None:
        """One more worker; it counts as idle until it takes a link."""
        self._workers.append(asyncio.create_task(self._worker(len(self._workers) + 1)))

    async def _worker(self, track: int) -> None:
        idle = self._idle
        while True:
            async with idle:
                link = await self._take()
                if link is None:  # quiescent, or told to stop
                    idle.notify_all()
                    return
            try:
                await self._process_link(link, track)
            finally:
                async with idle:
                    self._in_flight -= 1
                    idle.notify_all()
            if self._wake.is_set():
                # Rows are waiting for the consumer: hand it the loop before the
                # next link.  With nothing else to await (no latency, warm
                # caches) it would otherwise see row 1 when the crawl ends.
                await asyncio.sleep(0)

    async def _take(self) -> Optional[Link]:
        """The next link for the calling worker (it holds ``_idle``), or
        ``None`` once traversal is over.  Waits while nothing can be
        dispatched and links are in flight; about to quiesce, lets the links
        still waiting for a source index that never arrived go ahead
        unjudged — the full crawl.  Grows the pool when it hands out a link
        with more dispatchable work behind it and no idle worker left."""
        queue, stop = self.queue, self._stop
        while not stop.is_set():
            link = self._dispatchable()
            if link is None and not self._in_flight:
                if self._held:
                    # Every slot of the held origins is another execution's
                    # (this one has nothing in flight): wait in the client.
                    link = self._unhold(self._held_origin(free=False))
                else:
                    released = self.selector.release_unjudged()
                    if not released:
                        return None
                    for parked in released:
                        queue.requeue(parked)
                    continue
            if link is None:
                await self._idle.wait()
                continue
            self._in_flight += 1
            workers, cap = len(self._workers), self._policy.worker_count
            if workers == self._in_flight and (not cap or workers < cap) and (
                not queue.empty or self._held_origin() is not None
            ):
                self._spawn()
            return link
        return None

    def _dispatchable(self) -> Optional[Link]:
        """The oldest held link whose origin has a free connection slot,
        else the best queued link whose origin has one.  A link popped for a
        full origin is held, per origin in pop order; slots and the cap are
        read from the client (their one home), which counts every
        execution's requests."""
        origin = self._held_origin()
        if origin is not None:
            return self._unhold(origin)
        queue, client, held = self.queue, self._engine.client, self._held
        slots = client.origin_slots
        while not queue.empty:
            link = queue.pop()
            if client.in_flight(link.origin) < slots:  # so none of its links is held
                return link
            held.setdefault(link.origin, deque()).append((queue.popped_total, link))
        return None

    def _held_origin(self, free: bool = True) -> Optional[str]:
        """Of the origins with held links (and, if ``free``, a free slot),
        the one whose next held link was popped first."""
        client, held = self._engine.client, self._held
        origins = [o for o in held if not free or client.in_flight(o) < client.origin_slots]
        return min(origins, key=lambda origin: held[origin][0][0], default=None)

    def _unhold(self, origin: str) -> Link:
        held = self._held[origin]
        link = held.popleft()[1]
        if not held:
            del self._held[origin]
        return link

    async def _process_link(self, link: Link, track: int) -> None:
        """One popped link: admit → dereference → ingest → extract, and the
        single outcome of that stamped once on its ``dereference`` span."""
        policy, stats, tracer = self._policy, self.stats, self.tracer
        refresh = link.via == "refresh"
        # A held document's refresh meets no pop-time gate: it is no new document.
        held = refresh and link.url in self._documents
        bound = ""
        if held:
            pass
        elif policy.max_documents and stats.documents_fetched >= policy.max_documents:
            bound = "max-documents"
        elif policy.max_duration and self._clock() - self._episode_started > policy.max_duration:
            bound = "max-duration"
        if bound:
            stats.note_refusal(bound, link.origin, document=False)
            self._halt(bound)
            return
        span = self._open_span(link, track) if tracer is not None else None
        try:
            outcome, detail = await self._visit(link, span, held)
            if refresh:
                self._refresh_error = detail.get("error") or detail.get("refused") or ""
            if span is not None:
                span.args["outcome"] = outcome
                span.args.update(detail)
        finally:
            if span is not None:
                tracer.end(span)

    def _halt(self, bound: str) -> None:
        """Stop the traversal at a bound; the first bound hit names it."""
        self._bound = self._bound or bound
        self._stop.set()

    def _open_span(self, link: Link, track: int):
        tracer = self.tracer
        popped_at = self._clock()
        enqueued_at = link.enqueued_at or popped_at
        # The span covers the document's whole lifetime in the system,
        # queue wait included — matching the paper's waterfall bars.
        span = tracer.begin(
            "dereference",
            parent=self._traversal_span,
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
                span.args["via_predicate"] = provenance.predicate
            if provenance.pattern:
                span.args["via_pattern"] = provenance.pattern
            if provenance.for_class:
                span.args["via_class"] = provenance.for_class
        tracer.add("queue-wait", enqueued_at, popped_at, parent=span)
        return span

    async def _visit(self, link: Link, span, held: bool) -> tuple[str, dict]:
        """What became of ``link``: ``(outcome, span detail)``, stats already noted."""
        policy, stats = self._policy, self.stats
        origin = link.origin  # stamped once, by the queue
        # The gates run after span creation, so every prune and refusal
        # leaves a ``dereference`` span with its outcome for the
        # trace/stats reconciliation to count.
        turned_away = None if held else self._admit(link, origin)
        if turned_away is not None:
            return turned_away
        # The one place this execution's observers meet the shared layers:
        # tracer, resilience counters and parse cap travel with the call down
        # to ``HttpClient.fetch`` and are held by nobody on the way, so
        # executions sharing a service never see each other's spans or retries.
        result = await self._engine.dereferencer.dereference(
            link.url,
            parent_url=link.parent_url,
            trace_parent=span,
            tracer=self.tracer,
            revalidate=link.via == "refresh",
            provenance=link.provenance,
            resilience=self._resilience,
            max_parse_bytes=policy.max_parse_bytes,
        )
        self._budgets.charge_bytes(origin, result.bytes_fetched)
        if result.refused:
            # Per-document cap (client read abort or parse cap): a deliberate,
            # attributed, never-retried refusal — not a network failure.
            stats.note_refusal(result.refused, origin)
            return "refused", {"refused": result.refused, "error": result.error}
        if not result.ok:
            if link.via == "refresh" and result.status in (404, 410):
                self._hold(link, result.url, None)
                return "gone", {}
            return self._give_up(link, result), {"error": result.error}
        kept = self._ingest(result, held)
        if kept is None:
            # Fetched by a concurrent worker while the document bound
            # filled: neither counted nor link-extracted.
            return "over-bound", {}
        detail = {"triples": len(result.document), "kept": kept}
        if result.from_store:
            detail["from_store"] = True
        links: set[str] = set()
        if policy.max_depth and link.depth >= policy.max_depth:
            # Attribution only (``document=False``): the document itself was
            # taken, but its out-links are suppressed at the depth budget — the
            # completeness report says so without marking the run incomplete.
            stats.note_refusal("depth", origin, document=False)
        else:
            links = self._extract(link, result, span)
        if self._documents is not None:
            self._hold(link, result.url, links)
        return ("refreshed" if held else "ok"), detail

    def _admit(self, link: Link, origin: str) -> Optional[tuple[str, dict]]:
        """Source selection, then the origin budgets: the outcome that
        turns ``link`` away, or ``None`` to dereference it."""
        selector, stats = self.selector, self.stats
        # Source selection (pop time: what a link waits for depends on the
        # knowledge absorbed so far).  Before the origin-budget gate — a
        # pruned link costs neither a request nor budget.
        decision = selector.check(link)
        if decision.action == "prune":
            stats.note_pruned(decision.rule, origin)
            return "pruned", {"pruned": decision.rule}
        if decision.action == "defer":
            # Parked with the selector: re-queued the moment a traversed
            # document ends its wait (declares this link's origin, turns out
            # to be the source index it is to be judged by), or — for an
            # origin never declared — counted as pruned at quiescence.
            selector.defer(link)
            return "deferred", {"pruned": decision.rule}
        refusal = self._budgets.admit(origin, self._policy)
        if refusal:
            stats.note_refusal(refusal, origin)
            return "refused", {"refused": refusal}
        return None

    def _give_up(self, link: Link, result: DereferenceResult) -> str:
        """A failed dereference: ``failed``, or — when retryable —
        ``retried`` (back through the queue) / ``abandoned``."""
        stats = self.stats
        stats.documents_failed += 1
        if not result.retryable:
            return "failed"
        # Transient trouble that survived client-level retries (e.g. a
        # tripped breaker): give the link another pass through the queue
        # instead of discarding the document.  ``replace`` keeps everything but
        # the attempt count — provenance and therefore queue rank survive.
        if link.attempts < self._engine.client.policy.max_link_requeues:
            self.queue.requeue(dataclasses.replace(link, attempts=link.attempts + 1))
            stats.documents_retried += 1
            return "retried"
        stats.documents_abandoned += 1
        return "abandoned"

    def _extract(self, link: Link, result: DereferenceResult, span) -> Optional[set[str]]:
        """Run every extractor over the document and queue what is new; on a
        live run, return the URLs it links to, seen or not."""
        queue, selector, stats, tracer = self.queue, self.selector, self.stats, self.tracer
        extract_started = self._clock() if tracer is not None else 0.0
        links_pushed = links_pruned = 0
        has_seen = queue.has_seen
        edges = set() if self._documents is not None else None
        # Extractors may intern one LinkProvenance for many links; the
        # parent-depth-stamped variant is cached alongside.
        stamped: dict = {}
        for extractor in self._extractors:
            for url, provenance in extractor.discover(result.url, result.document, self._context):
                if edges is not None:
                    edges.add(url)
                # Seen first: most candidates are URLs the queue already
                # knows, and a duplicate is the dedup's business alone — it
                # builds no Link, stamps no provenance, meets no selector.
                if has_seen(url) or not url.startswith(("http://", "https://")):
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
                # link a later document would have justified.
                decision = selector.check_static(candidate)
                if decision.action == "prune":
                    links_pruned += 1
                    stats.note_pruned(decision.rule, origin_of(url))
                    continue
                if queue.push(candidate):
                    links_pushed += 1
                    stats.links_by_extractor[via] = stats.links_by_extractor.get(via, 0) + 1
        if tracer is not None:
            tracer.add(
                "extract",
                extract_started,
                self._clock(),
                parent=span,
                links=links_pushed,
                **({"pruned": links_pruned} if links_pruned else {}),
            )
        return edges

    # -- what a live run holds ---------------------------------------------

    def _hold(self, link: Link, url: str, edges: Optional[set[str]]) -> None:
        """Record that the live run holds ``url`` (fetched by ``link``) and
        what it links to — ``None``: it is gone, and so is its graph.  A
        document that lost an out-link makes the next quiescence re-mark."""
        documents = self._documents
        previous = documents.pop(url, None)
        if edges is None:
            self.source.put_document(url, None)
        else:
            documents[url] = (link, edges)
            if link.url != url:  # a redirect: the queue knows the target by the link's URL
                documents[link.url] = (link, {url})
        if previous is not None and not previous[1] <= (edges or set()):
            self._remark_due = True

    def _remark(self) -> None:
        """Mark from the seeds over the held link edges; every held document
        left unmarked is gone, and so is every URL the queue saw that no held
        document links to any more (a later link to it is new again)."""
        self._remark_due = False
        documents = self._documents
        marked: set[str] = set()
        stack = [seed.partition("#")[0] for seed in self.seeds]
        while stack:
            url = stack.pop()
            if url not in marked:
                marked.add(url)
                entry = documents.get(url)
                if entry is not None:
                    stack.extend(target.partition("#")[0] for target in entry[1])
        for url in [url for url in documents if url not in marked]:
            del documents[url]
            self.source.put_document(url, None)
        self.queue.forget(url for url in list(self.seen) if url not in marked)


class LinkTraversalEngine:
    """Executes SPARQL queries over the Web by link traversal.

    The top of a stack built bottom-up: it is handed the one
    :class:`~repro.ltqp.dereference.Dereferencer` every execution fetches
    through (which owns leniency, auth headers and any document store, over
    the client that runs the network policy) and owns what is its own —
    the :class:`TraversalPolicy` and the extractor stack.  Everything one
    run needs beyond that is on its :class:`QueryExecution`.
    """

    def __init__(
        self,
        dereferencer: Dereferencer,
        extractors: Optional[list[LinkExtractor]] = None,
        traversal: Optional[TraversalPolicy] = None,
    ) -> None:
        self.dereferencer = dereferencer
        self._extractors = extractors if extractors is not None else default_extractors()
        self.traversal = traversal if traversal is not None else TraversalPolicy()

    @property
    def client(self) -> HttpClient:
        """The client under the dereferencer (a view, not a second home)."""
        return self.dereferencer.client

    @property
    def extractors(self) -> list[LinkExtractor]:
        return list(self._extractors)

    def query(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        tracer=None,
        traversal: Optional[TraversalPolicy] = None,
        live: bool = False,
    ) -> QueryExecution:
        """Begin a query execution and return its :class:`QueryExecution`.

        The single entry point: iterate the handle to stream, ``await
        .gather()`` (or ``.run_sync()``) to collect everything, ``await
        .cancel()`` to stop early — ``.stats`` is live throughout.

        Pass a :class:`~repro.obs.trace.Tracer` to record the execution's
        span tree; without one, no instrumentation code runs (tracing is
        strictly opt-in).  It belongs to this execution alone: the shared
        client is handed it per fetch, so a concurrent query's requests
        never land in it.  The counts every run keeps are on ``.stats``.

        ``traversal`` replaces the engine's policy for this execution only —
        the :class:`~repro.service.QueryService` derives one from the
        engine's when a caller gives a query its own link/time budget.

        ``live=True`` compiles the pipeline for *standing* execution: the
        run proceeds to true quiescence (no LIMIT short-circuit), every
        operator retains signed-maintenance state, and after completion
        ``execution.pipeline`` / ``.source`` stay
        usable so a :class:`~repro.ltqp.live.LiveQuery` can keep the
        result multiset current as documents change.  Live or not, each BGP
        re-orders itself from its scans' counts until quiescence
        (``stats.replans`` counts the re-orders).
        """
        return QueryExecution(
            self,
            self._parse(query),
            seeds,
            tracer=tracer,
            traversal=traversal,
            live=live,
        )

    @staticmethod
    def _parse(query: TypingUnion[str, Query]) -> Query:
        return query if isinstance(query, Query) else parse_query(query)

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
