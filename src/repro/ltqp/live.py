"""Standing (live) query executions: the paper's demo, kept *current*.

The demo scenario ends where real Solid apps begin: the result set a
traversal produced is stale the moment a pod changes.  A
:class:`LiveQuery` runs one ordinary link-traversal execution to
quiescence — compiled ``live`` so every operator retains signed
maintenance state — and keeps that
:class:`~repro.ltqp.engine.QueryExecution` open: its queue, selector,
extractors, growing source and pipeline (nothing is copied out of it).

* :meth:`refresh` is a link: the execution pushes one revalidating link
  into its own queue and re-opens its traversal until quiescence, so the
  refetch, the diff of the held document's graph, the links the new
  version adds (under the same selector, spec and policies) and, when a
  link went, the documents the seeds no longer reach all happen on the
  one path every link takes; the signed changes it leaves in the store
  then feed the pipeline once (:meth:`~repro.ltqp.pipeline.Pipeline.feed`).
  A standing query therefore answers what a fresh run from the same
  seeds answers, whether a write grows its subweb or shrinks it;
* :meth:`notify` buffers change notifications (e.g. from a
  :class:`~repro.solid.server.SolidServer` change listener) that
  :meth:`drain` then turns into refreshes — for the documents
  :meth:`reads` admits, the subweb the traversal reached, and no other;
* every change is published into the query's :class:`ChangeFeed` — the
  one ordered, replayable history (initial results as additions, then
  every maintenance event) that queues, listeners and
  :meth:`~ChangeFeed.current_results` all read; replaying it
  reconstructs the exact current result multiset.  A sharded front-end
  feeds the same class from decoded wire events, so a subscriber cannot
  tell where its standing query runs.

Maintenance cost is O(changed triples × affected operators), not
O(re-execution): the whole point of the signed-delta machinery.  A
service holding many standing queries pays it once per write, not once
per subscription: a write reaches only the queries whose :meth:`reads`
admits it, each check a few dictionary probes per path segment.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable, Optional, Union as TypingUnion

from ..rdf.terms import NamedNode
from ..sparql.algebra import Query
from ..sparql.bindings import Binding
from .engine import LinkTraversalEngine, QueryExecution, TraversalPolicy

__all__ = ["ResultChange", "ChangeFeed", "LiveQuery"]


@dataclass(slots=True, frozen=True)
class ResultChange:
    """One signed adjustment to a standing query's result multiset.

    ``delta`` is a non-zero signed multiplicity: ``+n`` adds *n*
    occurrences of ``binding``, ``-n`` removes *n*.  ``seq`` orders the
    event stream (initial results included); ``url`` names the refreshed
    document that caused the change (empty for initial results).
    """

    seq: int
    binding: Binding
    delta: int
    url: str = ""


class ChangeFeed:
    """One standing query's signed changes: history, replay and fan-out.

    Whoever produces the events — a :class:`LiveQuery` maintaining its
    pipeline, or a shard reader decoding them off the wire — calls
    :meth:`publish`; consumers replay :attr:`events`, take a queue from
    :meth:`subscribe`, or register a synchronous listener.
    """

    def __init__(self) -> None:
        #: Full ordered event history (initial results first) — the
        #: replay source for late subscribers.
        self.events: list[ResultChange] = []
        self._subscribers: list[asyncio.Queue] = []
        self._listeners: list = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def current_results(self) -> dict[Binding, int]:
        """The maintained result multiset (replay of the event history)."""
        multiset: dict[Binding, int] = {}
        for event in self.events:
            total = multiset.get(event.binding, 0) + event.delta
            if total:
                multiset[event.binding] = total
            else:
                multiset.pop(event.binding, None)
        return multiset

    def publish(self, events: list[ResultChange]) -> None:
        """Append one batch to the history and fan it out."""
        if not events:
            return
        self.events.extend(events)
        for queue in self._subscribers:
            for event in events:
                queue.put_nowait(event)
        for listener in self._listeners:
            listener(events)

    def close(self) -> None:
        """End the stream: queues and listeners see ``None``, once."""
        if self._closed:
            return
        self._closed = True
        for queue in self._subscribers:
            queue.put_nowait(None)
        self._subscribers.clear()
        for listener in self._listeners:
            listener(None)
        self._listeners.clear()

    def subscribe(self) -> asyncio.Queue:
        """An event queue carrying the full change history.

        The queue is pre-loaded with every past :class:`ResultChange`
        (initial results included) and then receives each future event;
        ``None`` marks end-of-stream after :meth:`close`.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self._closed:
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def add_listener(self, callback) -> None:
        """Register a *synchronous* event-batch callback.

        Called inline from :meth:`publish` with each new batch of
        :class:`ResultChange` events, and once with ``None`` on
        :meth:`close`.  Unlike queues, listeners observe events in strict
        publish order relative to the caller — the sharded worker uses
        this to put events on the wire before acking the edit that
        caused them.
        """
        self._listeners.append(callback)


class LiveQuery(ChangeFeed):
    """One standing query: an execution that stays open past quiescence.

    Its own :class:`ChangeFeed`: :meth:`close` ends the standing query,
    subscribers see end-of-stream and the execution drops its machinery.

    Usage::

        live = LiveQuery(engine, "SELECT ...", seeds=[...])
        initial = await live.start()          # list[Binding], traversal done
        events = await live.refresh(url)      # re-open the traversal at one document
        queue = live.subscribe()              # replayed + future events
        live.close()

    Every query form is supported: CONSTRUCT and DESCRIBE triples come
    and go as ``?subject ?predicate ?object`` changes.
    """

    def __init__(
        self,
        engine: LinkTraversalEngine,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        tracer=None,
        traversal: Optional[TraversalPolicy] = None,
    ) -> None:
        super().__init__()
        self._execution: QueryExecution = engine.query(
            query,
            seeds=seeds,
            tracer=tracer,
            traversal=traversal,
            live=True,
        )
        self._seq = 0
        self._started = False
        #: Documents to refresh on the next :meth:`drain`.
        self._pending: dict[str, None] = {}
        #: Refreshes whose dereference failed (kept for observability).
        self.failed_refreshes: dict[str, str] = {}
        # One refresh at a time: each re-opens the one traversal.
        self._refreshing = asyncio.Lock()
        # The feed's end of stream is the execution's: it drops its machinery.
        self.add_listener(self._end)

    # -- live views ----------------------------------------------------

    @property
    def execution(self) -> QueryExecution:
        return self._execution

    @property
    def query(self) -> Query:
        return self._execution.query

    @property
    def started(self) -> bool:
        return self._started

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> list[Binding]:
        """Run the underlying execution to quiescence; returns the
        initial result bindings (also published as ``+1`` events)."""
        if self._started:
            raise RuntimeError("LiveQuery.start() called twice")
        self._started = True
        await self._execution.gather()
        bindings = self._execution.bindings
        self._publish([(binding, 1) for binding in bindings], url="")
        return bindings

    # -- change intake -------------------------------------------------

    def reads(self, url: str) -> bool:
        """Whether a write to ``url`` is this standing query's business.

        A fresh run from the same seeds reaches a document only through
        one the query already holds, and a write to *that* document
        reaches the query itself; so a written document is admitted when
        its (fragment-free) URL

        * was seen by the traversal's link queue — dereferenced, queued,
          deferred or pruned at pop — or names a graph in the source;
        * lies under a container the traversal dereferenced (how pods
          that publish no source index are read); or
        * lies in a pod whose source index the traversal absorbed.

        A few dictionary probes per path segment, however many documents
        the query holds.  Nothing is admitted before :meth:`start`.
        """
        return bool(self._refreshes(url.split("#", 1)[0]))

    def _refreshes(self, url: str) -> list[str]:
        """What a write to ``url`` makes this query refresh (empty: the
        write is not its business, see :meth:`reads`).  Under the first
        rule, ``url`` itself.  Under the other two, the held documents those
        rules name — the held containers above it and its pod's source index
        — whose re-extracted links reach ``url`` only if a fresh run's would."""
        execution = self._execution
        seen = execution.seen
        if seen is None:
            return []
        if url in seen:
            return [url]
        graphs = execution.source.dataset
        # The document itself, then each ancestor container, innermost
        # first.  The probe mints nothing: a prefix no live term names
        # cannot name a held graph.
        held: list[str] = []
        cut = len(url)
        while True:
            name = NamedNode.existing(url[:cut])
            if name is not None and graphs.has_graph(name):
                if cut == len(url):
                    return [url]
                held.append(url[:cut])
            cut = url.rfind("/", 0, cut - 1) + 1
            if cut <= len("https://"):
                break
        index = execution.hints.source_for(url)
        return held if index is None else [*held, index]

    def notify(self, url: str) -> bool:
        """Flag what a write to ``url`` makes this query refresh, if
        :meth:`reads` admits it; the next :meth:`drain` refreshes it.
        Returns whether anything was flagged."""
        if self._closed:
            return False
        refreshes = self._refreshes(url.split("#", 1)[0])
        for target in refreshes:
            self._pending[target] = None
        return bool(refreshes)

    @property
    def pending(self) -> list[str]:
        return list(self._pending)

    async def drain(self) -> list[ResultChange]:
        """Refresh every flagged document, in notification order."""
        events: list[ResultChange] = []
        while self._pending:
            url = next(iter(self._pending))
            del self._pending[url]
            events.extend(await self.refresh(url))
        return events

    async def refresh(self, url: str) -> list[ResultChange]:
        """Re-open the traversal at one document and publish the signed
        result changes (:meth:`QueryExecution.refresh`).

        Forces a conditional request: an unchanged document costs a 304
        and produces no events.  A document that has gone away (404/410)
        is retracted; any other failure leaves the standing results
        untouched and is kept in :attr:`failed_refreshes`.
        """
        if not self._started:
            raise RuntimeError("LiveQuery.refresh() before start()")
        url = url.split("#", 1)[0]
        async with self._refreshing:
            if self._closed:
                return []
            try:
                changes, error = await self._execution.refresh(url)
            finally:
                if self._closed:  # closed while the traversal ran
                    self._execution.close()
        if error:
            self.failed_refreshes[url] = error
        return self._publish(changes, url=url)

    def _end(self, events: Optional[list[ResultChange]]) -> None:
        if events is None and not self._refreshing.locked():  # else the refresh closes it
            self._execution.close()

    def _publish(
        self, changes: list[tuple[Binding, int]], url: str
    ) -> list[ResultChange]:
        events: list[ResultChange] = []
        for binding, delta in changes:
            event = ResultChange(seq=self._seq, binding=binding, delta=delta, url=url)
            self._seq += 1
            events.append(event)
        self.publish(events)
        return events
