"""The long-lived multi-query service on top of the LTQP engine.

One :class:`QueryService` executes many queries — concurrently, with
admission control — on the engine of one set of
:class:`~repro.service.resources.SharedResources` (which built the whole
stack; the service configures none of it):

* **Admission control** — at most ``max_concurrent`` queries traverse at
  once; up to ``max_queued`` more wait their turn; past that,
  :meth:`submit` raises :class:`ServiceOverloadedError` (the SPARQL
  front-end turns it into a 503).
* **Registry** — every accepted query gets an id and a
  :class:`ServiceQuery` handle with live status
  (``queued → running → done | failed | cancelled``), timings, and
  cancellation; in-flight handles plus the :data:`FINISHED_WINDOW` most
  recently finished ones are retained, so a long-lived service does not
  pin every answer it ever gave.
* **Budgets** — a per-query link (``max_documents``) or time
  (``max_duration``) budget replaces that one value of the engine's
  :class:`~repro.ltqp.engine.TraversalPolicy` for that execution; what
  the caller does not give stays the engine's.
* **Isolation** — every execution gets its own query
  context (where the engine's stateless extractors keep what they learn during one execution),
  link queue, triple source, pipeline, and stats; only the client, caches, and
  parsed-document store are shared — which is exactly what makes warm
  queries fast without letting one query's state leak into another's.
  That covers the books too: a query's tracer is handed to the shared
  client per fetch (it holds none), and retries, timeouts
  and breaker trips are counted into the execution that caused them, so
  ``completeness()`` describes that query and no neighbour.

The handle (:class:`ServiceQuery`), the standing-query handle
(:class:`ServiceSubscription`) and the registry / counter / status body
(:class:`_ServiceCore`) are the *one* service surface: the sharded
front-end (:mod:`repro.service.shards`) answers with the same three and
differs only in where a query executes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from collections import deque
from typing import Awaitable, Callable, Iterable, NoReturn, Optional, Union as TypingUnion

from urllib.parse import urlsplit

from ..ltqp.engine import (
    ExecutionResult,
    LinkTraversalEngine,
    QueryExecution,
    TraversalPolicy,
)
from ..ltqp.live import ChangeFeed, LiveQuery, ResultChange
from ..net.message import Request
from ..sparql.algebra import Query
from .resources import SharedResources
from .status import build_status

__all__ = [
    "ServiceOverloadedError",
    "ServiceQuery",
    "ServiceSubscription",
    "QueryService",
]


class ServiceOverloadedError(RuntimeError):
    """Raised when both the running set and the waiting queue are full."""


#: Finished queries the registry keeps (newest first out last) for the
#: status page and late ``get`` calls; older handles — and the result
#: lists and queue samples they pin — are released.
FINISHED_WINDOW = 256


class ServiceQuery:
    """Registry entry + handle for one query admitted to a service."""

    def __init__(
        self,
        query_id: str,
        query: Query,
        seeds: Optional[list[str]],
        shard: Optional[str] = None,
    ) -> None:
        self.id = query_id
        self.query = query
        self.seeds = seeds
        #: The worker the query was routed to; ``None`` in-process.
        self.shard = shard
        self.status = "queued"
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[BaseException] = None
        #: The engine-level handle; ``None`` until the query leaves the
        #: waiting queue, and always ``None`` on a sharded front-end (the
        #: execution lives in a worker process).
        self.execution: Optional[QueryExecution] = None
        #: What the query produced — a live view in-process, rebuilt from
        #: the worker's reply on a sharded front-end.
        self.result: Optional[ExecutionResult] = None
        self._done = asyncio.Event()
        #: Installed by the owning service: a task cancel in-process, a
        #: ``cancel`` message to the worker on a sharded front-end.
        self._cancel: Optional[Callable[[], object]] = None

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    async def wait(self) -> ExecutionResult:
        """Block until the query finishes; returns its results (or raises)."""
        await self._done.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    async def cancel(self) -> "ServiceQuery":
        """Stop the query: dequeue it if waiting, interrupt it if running."""
        if not self.done and self._cancel is not None:
            self._cancel()
        await self._done.wait()
        return self

    def snapshot(self) -> dict:
        """A JSON-friendly view for the registry/status endpoints."""
        stats = self.result.stats if self.result is not None else None
        return {
            "id": self.id,
            "shard": self.shard,
            "status": self.status,
            "form": self.query.form,
            "submitted_at": round(self.submitted_at, 4),
            "started_at": round(self.started_at, 4) if self.started_at else None,
            "finished_at": round(self.finished_at, 4) if self.finished_at else None,
            "results": stats.result_count if stats is not None else 0,
            "documents_fetched": stats.documents_fetched if stats is not None else 0,
            "documents_from_store": stats.documents_from_store if stats is not None else 0,
            "triples_discovered": stats.triples_discovered if stats is not None else 0,
            "triples_stored": stats.triples_stored if stats is not None else 0,
            "error": str(self.error) if self.error is not None else None,
        }


class ServiceSubscription:
    """Registry entry + handle for one standing query on a service.

    Reads one :class:`~repro.ltqp.live.ChangeFeed`.  In-process that is
    the :class:`~repro.ltqp.live.LiveQuery` itself (also on :attr:`live`),
    whose change intake is wired to every Solid server the service's
    simulated internet hosts; on a sharded front-end it is a feed the
    shard reader publishes the worker's decoded wire events into, and
    :attr:`live` is ``None``.
    """

    def __init__(
        self,
        sub_id: str,
        query: Query,
        feed: ChangeFeed,
        close: Callable[[], Awaitable[None]],
        shard: Optional[str] = None,
    ) -> None:
        self.id = sub_id
        self.query = query
        self.shard = shard
        self.live: Optional[LiveQuery] = feed if isinstance(feed, LiveQuery) else None
        self._feed = feed
        self._close = close

    @property
    def events(self) -> list[ResultChange]:
        """Full ordered change history (initial results as ``+1`` events)."""
        return self._feed.events

    @property
    def closed(self) -> bool:
        return self._feed.closed

    def current_results(self) -> dict:
        return self._feed.current_results()

    def queue(self) -> asyncio.Queue:
        """An event queue replaying the history, then streaming updates."""
        return self._feed.subscribe()

    async def close(self) -> None:
        """End the standing query and unregister it from the service."""
        await self._close()

    def snapshot(self) -> dict:
        live = self.live
        return {
            "id": self.id,
            "shard": self.shard,
            "form": self.query.form,
            "events": len(self.events),
            "results": sum(self.current_results().values()),
            "pending": len(live.pending) if live is not None else None,
            "failed_refreshes": len(live.failed_refreshes) if live is not None else None,
            "closed": self.closed,
        }


#: Terminal status → the service counter it bumps.
_OUTCOME_COUNTER = {"done": "completed", "failed": "failed", "cancelled": "cancelled"}


class _ServiceCore:
    """What both services share: registry, ids, counters, standing-query
    table, finish bookkeeping and the status document.

    A deployment is a transport, not a second API — subclasses decide
    only where a query executes (``submit`` / ``subscribe`` /
    ``apply_update``), how the pool starts, drains and stops, and which
    gauges ``statistics()`` adds to :meth:`_counters`.
    """

    def __init__(self) -> None:
        self._registry: dict[str, ServiceQuery] = {}
        #: Ids of finished queries still in the registry, oldest first.
        self._finished: deque[str] = deque()
        #: Shutdown errors of handles that have left the window.
        self._retired_errors: list[str] = []
        self._subscriptions: dict[str, ServiceSubscription] = {}
        self._ids = itertools.count(1)
        self._sub_ids = itertools.count(1)
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0

    # -- introspection --------------------------------------------------

    def get(self, query_id: str) -> Optional[ServiceQuery]:
        return self._registry.get(query_id)

    def queries(self) -> list[ServiceQuery]:
        return list(self._registry.values())

    def inflight(self) -> list[ServiceQuery]:
        """Queries admitted but not yet finished (queued or running)."""
        return [handle for handle in self._registry.values() if not handle.done]

    def subscriptions(self) -> list[ServiceSubscription]:
        return list(self._subscriptions.values())

    def get_subscription(self, sub_id: str) -> Optional[ServiceSubscription]:
        return self._subscriptions.get(sub_id)

    def shutdown_errors(self) -> list[str]:
        """Teardown exceptions swallowed by any execution, query-tagged.

        Shutdown must not fail a query, but an operator must still see
        these — they surface here and in ``/service/status``.
        """
        errors = list(self._retired_errors)
        for handle in self._registry.values():
            errors.extend(_tagged_errors(handle))
        for subscription in self._subscriptions.values():
            if subscription.live is not None:
                stats = subscription.live.execution.stats
                errors.extend(f"{subscription.id}: {e}" for e in stats.shutdown_errors)
        return errors

    async def status(self) -> dict:
        """The schema-2 ``/service/status`` document."""
        return build_status(self)

    async def run(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        **kwargs,
    ) -> ExecutionResult:
        """Submit and wait: the one-call path for front-ends."""
        return await self.submit(query, seeds=seeds, **kwargs).wait()

    # -- bookkeeping shared by both transports --------------------------

    def _counters(self) -> dict:
        return {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "subscriptions": len(self._subscriptions),
        }

    def _bump(self, counter: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)

    def _reject(self, reason: str) -> NoReturn:
        self._bump("rejected")
        raise ServiceOverloadedError(reason)

    def _admit(
        self, query: Query, seeds: Optional[Iterable[str]], shard: Optional[str] = None
    ) -> ServiceQuery:
        """Register a handle for an accepted query."""
        handle = ServiceQuery(
            f"q{next(self._ids)}", query, list(seeds) if seeds is not None else None, shard
        )
        self._registry[handle.id] = handle
        self._bump("accepted")
        return handle

    def _finish(
        self, handle: ServiceQuery, status: str, error: Optional[BaseException] = None
    ) -> None:
        """Record a query's outcome, wake its waiters, age the registry."""
        handle.status = status
        handle.error = error
        handle.finished_at = time.monotonic()
        self._bump(_OUTCOME_COUNTER[status])
        handle._done.set()
        self._finished.append(handle.id)
        if len(self._finished) > FINISHED_WINDOW:
            retired = self._registry.pop(self._finished.popleft())
            self._retired_errors.extend(_tagged_errors(retired))

    def _register_subscription(
        self,
        query: Query,
        feed: ChangeFeed,
        close: Callable[[], Awaitable[None]],
        shard: Optional[str] = None,
    ) -> ServiceSubscription:
        sub_id = f"s{next(self._sub_ids)}"

        async def close_and_drop() -> None:
            await close()
            self._subscriptions.pop(sub_id, None)

        subscription = ServiceSubscription(sub_id, query, feed, close_and_drop, shard)
        self._subscriptions[sub_id] = subscription
        return subscription


def _tagged_errors(handle: ServiceQuery) -> list[str]:
    if handle.result is None:
        return []
    return [f"{handle.id}: {error}" for error in handle.result.stats.shutdown_errors]


class QueryService(_ServiceCore):
    """Executes many queries over shared resources with admission control."""

    def __init__(
        self,
        resources: SharedResources,
        max_concurrent: int = 8,
        max_queued: int = 32,
    ) -> None:
        super().__init__()
        self._resources = resources
        self._engine = resources.engine
        self._max_concurrent = max(1, max_concurrent)
        self._max_queued = max(0, max_queued)
        self._semaphore = asyncio.Semaphore(self._max_concurrent)
        self._listening: list = []  # SolidServers we installed listeners on
        self._drain_task: Optional[asyncio.Task] = None
        self._active = 0
        self._queued = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "QueryService":
        """Nothing to spawn: the service runs on the caller's loop."""
        return self

    async def stop(self) -> None:
        """Release the storage backend so pending writes are durable — a
        clean stop must leave the store file warm for the next lifetime."""
        self._resources.close()

    async def drain(self, timeout: float = 5.0) -> list[dict]:
        """Wait up to ``timeout`` for in-flight queries to finish.

        Returns the snapshots of queries *still* unfinished at the
        deadline — the callers' drain reports.  An empty list means the
        service went quiet.  Nothing is cancelled here; the caller
        decides what to do with the stragglers.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        pending = self.inflight()
        while pending and time.monotonic() < deadline:
            waiters = [handle._done.wait() for handle in pending]
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(asyncio.gather(*waiters), timeout=remaining)
            except asyncio.TimeoutError:
                pass
            pending = self.inflight()
        return [handle.snapshot() for handle in pending]

    # -- introspection --------------------------------------------------

    @property
    def resources(self) -> SharedResources:
        return self._resources

    @property
    def engine(self) -> LinkTraversalEngine:
        return self._engine

    @property
    def active_count(self) -> int:
        return self._active

    @property
    def queued_count(self) -> int:
        return self._queued

    def statistics(self) -> dict:
        """Service counters plus the shared caches' statistics — a pool
        of one worker with no shards."""
        return {
            "mode": "single",
            "workers": {"total": 1, "ready": 1, "restarts": 0, "routing": None},
            "shards": {},
            "active": self._active,
            "queued": self._queued,
            **self._counters(),
            "shutdown_errors": self.shutdown_errors(),
            **self._resources.statistics(),
        }

    # -- submission -----------------------------------------------------

    def submit(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
        tracer=None,
    ) -> ServiceQuery:
        """Admit a query (or raise :class:`ServiceOverloadedError`).

        Must be called with a running event loop — the returned handle's
        execution is driven as an :class:`asyncio.Task`.  ``await
        handle.wait()`` for the result, ``await handle.cancel()`` to stop
        it; live status is on the handle throughout.
        """
        self._check_capacity()
        handle = self._admit(self._engine._parse(query), seeds)
        self._queued += 1
        traversal = self._traversal_for(max_documents, max_duration)
        task = asyncio.create_task(
            self._drive(handle, traversal, tracer),
            name=f"query-service-{handle.id}",
        )
        # Cancel the driving task, never the execution's own generator: a
        # generator cannot be ``aclose()``d from a second task while the
        # driver is suspended inside it, but a task cancel interrupts it
        # at its await point and runs its cleanup.
        handle._cancel = task.cancel
        return handle

    def _check_capacity(self) -> None:
        if self._active + self._queued >= self._max_concurrent + self._max_queued:
            self._reject(
                f"service at capacity ({self._active} running, {self._queued} queued)"
            )

    # -- standing queries -----------------------------------------------

    async def subscribe(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        tracer=None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
    ) -> ServiceSubscription:
        """Open a standing query: run it to quiescence, then keep its
        result multiset current as pods change.

        The returned :class:`ServiceSubscription` exposes the signed
        event stream (:meth:`ServiceSubscription.queue`); change intake
        is automatic — every :class:`~repro.solid.server.SolidServer` on
        the service's internet reports accepted writes, the subscription
        is notified of those its query reads
        (:meth:`~repro.ltqp.live.LiveQuery.reads`), and a drain task
        turns notifications into refreshes.
        Counts against the same admission capacity as :meth:`submit`.
        """
        self._check_capacity()
        traversal = self._traversal_for(max_documents, max_duration)
        live = LiveQuery(self._engine, query, seeds=seeds, tracer=tracer, traversal=traversal)
        self._active += 1
        try:
            await live.start()
        finally:
            self._active -= 1

        async def close() -> None:
            live.close()

        subscription = self._register_subscription(live.query, live, close)
        self._ensure_change_listeners()
        return subscription

    async def apply_update(self, url: str, update: str) -> dict:
        """Apply a SPARQL Update to one pod document, owner-authenticated.

        The control-plane edit path for demos and tests: dispatches a
        ``PATCH`` (``application/sparql-update``) to the document's
        origin app with the pod owner's credentials, then drains every
        standing query so the resulting signed events are published
        before this call returns.  Raises on a rejected update.
        """
        url = url.split("#", 1)[0]
        internet = self._resources.internet
        parts = urlsplit(url)
        app = internet.app_for(f"{parts.scheme}://{parts.netloc}")
        headers = {"content-type": "application/sparql-update"}
        login = getattr(app, "login_owner", None)
        if login is not None:
            headers.update(login(parts.path))
        response = await internet.dispatch(
            Request("PATCH", url, headers, update.encode("utf-8"))
        )
        if response.status >= 400:
            raise RuntimeError(
                f"update rejected: HTTP {response.status} for {url}: "
                f"{response.body.decode('utf-8', 'replace')[:200]}"
            )
        events = await self.drain_subscriptions()
        return {"url": url, "status": response.status, "events": len(events)}

    async def drain_subscriptions(self) -> list[ResultChange]:
        """Refresh every changed document across all standing queries."""
        events: list[ResultChange] = []
        for subscription in list(self._subscriptions.values()):
            events.extend(await subscription.live.drain())
        return events

    def _ensure_change_listeners(self) -> None:
        """Install one change listener per Solid server, once."""
        internet = self._resources.internet
        for origin in internet.origins():
            app = internet.app_for(origin)
            if app in self._listening:
                continue
            add = getattr(app, "add_change_listener", None)
            if add is None:
                continue
            add(self._on_document_changed)
            self._listening.append(app)

    def _on_document_changed(self, url: str) -> None:
        """Solid-server write listener: flag the document for the standing
        queries that read it (:meth:`LiveQuery.reads`), schedule a drain."""
        notified = [subscription.live.notify(url) for subscription in self._subscriptions.values()]
        if any(notified):
            self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.ensure_future(self.drain_subscriptions())

    # -- internals ------------------------------------------------------

    def _traversal_for(
        self, max_documents: Optional[int], max_duration: Optional[float]
    ) -> Optional[TraversalPolicy]:
        """The engine's policy with the budgets this caller gave in place
        of its own; ``None`` (the engine's, as is) when it gave neither."""
        budgets = {"max_documents": max_documents, "max_duration": max_duration}
        given = {name: value for name, value in budgets.items() if value is not None}
        return dataclasses.replace(self._engine.traversal, **given) if given else None

    async def _drive(
        self,
        handle: ServiceQuery,
        traversal: Optional[TraversalPolicy],
        tracer,
    ) -> None:
        dequeued = False
        outcome, error = "failed", None  # unless the body says otherwise
        try:
            async with self._semaphore:
                self._queued -= 1
                dequeued = True
                self._active += 1
                handle.status = "running"
                handle.started_at = time.monotonic()
                try:
                    execution = self._engine.query(
                        handle.query,
                        seeds=handle.seeds,
                        tracer=tracer,
                        traversal=traversal,
                    )
                    handle.execution = execution
                    handle.result = execution.result
                    await execution.gather()
                    outcome = "cancelled" if execution.cancelled else "done"
                finally:
                    self._active -= 1
        except asyncio.CancelledError:
            # Either cancelled while waiting in the admission queue, or a
            # task cancel interrupted ``gather`` mid-run — in which case
            # the generator has already unwound and ``execution.cancel``
            # just finalizes its bookkeeping.
            if not dequeued:
                self._queued -= 1
            if handle.execution is not None:
                await handle.execution.cancel()
            outcome = "cancelled"
        except Exception as failure:  # noqa: BLE001 — registry reports it
            error = failure
        finally:
            self._finish(handle, outcome, error)
