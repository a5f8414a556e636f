"""Multi-core scale-out: sharded QueryService workers behind one front-end.

One :class:`~repro.service.QueryService` is one asyncio loop — one core,
no matter the hardware.  This module runs **N worker processes**, each
owning a complete, private execution stack (its own
:class:`~repro.service.SharedResources`: HTTP client, HTTP cache,
parsed-document store, circuit breakers — *shared-nothing*), behind a
single :class:`ShardedQueryService` front-end that routes queries with
consistent hashing (:mod:`repro.service.router`):

* ``query`` routing (default) spreads distinct queries across the pool
  while repeats of the same query stay on the same warm shard;
* ``origin`` routing pins seed-heavy queries to the shard owning their
  seed's pod, so a pod's documents are parsed exactly once across the
  whole deployment.

The data plane crosses process boundaries only in wire form
(:mod:`repro.service.wire`): workers re-intern terms locally, result
rows stream back as compact term-table blocks, and a graceful
drain-and-restart hands the outgoing worker's document store (validator
keys intact) to its replacement so the new shard starts warm.

Worker lifecycle: processes are spawned (never forked — each worker
rebuilds its deterministic universe from the picklable
:class:`ShardSpec`), health-checked via per-worker status requests,
drained on graceful restart, and respawned automatically on crash — a
crash fails only the queries in flight on that shard (surfaced as
:class:`WorkerCrashedError`) and removes the shard from the ring until
its replacement reports ready, remapping ~1/N of the key space in the
interim.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union as TypingUnion

from ..ltqp.live import ResultChange
from ..ltqp.stats import TimedResult
from ..sparql.algebra import Query
from ..sparql.parser import parse_query
from .router import ShardRouter
from .service import ServiceOverloadedError
from .wire import (
    decode_events,
    decode_results,
    document_from_wire,
    document_to_wire,
    encode_events,
    encode_results,
)

__all__ = [
    "ShardSpec",
    "WorkerCrashedError",
    "ShardQueryError",
    "ShardedQuery",
    "ShardedResult",
    "ShardedSubscription",
    "ShardedQueryService",
]

#: Result rows per streamed ``rows`` message (worker → front-end).
ROW_CHUNK = 512


class WorkerCrashedError(RuntimeError):
    """The worker owning a query died before answering it."""


class ShardQueryError(RuntimeError):
    """A query failed inside its worker; carries the worker-side message."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to build its stack — picklable.

    Workers receive primitives only and regenerate the deterministic
    SolidBench universe locally; nothing live crosses the process
    boundary at startup.
    """

    config: object  # SolidBenchConfig (picklable dataclass)
    latency_seed: Optional[int] = None
    latency_scale: float = 1.0
    no_latency: bool = False
    lenient: bool = True
    queue_policy: str = "fifo"
    max_concurrent: int = 8
    max_queued: int = 32
    default_max_documents: int = 0
    default_max_duration: float = 0.0
    #: Traversal hardening (see :class:`~repro.ltqp.engine.TraversalPolicy`):
    #: applied uniformly to every query on every shard.  ``max_doc_bytes``
    #: caps both the network transfer and the parse admission.
    max_depth: int = 0
    max_origin_derefs: int = 0
    max_doc_bytes: int = 0
    #: Guided traversal (DESIGN.md §4g): a subweb specification applied to
    #: every query on every shard — a JSON file path or a plain dict in the
    #: JSON shape (both picklable; each worker resolves it locally, so
    #: routing never changes which links a query may follow).
    subweb: Optional[object] = None
    #: Persistence tier (see :mod:`repro.storage`).  On the front-end
    #: spec this is a *directory*; each worker receives a copy with its
    #: own file path under it (``<dir>/<shard-name>.sqlite``), so a
    #: respawned worker reopens its predecessor's store warm.
    store_path: Optional[str] = None
    storage_backend: Optional[str] = None

    def for_worker(self, name: str) -> "ShardSpec":
        """The per-worker spec: the store directory becomes this worker's file."""
        if self.store_path is None:
            return self
        import dataclasses

        return dataclasses.replace(
            self, store_path=os.path.join(self.store_path, f"{name}.sqlite")
        )

    @property
    def persistent(self) -> bool:
        return self.store_path is not None or self.storage_backend == "sqlite"


# ---------------------------------------------------------------------------
# worker process side
# ---------------------------------------------------------------------------


def _stats_summary(stats) -> dict:
    """The per-query stats subset shipped back to the front-end."""
    return {
        "result_count": stats.result_count,
        "documents_fetched": stats.documents_fetched,
        "documents_from_store": stats.documents_from_store,
        "documents_failed": stats.documents_failed,
        "triples_discovered": stats.triples_discovered,
        "links_queued": stats.links_queued,
        "total_time": stats.total_time,
        "time_to_first_result": stats.time_to_first_result,
        "streaming": stats.streaming,
        "shutdown_errors": list(stats.shutdown_errors),
        "completeness": stats.completeness(),
    }


async def _report_query(conn, req_id: str, handle, registry: dict) -> None:
    """Drive one admitted query and stream its outcome back."""
    try:
        result = await handle.wait()
    except Exception as error:  # noqa: BLE001 — shipped to the front-end
        conn.send(("error", req_id, "query", f"{type(error).__name__}: {error}"))
        return
    finally:
        registry.pop(req_id, None)
    rows = result.results
    # Stream all-but-the-last chunk, then let the final chunk ride on the
    # completion message so the front-end resolves the query atomically
    # with its last rows.
    head = max(((len(rows) - 1) // ROW_CHUNK) * ROW_CHUNK, 0)
    for start in range(0, head, ROW_CHUNK):
        conn.send(("rows", req_id, encode_results(rows[start : start + ROW_CHUNK])))
    conn.send(
        (
            "done",
            req_id,
            {
                "status": handle.status,
                "rows": encode_results(rows[head:]),
                "stats": _stats_summary(result.stats),
            },
        )
    )


def _event_forwarder(conn, req_id: str):
    """A synchronous LiveQuery listener shipping signed events to the
    front-end.

    Invoked inline at publish time, so every ``events`` message hits the
    pipe *before* the ``done`` ack of the edit that caused it — the
    front-end observes events-then-ack ordering deterministically.
    ``None`` (close) becomes the end-of-stream marker.
    """

    def forward(events) -> None:
        try:
            if events is None:
                conn.send(("events", req_id, None))
            else:
                conn.send(("events", req_id, encode_events(events)))
        except (OSError, BrokenPipeError, ValueError):
            pass

    return forward


async def _worker_loop(conn, spec: ShardSpec) -> None:
    from ..ltqp.engine import EngineConfig, NetworkPolicy, TraversalPolicy
    from .resources import SharedResources
    from .service import QueryService

    try:
        resources = SharedResources.for_config(
            spec.config,
            latency_seed=spec.latency_seed,
            no_latency=spec.no_latency,
            latency_scale=spec.latency_scale,
            lenient=spec.lenient,
            store_path=spec.store_path,
            storage_backend=spec.storage_backend,
        )
        engine_config = EngineConfig(
            traversal=TraversalPolicy(
                queue_policy=spec.queue_policy,
                max_depth=spec.max_depth,
                max_origin_derefs=spec.max_origin_derefs,
                subweb=spec.subweb,
                max_parse_bytes=spec.max_doc_bytes,
            ),
            network=NetworkPolicy(max_response_bytes=spec.max_doc_bytes),
        )
        service = QueryService(
            resources,
            config=engine_config,
            max_concurrent=spec.max_concurrent,
            max_queued=spec.max_queued,
            default_max_documents=spec.default_max_documents,
            default_max_duration=spec.default_max_duration,
        )
    except Exception as error:  # noqa: BLE001 — startup failure is fatal
        conn.send(("fatal", f"{type(error).__name__}: {error}"))
        return
    conn.send(("ready", {"pid": os.getpid()}))

    loop = asyncio.get_running_loop()
    inflight: dict[str, object] = {}
    subscriptions: dict[str, object] = {}
    while True:
        try:
            message = await loop.run_in_executor(None, conn.recv)
        except (EOFError, OSError):
            break  # front-end went away; nothing left to serve
        kind = message[0]
        if kind == "shutdown":
            break
        if kind == "cancel":
            handle = inflight.get(message[1])
            if handle is not None:
                asyncio.ensure_future(handle.cancel())
            continue
        if kind == "unsubscribe":
            subscription = subscriptions.pop(message[1], None)
            if subscription is not None:
                asyncio.ensure_future(subscription.close())
            continue
        req_id = message[1]
        try:
            if kind == "submit":
                _, _, text, seeds, opts = message
                try:
                    handle = service.submit(text, seeds=seeds, **opts)
                except ServiceOverloadedError as error:
                    conn.send(("error", req_id, "overloaded", str(error)))
                else:
                    inflight[req_id] = handle
                    asyncio.ensure_future(
                        _report_query(conn, req_id, handle, inflight)
                    )
            elif kind == "subscribe":
                # Standing queries run to quiescence inline: ordering
                # matters here — a "patch" arriving after this message is
                # guaranteed to see the subscription live.
                _, _, text, seeds, opts = message
                try:
                    subscription = await service.subscribe(text, seeds=seeds, **opts)
                except ServiceOverloadedError as error:
                    conn.send(("error", req_id, "overloaded", str(error)))
                else:
                    subscriptions[req_id] = subscription
                    conn.send(
                        (
                            "done",
                            req_id,
                            {
                                "subscription": subscription.id,
                                "events": len(subscription.events),
                            },
                        )
                    )
                    forward = _event_forwarder(conn, req_id)
                    if subscription.events:
                        forward(subscription.events)  # replay initial results
                    subscription.live.add_listener(forward)
            elif kind == "patch":
                # A pod edit: every worker owns a private copy of the
                # deterministic universe, so edits are *broadcast* by the
                # front-end and applied locally on each shard.
                _, _, url, update = message
                report = await service.apply_update(url, update)
                conn.send(("done", req_id, report))
            elif kind == "status":
                conn.send(
                    (
                        "done",
                        req_id,
                        {
                            "pid": os.getpid(),
                            "statistics": service.statistics(),
                            "queries": [h.snapshot() for h in service.queries()],
                        },
                    )
                )
            elif kind == "ping":
                conn.send(("done", req_id, {"pid": os.getpid()}))
            elif kind == "drain":
                pending = await service.drain(timeout=message[2])
                # A drained worker is about to stop or hand off: make its
                # store durable so a replacement reopening the same file
                # (persistent handoff) sees everything it parsed.
                resources.flush()
                conn.send(("done", req_id, {"pending": pending}))
            elif kind == "export_store":
                store = resources.document_store
                conn.send(
                    (
                        "done",
                        req_id,
                        {"documents": [document_to_wire(e) for e in store.entries()]},
                    )
                )
            elif kind == "import_store":
                store = resources.document_store
                for wire in message[2]:
                    store.adopt(document_from_wire(wire))
                conn.send(("done", req_id, {"imported": len(message[2])}))
            else:
                conn.send(("error", req_id, "protocol", f"unknown request {kind!r}"))
        except Exception as error:  # noqa: BLE001 — keep the worker alive
            try:
                conn.send(("error", req_id, "internal", f"{type(error).__name__}: {error}"))
            except (OSError, BrokenPipeError):
                break
    resources.close()
    conn.close()


def _worker_main(conn, spec: ShardSpec) -> None:
    """Entry point of one shard process (must be module-level for spawn)."""
    asyncio.run(_worker_loop(conn, spec))


# ---------------------------------------------------------------------------
# front-end side
# ---------------------------------------------------------------------------


class ShardStats:
    """Attribute view over the stats summary a worker shipped back."""

    def __init__(self, summary: dict) -> None:
        self._summary = dict(summary)
        for key, value in self._summary.items():
            if key != "completeness":
                setattr(self, key, value)

    def completeness(self) -> dict:
        return self._summary.get("completeness", {})

    def as_dict(self) -> dict:
        return dict(self._summary)


class ShardedResult:
    """What one sharded query produced, reassembled on the front-end."""

    def __init__(
        self, query: Query, results: list[TimedResult], stats: ShardStats, shard: str
    ) -> None:
        self.query = query
        self.results = results
        self.stats = stats
        self.shard = shard

    @property
    def bindings(self) -> list:
        return [timed.binding for timed in self.results]

    def __len__(self) -> int:
        return len(self.results)


class ShardedQuery:
    """Front-end handle for one query dispatched to a shard."""

    def __init__(
        self, query_id: str, query: Query, seeds: Optional[list[str]], shard: str
    ) -> None:
        self.id = query_id
        self.query = query
        self.seeds = seeds
        self.shard = shard
        self.status = "running"
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self.error: Optional[BaseException] = None
        self.result: Optional[ShardedResult] = None
        self._done = asyncio.Event()
        self._cancel = None  # installed by the service at dispatch time

    @property
    def done(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    async def wait(self) -> ShardedResult:
        await self._done.wait()
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result

    async def cancel(self) -> "ShardedQuery":
        if not self.done and self._cancel is not None:
            self._cancel()
        await self._done.wait()
        return self

    def snapshot(self) -> dict:
        stats = self.result.stats if self.result is not None else None
        return {
            "id": self.id,
            "shard": self.shard,
            "status": self.status,
            "form": self.query.form,
            "submitted_at": round(self.submitted_at, 4),
            "finished_at": round(self.finished_at, 4) if self.finished_at else None,
            "results": getattr(stats, "result_count", 0),
            "documents_fetched": getattr(stats, "documents_fetched", 0),
            "documents_from_store": getattr(stats, "documents_from_store", 0),
            "error": str(self.error) if self.error is not None else None,
        }


class _ShardWorker:
    """One worker process plus its pipe, reader thread, and bookkeeping."""

    def __init__(self, name: str, spec: ShardSpec, context) -> None:
        self.name = name
        # Each worker persists into its own file under the spec's store
        # directory; the derived spec survives respawns, so a replacement
        # process reopens its predecessor's store warm.
        self.spec = spec.for_worker(name)
        self._context = context
        self.process = None
        self.conn = None
        self.state = "new"  # new → starting → ready → dead | stopped
        self.inflight = 0
        self.last_status: Optional[dict] = None
        self.generation = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reader: Optional[threading.Thread] = None
        self._pending: dict[str, dict] = {}
        #: req-id → callback for streamed subscription events; unlike
        #: ``_pending`` entries these outlive their "done" ack and are
        #: removed only by the ``None`` end-of-stream marker (or a crash).
        self._events: dict[str, object] = {}
        self._ids = itertools.count(1)
        self.ready: Optional[asyncio.Future] = None
        self.on_crash = None  # callback(worker) installed by the service

    # -- lifecycle ------------------------------------------------------

    def spawn(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.generation += 1
        self.state = "starting"
        self.ready = loop.create_future()
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.spec),
            name=f"repro-shard-{self.name}",
            daemon=True,
        )
        self.process.start()
        # Close our copy of the child's end, or its death never EOFs us.
        child_conn.close()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"shard-{self.name}-reader",
            args=(self.conn, self.generation),
            daemon=True,
        )
        self._reader.start()

    def _read_loop(self, conn, generation: int) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._call_on_loop(self._lost, generation)
                return
            if message[0] == "rows":
                # Decode off the event loop: re-interning is GIL-safe and
                # keeps row decoding out of the front-end's latency path.
                message = ("rows", message[1], decode_results(message[2]))
            elif message[0] == "events" and message[2] is not None:
                message = ("events", message[1], decode_events(message[2]))
            elif message[0] == "done" and isinstance(message[2], dict) and "rows" in message[2]:
                payload = dict(message[2])
                payload["rows"] = decode_results(payload["rows"])
                message = ("done", message[1], payload)
            if not self._call_on_loop(self._dispatch, message, generation):
                return

    def _call_on_loop(self, callback, *args) -> bool:
        """Schedule onto the loop; False when the loop is already gone."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
            return True
        except RuntimeError:
            return False

    def _dispatch(self, message, generation: int) -> None:
        if generation != self.generation:
            return  # a replacement already took over this name
        kind = message[0]
        if kind == "ready":
            self.state = "ready"
            if self.ready is not None and not self.ready.done():
                self.ready.set_result(message[1])
            return
        if kind == "fatal":
            self.state = "dead"
            if self.ready is not None and not self.ready.done():
                self.ready.set_exception(WorkerCrashedError(message[1]))
            return
        req_id = message[1]
        if kind == "events":
            handler = self._events.get(req_id)
            if handler is None:
                return
            if message[2] is None:
                del self._events[req_id]
            handler(message[2])
            return
        entry = self._pending.get(req_id)
        if entry is None:
            return
        if kind == "rows":
            entry["rows"].extend(message[2])
            return
        del self._pending[req_id]
        future = entry["future"]
        if future.done():
            return
        if kind == "done":
            payload = message[2]
            if isinstance(payload, dict) and "rows" in payload:
                entry["rows"].extend(payload["rows"])
            future.set_result((payload, entry["rows"]))
        elif kind == "error":
            _, _, error_kind, text = message
            if error_kind == "overloaded":
                future.set_exception(ServiceOverloadedError(text))
            else:
                future.set_exception(ShardQueryError(text))

    def _lost(self, generation: int) -> None:
        if generation != self.generation or self.state in ("dead", "stopped"):
            return
        was_stopping = self.state == "stopping"
        self.state = "stopped" if was_stopping else "dead"
        if self.ready is not None and not self.ready.done():
            self.ready.set_exception(WorkerCrashedError(f"shard {self.name} died at startup"))
        pending, self._pending = self._pending, {}
        for entry in pending.values():
            if not entry["future"].done():
                entry["future"].set_exception(
                    WorkerCrashedError(f"shard {self.name} died mid-query")
                )
        # Subscriptions on a dead worker end their event streams cleanly.
        handlers, self._events = self._events, {}
        for handler in handlers.values():
            handler(None)
        if not was_stopping and self.on_crash is not None:
            self.on_crash(self)

    # -- requests -------------------------------------------------------

    def begin(self, kind: str, *args) -> tuple[str, asyncio.Future]:
        """Register a pending request and send it (raises if the pipe is gone)."""
        req_id = f"{self.name}.{next(self._ids)}"
        future = self._loop.create_future()
        self._pending[req_id] = {"future": future, "rows": []}
        try:
            self.conn.send((kind, req_id, *args))
        except (OSError, BrokenPipeError, ValueError):
            del self._pending[req_id]
            self._lost(self.generation)
            raise WorkerCrashedError(f"shard {self.name} is gone") from None
        return req_id, future

    async def request(self, kind: str, *args, timeout: Optional[float] = None):
        _, future = self.begin(kind, *args)
        payload, _rows = await asyncio.wait_for(future, timeout)
        return payload

    def send_cancel(self, req_id: str) -> None:
        try:
            self.conn.send(("cancel", req_id))
        except (OSError, BrokenPipeError, ValueError):
            pass

    def send_unsubscribe(self, req_id: str) -> None:
        try:
            self.conn.send(("unsubscribe", req_id))
        except (OSError, BrokenPipeError, ValueError):
            pass

    async def stop(self, join_timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate/kill on timeout."""
        if self.process is None:
            return
        self.state = "stopping"
        try:
            self.conn.send(("shutdown",))
        except (OSError, BrokenPipeError, ValueError):
            pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.process.join, join_timeout)
        if self.process.is_alive():
            self.process.terminate()
            await loop.run_in_executor(None, self.process.join, 2.0)
            if self.process.is_alive():
                self.process.kill()
                await loop.run_in_executor(None, self.process.join, 1.0)
        self.state = "stopped"
        try:
            self.conn.close()
        except OSError:
            pass


def _sum_stats(documents: Iterable[dict]) -> dict:
    """Merge shard statistics: sum numbers, concatenate lists, recurse."""
    total: dict = {}
    for document in documents:
        for key, value in document.items():
            if isinstance(value, dict):
                total[key] = _sum_stats([total.get(key, {}), value])
            elif isinstance(value, bool):
                continue
            elif isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
            elif isinstance(value, list):
                # Error lists (e.g. shutdown_errors) aggregate by concat,
                # so per-shard teardown failures stay visible in totals.
                total[key] = total.get(key, []) + value
    return total


class ShardedSubscription:
    """Front-end handle for one standing query living on a shard worker.

    Mirrors :class:`~repro.service.service.ServiceSubscription`: signed
    :class:`~repro.ltqp.live.ResultChange` events accumulate on
    :attr:`events` (decoded and re-interned from the worker's wire
    blocks), :meth:`queue` hands out asyncio queues that replay the
    history and then stream, and :meth:`close` tears down the
    worker-side subscription (queues receive ``None``).
    """

    def __init__(
        self, sub_id: str, query: Query, shard: str, worker: "_ShardWorker", req_id: str
    ) -> None:
        self.id = sub_id
        self.query = query
        self.shard = shard
        self._worker = worker
        self._req_id = req_id
        self.events: list[ResultChange] = []
        self._queues: list[asyncio.Queue] = []
        self._closed = False
        self._ended = asyncio.Event()

    @property
    def closed(self) -> bool:
        return self._closed

    def _deliver(self, events: Optional[list[ResultChange]]) -> None:
        """Reader-loop callback: append a decoded batch (None = stream end)."""
        if events is None:
            if not self._closed:
                self._closed = True
                for queue in self._queues:
                    queue.put_nowait(None)
                self._queues.clear()
            self._ended.set()
            return
        self.events.extend(events)
        for queue in self._queues:
            for event in events:
                queue.put_nowait(event)

    def current_results(self) -> dict:
        """The maintained result multiset (replay of the event history)."""
        multiset: dict = {}
        for event in self.events:
            total = multiset.get(event.binding, 0) + event.delta
            if total:
                multiset[event.binding] = total
            else:
                multiset.pop(event.binding, None)
        return multiset

    def queue(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        if self._closed:
            queue.put_nowait(None)
        else:
            self._queues.append(queue)
        return queue

    async def close(self) -> None:
        """Unsubscribe on the worker; returns once the stream has ended."""
        if not self._closed:
            self._worker.send_unsubscribe(self._req_id)
        await self._ended.wait()

    def snapshot(self) -> dict:
        return {
            "id": self.id,
            "shard": self.shard,
            "form": self.query.form,
            "events": len(self.events),
            "results": sum(self.current_results().values()),
            "closed": self._closed,
        }


class ShardedQueryService:
    """N shard workers behind one submit/run/status front-end.

    API-compatible (duck-typed) with :class:`~repro.service.QueryService`
    where the front-ends need it: ``submit``/``run``/``get``/``queries``/
    ``statistics`` plus an async :meth:`status` that aggregates live
    shard gauges.  Must be started (:meth:`start`) and stopped
    (:meth:`stop`) on a running event loop.
    """

    def __init__(
        self,
        spec: ShardSpec,
        workers: int = 4,
        routing: str = "query",
        auto_restart: bool = True,
        start_method: str = "spawn",
        ready_timeout: float = 120.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self._spec = spec
        self._routing = routing
        self._auto_restart = auto_restart
        self._ready_timeout = ready_timeout
        self._context = multiprocessing.get_context(start_method)
        names = [f"shard-{index}" for index in range(workers)]
        # The ring starts empty; shards join as they report ready.
        self._router = ShardRouter((), mode=routing)
        self._workers = {name: _ShardWorker(name, spec, self._context) for name in names}
        self._registry: dict[str, ShardedQuery] = {}
        self._subscriptions: dict[str, ShardedSubscription] = {}
        self._sub_ids = itertools.count(1)
        self._ids = itertools.count(1)
        self._restarts = 0
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self._started = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "ShardedQueryService":
        """Spawn every worker and wait until all report ready."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        for worker in self._workers.values():
            worker.on_crash = self._worker_crashed
            worker.spawn(loop)
        await asyncio.wait_for(
            asyncio.gather(*(w.ready for w in self._workers.values())),
            timeout=self._ready_timeout,
        )
        for name in self._workers:
            self._router.add_shard(name)
        self._started = True
        return self

    async def stop(self) -> None:
        # Clear the started flag *first*: when the whole process group is
        # signalled (systemd, `timeout`), workers die while we tear down,
        # and their crash callbacks must not respawn replacements.
        self._started = False
        for name in list(self._workers):
            self._router.remove_shard(name)
        await asyncio.gather(*(w.stop() for w in self._workers.values()))

    def _worker_crashed(self, worker: _ShardWorker) -> None:
        """Loop-thread callback: drop the shard, optionally respawn it."""
        self._router.remove_shard(worker.name)
        if self._auto_restart and self._started:
            self._restarts += 1
            asyncio.ensure_future(self._respawn(worker))

    async def _respawn(self, worker: _ShardWorker) -> None:
        loop = asyncio.get_running_loop()
        worker.spawn(loop)
        try:
            await asyncio.wait_for(worker.ready, timeout=self._ready_timeout)
        except Exception:  # noqa: BLE001 — stays off the ring; next health check retries
            return
        if self._started and worker.state == "ready":
            self._router.add_shard(worker.name)

    async def health_check(self) -> dict[str, bool]:
        """Ping every worker; respawn dead ones when auto-restart is on."""
        health: dict[str, bool] = {}
        for name, worker in self._workers.items():
            if worker.state != "ready":
                health[name] = False
                continue
            try:
                await worker.request("ping", timeout=10.0)
                health[name] = True
            except (WorkerCrashedError, ShardQueryError, asyncio.TimeoutError):
                health[name] = False
        return health

    async def restart_worker(self, name: str, warm: bool = True, drain_timeout: float = 5.0) -> dict:
        """Graceful drain + restart of one shard.

        Removes the shard from the ring (new queries remap), drains its
        in-flight queries, hands its parsed-document store to the
        replacement, and rejoins the ring.  With a persistent spec the
        handoff is *by file*: the drained worker flushes and closes its
        store, and the replacement — whose derived spec points at the
        same path — simply reopens it warm (``handoff: "file"``).
        Otherwise every entry streams through the pipe in wire form
        (``handoff: "stream"``).  Returns a report with the drain
        leftovers and the number of documents handed over.
        """
        worker = self._workers[name]
        by_file = warm and worker.spec.persistent
        self._router.remove_shard(name)
        report = {
            "shard": name,
            "pending": [],
            "documents": 0,
            "handoff": "file" if by_file else "stream",
        }
        exported: list[dict] = []
        if worker.state == "ready":
            try:
                drained = await worker.request("drain", drain_timeout, timeout=drain_timeout + 10.0)
                report["pending"] = drained["pending"]
                if warm and not by_file:
                    store = await worker.request("export_store", timeout=60.0)
                    exported = store["documents"]
            except (WorkerCrashedError, ShardQueryError, asyncio.TimeoutError):
                pass
            worker.state = "stopping"
            await worker.stop()
        loop = asyncio.get_running_loop()
        worker.spawn(loop)
        await asyncio.wait_for(worker.ready, timeout=self._ready_timeout)
        if exported:
            imported = await worker.request("import_store", exported, timeout=60.0)
            report["documents"] = imported["imported"]
        elif by_file:
            try:
                status = await worker.request("status", timeout=15.0)
                report["documents"] = (
                    status["statistics"]["document_store"]["documents"]
                )
            except (WorkerCrashedError, ShardQueryError, asyncio.TimeoutError, KeyError):
                pass
        self._router.add_shard(name)
        self._restarts += 1
        return report

    async def drain(self, timeout: float = 5.0) -> list[dict]:
        """Drain every shard; returns snapshots of still-unfinished queries."""
        pending: list[dict] = []
        ready = [w for w in self._workers.values() if w.state == "ready"]
        reports = await asyncio.gather(
            *(w.request("drain", timeout, timeout=timeout + 10.0) for w in ready),
            return_exceptions=True,
        )
        for worker, report in zip(ready, reports):
            if isinstance(report, BaseException):
                continue
            for snapshot in report["pending"]:
                pending.append({**snapshot, "shard": worker.name})
        return pending

    # -- submission -----------------------------------------------------

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def workers(self) -> dict[str, _ShardWorker]:
        return self._workers

    def _coerce(self, query: TypingUnion[str, Query]) -> tuple[str, Query]:
        if isinstance(query, Query):
            if not query.text:
                raise TypeError(
                    "sharded submit needs the query text; pass the SPARQL "
                    "string (or a Query parsed by parse_query, which keeps it)"
                )
            return query.text, query
        return query, parse_query(query)

    def submit(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
    ) -> ShardedQuery:
        """Route a query to its shard (or raise :class:`ServiceOverloadedError`)."""
        text, parsed = self._coerce(query)
        seed_list = list(seeds) if seeds is not None else None
        shard_name = self._router.route(text, seed_list)
        if shard_name is None:
            self.rejected += 1
            raise ServiceOverloadedError("no shards ready")
        worker = self._workers[shard_name]
        capacity = self._spec.max_concurrent + self._spec.max_queued
        if worker.inflight >= capacity:
            self.rejected += 1
            raise ServiceOverloadedError(
                f"shard {shard_name} at capacity ({worker.inflight} in flight)"
            )
        opts = {}
        if max_documents is not None:
            opts["max_documents"] = max_documents
        if max_duration is not None:
            opts["max_duration"] = max_duration
        try:
            req_id, future = worker.begin("submit", text, seed_list, opts)
        except WorkerCrashedError:
            self.rejected += 1
            raise ServiceOverloadedError(f"shard {shard_name} just died") from None
        handle = ShardedQuery(f"q{next(self._ids)}", parsed, seed_list, shard_name)
        handle._cancel = lambda: worker.send_cancel(req_id)
        self._registry[handle.id] = handle
        self.accepted += 1
        worker.inflight += 1
        future.add_done_callback(
            lambda fut, h=handle, w=worker: self._finish(h, w, fut)
        )
        return handle

    def _finish(self, handle: ShardedQuery, worker: _ShardWorker, future) -> None:
        worker.inflight -= 1
        try:
            payload, rows = future.result()
        except BaseException as error:  # noqa: BLE001 — surfaced on the handle
            handle.error = error
            handle.status = "failed"
            self.failed += 1
        else:
            handle.result = ShardedResult(
                handle.query, rows, ShardStats(payload["stats"]), handle.shard
            )
            handle.status = payload["status"] if payload["status"] != "failed" else "failed"
            if handle.status == "cancelled":
                self.cancelled += 1
            else:
                self.completed += 1
        handle.finished_at = time.monotonic()
        handle._done.set()

    async def run(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        **kwargs,
    ) -> ShardedResult:
        """Submit and wait: the one-call path for front-ends."""
        return await self.submit(query, seeds=seeds, **kwargs).wait()

    # -- standing queries -----------------------------------------------

    def subscriptions(self) -> list[ShardedSubscription]:
        return list(self._subscriptions.values())

    def get_subscription(self, sub_id: str) -> Optional[ShardedSubscription]:
        return self._subscriptions.get(sub_id)

    async def subscribe(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
    ) -> ShardedSubscription:
        """Open a standing query on the shard its routing key selects.

        The worker runs it to quiescence, keeps the live execution open,
        and streams every signed result-change event back over the wire
        (rows carry their sign); the returned handle re-interns them and
        replays the exact same event sequence an unsharded subscription
        would observe.
        """
        text, parsed = self._coerce(query)
        seed_list = list(seeds) if seeds is not None else None
        shard_name = self._router.route(text, seed_list)
        if shard_name is None:
            self.rejected += 1
            raise ServiceOverloadedError("no shards ready")
        worker = self._workers[shard_name]
        opts = {}
        if max_documents is not None:
            opts["max_documents"] = max_documents
        if max_duration is not None:
            opts["max_duration"] = max_duration
        try:
            req_id, future = worker.begin("subscribe", text, seed_list, opts)
        except WorkerCrashedError:
            self.rejected += 1
            raise ServiceOverloadedError(f"shard {shard_name} just died") from None
        handle = ShardedSubscription(
            f"s{next(self._sub_ids)}", parsed, shard_name, worker, req_id
        )
        # Register the event route *before* awaiting the ack: the worker
        # may pump the initial-results batch immediately after it.
        worker._events[req_id] = handle._deliver
        try:
            await future
        except BaseException:
            worker._events.pop(req_id, None)
            raise
        self._subscriptions[handle.id] = handle
        self.accepted += 1
        return handle

    async def apply_update(self, url: str, update: str) -> dict:
        """Apply one pod edit across the whole deployment.

        Every worker owns a private deterministic copy of the simulated
        universe, so a write must reach *all* of them — the front-end
        broadcasts a ``patch`` message and each shard applies the
        authenticated PATCH locally, then drains its standing queries.
        Events reach subscribers before this returns.
        """
        ready = [w for w in self._workers.values() if w.state == "ready"]
        if not ready:
            raise ServiceOverloadedError("no shards ready")
        reports = await asyncio.gather(
            *(w.request("patch", url, update, timeout=60.0) for w in ready)
        )
        return {
            "url": url,
            "status": reports[0]["status"],
            "events": sum(report.get("events", 0) for report in reports),
            "shards": len(reports),
        }

    # -- introspection --------------------------------------------------

    def get(self, query_id: str) -> Optional[ShardedQuery]:
        return self._registry.get(query_id)

    def queries(self) -> list[ShardedQuery]:
        return list(self._registry.values())

    def inflight(self) -> list[ShardedQuery]:
        """Dispatched queries not yet finished (QueryService parity)."""
        return [handle for handle in self._registry.values() if not handle.done]

    def statistics(self) -> dict:
        """Front-end counters plus the last known per-shard statistics.

        Synchronous — safe from any thread; shard blocks may be stale
        until the next :meth:`status` refresh.
        """
        shard_stats = {
            name: worker.last_status
            for name, worker in self._workers.items()
            if worker.last_status is not None
        }
        return {
            "mode": "sharded",
            "routing": self._routing,
            "workers": len(self._workers),
            "workers_ready": sum(
                1 for w in self._workers.values() if w.state == "ready"
            ),
            "restarts": self._restarts,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "subscriptions": len(self._subscriptions),
            "inflight": sum(w.inflight for w in self._workers.values()),
            "shards": shard_stats,
            "totals": _sum_stats(
                block.get("statistics", {}) for block in shard_stats.values()
            ),
        }

    async def status(self) -> dict:
        """Aggregate live status: per-shard statistics plus summed gauges."""
        ready = [w for w in self._workers.values() if w.state == "ready"]
        reports = await asyncio.gather(
            *(w.request("status", timeout=15.0) for w in ready),
            return_exceptions=True,
        )
        for worker, report in zip(ready, reports):
            if not isinstance(report, BaseException):
                worker.last_status = report
        document = self.statistics()
        document["queries"] = [handle.snapshot() for handle in self.queries()]
        return document
