"""Multi-core scale-out: sharded QueryService workers behind one front-end.

One :class:`~repro.service.QueryService` is one asyncio loop — one core,
no matter the hardware.  This module runs **N worker processes**, each
owning a complete, private execution stack (what :meth:`ShardSpec.build`
builds: HTTP client, HTTP cache, parsed-document store, circuit
breakers, engine — *shared-nothing*), behind a
single :class:`ShardedQueryService` front-end.  The front-end is the
*same service surface* as the in-process one (the shared
:class:`~repro.service.service._ServiceCore`: one handle, one result and
stats type, one subscription, one registry and status document); this
module adds only the remote transport and the pool's lifecycle, routing
queries with consistent hashing (:mod:`repro.service.router`):

* ``query`` routing (default) spreads distinct queries across the pool
  while repeats of the same query stay on the same warm shard;
* ``origin`` routing pins seed-heavy queries to the shard owning their
  seed's pod, so a pod's documents are parsed exactly once across the
  whole deployment.

The data plane crosses process boundaries only in wire form
(:mod:`repro.service.wire`): each process rebuilds its own canonical terms, result
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
import dataclasses
import itertools
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union as TypingUnion

from ..ltqp.engine import EngineConfig, ExecutionResult
from ..ltqp.live import ChangeFeed, ResultChange
from ..net.latency import LatencyModel
from ..solidbench.universe import build_universe
from ..sparql.algebra import Query
from ..sparql.parser import parse_query
from .resources import SharedResources
from .router import ShardRouter
from .service import (
    QueryService,
    ServiceOverloadedError,
    ServiceQuery,
    ServiceSubscription,
    _ServiceCore,
)
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
    "ShardedQueryService",
]

#: Result rows per streamed ``rows`` message (worker → front-end).
ROW_CHUNK = 512

#: Seconds a spawned worker may take to regenerate its universe and
#: report ready.
_READY_TIMEOUT = 120.0


class WorkerCrashedError(RuntimeError):
    """The worker owning a query died before answering it."""


class ShardQueryError(RuntimeError):
    """A query failed inside its worker; carries the worker-side message."""


@dataclass(frozen=True)
class ShardSpec:
    """The picklable description of one service stack — and, in
    :meth:`build`, the one function that turns it into that stack.

    Workers receive this and nothing live: each regenerates the
    deterministic SolidBench universe from ``config`` and builds, in order,
    universe → :class:`SharedResources` (storage → client → dereferencer →
    engine) → :class:`QueryService`.  ``serve --workers 1`` builds the same
    stack from the same spec in-process, so a flag means one thing under
    both deployments.
    """

    config: object  # SolidBenchConfig (picklable dataclass)
    #: The client's latency model (picklable as is); ``None``: jitter
    #: seeded like the universe.
    latency: Optional[LatencyModel] = None
    #: Split by :class:`SharedResources`: ``engine.network`` is the policy
    #: the worker's client runs, ``engine.traversal`` the worker engine's —
    #: queue policy and hardening budgets for every query on every shard.
    #: A ``traversal.subweb`` (DESIGN.md §4g) is a frozen spec that pickles
    #: as is, so every worker follows the same links whatever the routing.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: The worker dereferencer's leniency.
    lenient: bool = True
    max_concurrent: int = 8
    max_queued: int = 32
    #: Persistence tier (see :mod:`repro.storage`).  On the front-end
    #: spec this is a *directory*; each worker receives a copy with its
    #: own file path under it (``<dir>/<shard-name>.sqlite``), so a
    #: respawned worker reopens its predecessor's store warm.
    store_path: Optional[str] = None

    def build(self, universe=None) -> QueryService:
        """The stack this spec describes, over ``universe`` (regenerated
        from ``config`` when the caller has none — a worker process)."""
        if universe is None:
            universe = build_universe(self.config)
        resources = SharedResources.for_universe(
            universe,
            latency=self.latency,
            config=self.engine,
            lenient=self.lenient,
            store_path=self.store_path,
        )
        return QueryService(
            resources, max_concurrent=self.max_concurrent, max_queued=self.max_queued
        )

    def for_worker(self, name: str) -> "ShardSpec":
        """The per-worker spec: the store directory becomes this worker's file."""
        if self.store_path is None:
            return self
        return dataclasses.replace(
            self, store_path=os.path.join(self.store_path, f"{name}.sqlite")
        )

    @property
    def persistent(self) -> bool:
        return self.store_path is not None


# ---------------------------------------------------------------------------
# worker process side
# ---------------------------------------------------------------------------


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
                # The real stats object (plain values, pickles as is)
                # minus the per-push/pop queue samples — the one field
                # whose size grows with the crawl.
                "stats": dataclasses.replace(result.stats, queue_samples=[]),
                "seeds": result.seeds,
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
    try:
        service = spec.build()
    except Exception as error:  # noqa: BLE001 — startup failure is fatal
        conn.send(("fatal", f"{type(error).__name__}: {error}"))
        return
    conn.send(("ready", {"pid": os.getpid()}))

    resources = service.resources
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
                    # Initial results first, ack second — events-then-ack
                    # like every edit, so the front-end's ``subscribe``
                    # returns with the history an in-process one has.
                    forward = _event_forwarder(conn, req_id)
                    if subscription.events:
                        forward(subscription.events)
                    subscription.live.add_listener(forward)
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
                # Decode off the event loop: term construction is thread-safe and
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


#: The ``statistics()`` keys a sharded service sums from its workers'
#: reports, with the value each sum starts from (so every key is present
#: before any worker has reported).  An empty ``shutdown_errors`` list is
#: the healthy state.
_SHARD_GAUGES = {
    "active": 0,
    "queued": 0,
    "shutdown_errors": [],
    "http_cache": {},
    "document_store": {},
    "storage": {},
    "requests": 0,
}


def _sum_stats(documents: Iterable[dict]) -> dict:
    """Merge shard statistics: sum numbers, concatenate lists, recurse.
    A ``hit_rate`` is not a count: it is recomputed from the summed
    ``hits`` / ``misses`` beside it."""
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
    if "hit_rate" in total:
        lookups = total.get("hits", 0) + total.get("misses", 0)
        total["hit_rate"] = round(total.get("hits", 0) / lookups, 4) if lookups else 0.0
    return total


class ShardedQueryService(_ServiceCore):
    """N shard workers behind the one service surface.

    The same handles, subscriptions, registry and status document as
    :class:`~repro.service.QueryService` (both are a
    :class:`~repro.service.service._ServiceCore`); what differs is the
    transport: a query executes as a routed pipe request, an edit is a
    broadcast, admission is per worker, and the pool has a lifecycle.
    No ``tracer=``: tracing is worker-local.  Must be
    started (:meth:`start`) and stopped (:meth:`stop`) on a running
    event loop.
    """

    def __init__(self, spec: ShardSpec, workers: int = 4, routing: str = "query") -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        super().__init__()
        self._spec = spec
        self._routing = routing
        # Spawned, never forked: a worker regenerates what it needs from
        # the spec instead of inheriting the front-end's heap and loop.
        self._context = multiprocessing.get_context("spawn")
        names = [f"shard-{index}" for index in range(workers)]
        # The ring starts empty; shards join as they report ready.
        self._router = ShardRouter((), mode=routing)
        self._workers = {name: _ShardWorker(name, spec, self._context) for name in names}
        self._restarts = 0
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
            timeout=_READY_TIMEOUT,
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
        """Loop-thread callback: drop the shard and respawn it (cold)."""
        self._router.remove_shard(worker.name)
        if self._started:
            self._restarts += 1
            asyncio.ensure_future(self._respawn(worker))

    async def _respawn(self, worker: _ShardWorker) -> None:
        loop = asyncio.get_running_loop()
        worker.spawn(loop)
        try:
            await asyncio.wait_for(worker.ready, timeout=_READY_TIMEOUT)
        except Exception:  # noqa: BLE001 — stays off the ring; next health check retries
            return
        if self._started and worker.state == "ready":
            self._router.add_shard(worker.name)

    async def health_check(self) -> dict[str, bool]:
        """Ping every worker (a crashed one is already being respawned)."""
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
        await asyncio.wait_for(worker.ready, timeout=_READY_TIMEOUT)
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

    def _route(
        self, query: TypingUnion[str, Query], seeds: Optional[Iterable[str]]
    ) -> tuple[str, Query, Optional[list[str]], _ShardWorker]:
        """Query text, parse, seed list and the ready worker they route to."""
        if isinstance(query, Query):
            if not query.text:
                raise TypeError(
                    "sharded submit needs the query text; pass the SPARQL "
                    "string (or a Query parsed by parse_query, which keeps it)"
                )
            text, parsed = query.text, query
        else:
            text, parsed = query, parse_query(query)
        seed_list = list(seeds) if seeds is not None else None
        shard_name = self._router.route(text, seed_list)
        if shard_name is None:
            self._reject("no shards ready")
        return text, parsed, seed_list, self._workers[shard_name]

    def _begin(
        self,
        worker: _ShardWorker,
        kind: str,
        text: str,
        seeds: Optional[list[str]],
        max_documents: Optional[int],
        max_duration: Optional[float],
    ) -> tuple[str, asyncio.Future]:
        """Send a ``submit`` / ``subscribe`` request with its budgets."""
        opts = {}
        if max_documents is not None:
            opts["max_documents"] = max_documents
        if max_duration is not None:
            opts["max_duration"] = max_duration
        try:
            return worker.begin(kind, text, seeds, opts)
        except WorkerCrashedError:
            self._reject(f"shard {worker.name} just died")

    def submit(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
    ) -> ServiceQuery:
        """Route a query to its shard (or raise :class:`ServiceOverloadedError`)."""
        text, parsed, seed_list, worker = self._route(query, seeds)
        capacity = self._spec.max_concurrent + self._spec.max_queued
        if worker.inflight >= capacity:
            self._reject(
                f"shard {worker.name} at capacity ({worker.inflight} in flight)"
            )
        req_id, future = self._begin(
            worker, "submit", text, seed_list, max_documents, max_duration
        )
        handle = self._admit(parsed, seed_list, shard=worker.name)
        # Whether it is queued or traversing is the worker's knowledge;
        # from here it is on its way.
        handle.status = "running"
        handle._cancel = lambda: worker.send_cancel(req_id)
        worker.inflight += 1
        future.add_done_callback(
            lambda fut, h=handle, w=worker: self._settle(h, w, fut)
        )
        return handle

    def _settle(self, handle: ServiceQuery, worker: _ShardWorker, future) -> None:
        """Reply (or crash) → the handle's result and outcome."""
        worker.inflight -= 1
        try:
            payload, rows = future.result()
        except BaseException as error:  # noqa: BLE001 — surfaced on the handle
            self._finish(handle, "failed", error)
        else:
            handle.result = ExecutionResult(
                handle.query, rows, payload["stats"], payload["seeds"]
            )
            self._finish(handle, payload["status"])

    # -- standing queries -----------------------------------------------

    async def subscribe(
        self,
        query: TypingUnion[str, Query],
        seeds: Optional[Iterable[str]] = None,
        max_documents: Optional[int] = None,
        max_duration: Optional[float] = None,
    ) -> ServiceSubscription:
        """Open a standing query on the shard its routing key selects.

        The worker runs it to quiescence, keeps the live execution open,
        and streams every signed result-change event back over the wire
        (rows carry their sign); the reader rebuilds them into the
        subscription's change feed, which replays the exact same event
        sequence an unsharded subscription would observe.
        """
        text, parsed, seed_list, worker = self._route(query, seeds)
        req_id, future = self._begin(
            worker, "subscribe", text, seed_list, max_documents, max_duration
        )
        feed = ChangeFeed()
        ended = asyncio.Event()

        def deliver(events: Optional[list[ResultChange]]) -> None:
            """Reader-loop callback: one decoded batch (None = stream end)."""
            if events is None:
                feed.close()
                ended.set()
            else:
                feed.publish(events)

        async def close() -> None:
            """Unsubscribe on the worker; returns once the stream has ended."""
            if not feed.closed:
                worker.send_unsubscribe(req_id)
            await ended.wait()

        # Register the event route *before* awaiting the ack: the worker
        # pumps the initial-results batch ahead of it.
        worker._events[req_id] = deliver
        try:
            await future
        except BaseException:
            worker._events.pop(req_id, None)
            raise
        return self._register_subscription(parsed, feed, close, shard=worker.name)

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

    async def drain_subscriptions(self) -> list[ResultChange]:
        """Nothing to pull: pods live in the workers, whose own loops
        drain their standing queries on every accepted write, and the
        events arrive through the reader."""
        return []

    # -- introspection --------------------------------------------------

    def statistics(self) -> dict:
        """Front-end counters over the summed per-shard gauges.

        Synchronous — safe from any thread; shard blocks are the last
        :meth:`status` reports and may be stale until the next one.
        """
        shards = {
            name: worker.last_status
            for name, worker in self._workers.items()
            if worker.last_status is not None
        }
        totals = _sum_stats(
            [_SHARD_GAUGES, *(block.get("statistics", {}) for block in shards.values())]
        )
        return {
            **{key: totals[key] for key in _SHARD_GAUGES},
            "mode": "sharded",
            "workers": {
                "total": len(self._workers),
                "ready": sum(1 for w in self._workers.values() if w.state == "ready"),
                "restarts": self._restarts,
                "routing": self._routing,
            },
            "shards": shards,
            **self._counters(),
        }

    async def status(self) -> dict:
        """Poll every ready worker, then build the status document from
        *current* shard gauges."""
        ready = [w for w in self._workers.values() if w.state == "ready"]
        reports = await asyncio.gather(
            *(w.request("status", timeout=15.0) for w in ready),
            return_exceptions=True,
        )
        for worker, report in zip(ready, reports):
            if not isinstance(report, BaseException):
                worker.last_status = report
        return await super().status()
