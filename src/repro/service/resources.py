"""Long-lived resources shared by every query a service executes.

The bare stack (``universe.engine``) has no caches — fine for a demo,
wasteful for a service answering many queries over the same pods.
:class:`SharedResources` builds the shared stack and owns the state whose
*value grows* with reuse:

* one :class:`~repro.net.client.HttpClient` (per-origin connection caps
  and circuit breakers keep their history across queries),
* one :class:`~repro.net.cache.HttpCache` (repeat fetches served locally
  or revalidated via ETag/304),
* one :class:`~repro.service.docstore.DocumentStore` (repeat parses
  skipped entirely),
* one :class:`~repro.ltqp.dereference.Dereferencer` wired to all three,
* one :class:`~repro.ltqp.engine.LinkTraversalEngine` over it.

Their counters are read back by :meth:`SharedResources.statistics`.

Everything *per-query* — link queue, triple source, pipeline, stats,
tracer — stays inside :class:`~repro.ltqp.engine.QueryExecution`.
"""

from __future__ import annotations

from typing import Optional

from ..ltqp.dereference import Dereferencer
from ..ltqp.engine import EngineConfig, LinkTraversalEngine
from ..net.cache import HttpCache
from ..net.client import HttpClient
from ..net.latency import LatencyModel, SeededJitterLatency
from ..net.log import RequestLog
from ..net.router import Internet
from ..storage import SqliteBackend
from .docstore import DocumentStore

__all__ = ["SharedResources"]


class SharedResources:
    """The shared stack, built bottom-up once — each setting handed to
    the layer that acts on it and held nowhere else:

    1. the store (if any), and over it the HTTP cache and document store;
    2. ``client`` — an :class:`~repro.net.client.HttpClient` with that
       cache, ``latency`` and ``config.network`` (its policy from then on);
    3. ``dereferencer`` — over the client, owning ``lenient``,
       ``auth_headers`` and the document store;
    4. ``engine`` — over the dereferencer, owning ``config.traversal`` and
       the default extractors; what every query of a
       :class:`~repro.service.QueryService` runs on.

    ``storage`` is the store under both caches (see :mod:`repro.storage`),
    or ``None``, the default: memory only, nothing survives the process.
    ``store_path`` opens — or reopens, warm — a single SQLite file holding
    both the HTTP cache and the parsed-document store.  Call :meth:`close`
    (or :meth:`flush`) to make pending writes durable; a crash in between
    loses only the un-flushed window, never the file.
    """

    def __init__(
        self,
        internet: Internet,
        latency: Optional[LatencyModel] = None,
        config: Optional[EngineConfig] = None,
        http_cache: Optional[HttpCache] = None,
        document_store: Optional[DocumentStore] = None,
        log: Optional[RequestLog] = None,
        lenient: bool = True,
        auth_headers: Optional[dict[str, str]] = None,
        latency_scale: float = 1.0,
        store_path: Optional[str] = None,
        storage: Optional[SqliteBackend] = None,
    ) -> None:
        #: The simulated Web this service answers from — retained so the
        #: service layer can reach origin apps directly (change listeners
        #: on Solid servers, authenticated control-plane updates).
        self.internet = internet
        config = config if config is not None else EngineConfig()
        if storage is None and store_path is not None:
            storage = SqliteBackend(store_path)
        self.storage = storage
        self.http_cache = (
            http_cache if http_cache is not None else HttpCache(backend=self.storage)
        )
        self.document_store = (
            document_store
            if document_store is not None
            else DocumentStore(backend=self.storage)
        )
        self.client = HttpClient(
            internet,
            latency=latency,
            latency_scale=latency_scale,
            log=log,
            cache=self.http_cache,
            policy=config.network,
        )
        self.dereferencer = Dereferencer(
            self.client,
            lenient=lenient,
            extra_headers=auth_headers,
            document_store=self.document_store,
        )
        self.engine = LinkTraversalEngine(self.dereferencer, traversal=config.traversal)

    @classmethod
    def for_universe(
        cls, universe, latency: Optional[LatencyModel] = None, **kwargs
    ) -> "SharedResources":
        """The shared stack over a simulated SolidBench universe (latency
        jitter seeded like the universe unless a model is given)."""
        if latency is None:
            latency = SeededJitterLatency(seed=universe.config.seed)
        return cls(universe.internet, latency=latency, **kwargs)

    def flush(self) -> None:
        """Commit pending storage writes (no-op without a store)."""
        if self.storage is not None:
            self.storage.flush()

    def close(self) -> None:
        """Flush and release the store (no-op without one)."""
        if self.storage is not None:
            self.storage.close()

    def statistics(self) -> dict:
        return {
            "http_cache": self.http_cache.statistics(),
            "document_store": self.document_store.statistics(),
            "storage": self.storage.statistics() if self.storage is not None else {},
            "requests": len(self.client.log),
        }
