"""The long-lived multi-query service layer (ROADMAP north star).

The paper's demo executes one Discover query at a time; serving heavy
traffic means many concurrent queries over the *same* pods.  This package
separates what those queries can share from what they cannot:

* :class:`SharedResources` — the shared stack, built bottom-up once:
  HTTP cache and parsed-document store (:class:`DocumentStore`), HTTP
  client, dereferencer and engine, reused across every query, whose
  counters :meth:`QueryService.statistics` reads back on either
  deployment;
* :class:`QueryService` — admission control (concurrency cap + waiting
  queue), a bounded query registry with cancellation, and per-query
  link/time budgets, all on that stack's engine;
* :class:`ServiceSparqlApp` — the SPARQL-protocol front-end backed by
  link traversal (vs. the fixed-dataset federation endpoint);
* :class:`ServiceHost` — a background event-loop thread so synchronous
  front-ends (the demo web UI, the CLI ``serve`` command) can drive one
  service from many threads;
* :class:`ShardedQueryService` — the same surface over N shard worker
  processes (each the stack :meth:`ShardSpec.build` builds, shared-nothing)
  behind one consistent-hash front-end (:class:`ShardRouter`), with
  crash restart and warm drain-and-restart handoff of the
  parsed-document store.

The deployment is a transport, not a second API: both services hand out
one handle (:class:`ServiceQuery`, whose ``wait()`` returns an
:class:`~repro.ltqp.engine.ExecutionResult`), one standing-query handle
(:class:`ServiceSubscription`, over one
:class:`~repro.ltqp.live.ChangeFeed`) and one status shape
(:func:`build_status`, schema 2).

Warm queries hit both caches: the fetch is answered locally (or via a
304 revalidation) and the parse is skipped entirely — the two costs the
related work identifies as dominating traversal time.
"""

from .docstore import DocumentStore, StoredDocument
from .host import ServiceHost
from .protocol import ServiceSparqlApp
from .resources import SharedResources
from .router import HashRing, ShardRouter, pod_origin
from .service import (
    QueryService,
    ServiceOverloadedError,
    ServiceQuery,
    ServiceSubscription,
)
from .shards import ShardedQueryService, ShardSpec, WorkerCrashedError
from .status import STATUS_SCHEMA_VERSION, build_status

__all__ = [
    "STATUS_SCHEMA_VERSION",
    "build_status",
    "DocumentStore",
    "StoredDocument",
    "SharedResources",
    "QueryService",
    "ServiceQuery",
    "ServiceSubscription",
    "ServiceOverloadedError",
    "ServiceSparqlApp",
    "ServiceHost",
    "HashRing",
    "ShardRouter",
    "pod_origin",
    "ShardSpec",
    "ShardedQueryService",
    "WorkerCrashedError",
]
